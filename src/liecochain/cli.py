"""Command-line front end: load a workspace file, run one command, print a
text or JSON report with deterministic exit codes.  The commands and their
flags come from the check table `dsl.CHECKS`; the argument parser is built
from it once per process, on the first call of `main`, and every name is
looked up by `dsl.resolve_check`.  Every command loads the workspace
(`dsl.load`), which reports every error of the walk first; `validate` then
builds every declaration (`dsl.parse`), every other command only those its
runner is given, so an error of value in a field, form or chain is
reported only if the command reads it.  Display notation is rendered only
for text output.
Everything read from the input lives for one call.

Every requested check gets a verdict: `check cochain` with no form and no
field reports the chain's own (`chain_basis`).  The exit code is fixed
before anything is printed: 0 all verdicts pass, 1 at least one
mathematical verdict fails (an obstruction or a violated identity is a
finding, not a crash), 2 input or usage error.  A reader that closes the
output early (`| head`) changes neither the code nor standard error.  JSON
output is byte-identical across runs; timing_ms is 0 unless
LIECOCHAIN_TIMING=1.  LIECOCHAIN_COLOR=0 disables text styling.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from . import action_analysis as aa
from . import chart_calculus as cc
from . import dsl
from . import scalar_field as sf
from .lie_cohomology import (CohomologyError, SubgroupSpec, relative_cohomology,
                             validate_lie_algebra)


class InputError(Exception):
    pass


def _verdict(check, subject, ok, **extra):
    v = {"check": check, "subject": subject,
         "verdict": ok if isinstance(ok, str) else ("pass" if ok else "fail")}
    for key in ("witness", "point", "dims", "representatives", "frame", "reason",
                "_pretty", "_pretty_representatives"):
        if key in extra and extra[key] is not None:
            v[key] = extra[key]
    return v


def _load_workspace(path, kind):
    """The workspace at `path` (- for stdin), loaded: `validate` builds every
    declaration at once, every other command only what it reads."""
    name = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {name}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:   # names the byte and its offset
        raise InputError(f"cannot read {name}: {exc}") from exc
    return (dsl.parse if kind == "validate" else dsl.load)(text, name)


def _chart_points(ws, chart):
    return [values for (chart_name, values) in ws.points.values()
            if ws.charts[chart_name] == chart]


def _text(obj, style):
    """A scalar or tensor in a style: workspace syntax or display notation."""
    if isinstance(obj, sf.ScalarExpr):
        return sf.render(obj, style)
    return dsl.render_tensor(obj, style)


def _shown(obj, prefix=""):
    """The witness fields of a verdict: workspace syntax for JSON, and for
    text a function that renders display notation."""
    return {"witness": prefix + _text(obj, sf.PLAIN),
            "_pretty": lambda: prefix + _text(obj, sf.UNICODE)}


# -- commands ---------------------------------------------------------------
#
# Each command gets the workspace, its arguments as written (`names`, by
# slot name of `dsl.CHECKS`) and the declarations they name (`got`).


def _cmd_validate(ws, names, got):
    verdicts = []
    for name, algebra in ws.lie_algebras.items():
        violations = validate_lie_algebra(algebra)
        witness = None
        if violations:
            i, j, k, res = violations[0]
            witness = f"triple ({i+1},{j+1},{k+1}): {dsl.vector_dsl(res)}"
        verdicts.append(_verdict("jacobi", name, not violations, witness=witness))
    for name, decl in ws.actions.items():
        action = decl.spec
        samples = _chart_points(ws, action.chart)
        violations = aa.bracket_violations(action)
        witness = None
        if violations:
            i, j, res = violations[0]
            witness = (f"[{decl.generators[i]}, {decl.generators[j]}]: "
                       f"{_text(res, sf.PLAIN)}")
        verdicts.append(_verdict("action_brackets", name, not violations, witness=witness))
        failures = aa.rank_failures(action, samples)
        if samples:
            witness = None
            if failures:
                pt, r = failures[0]
                coords = ", ".join(str(v) for v in pt)
                witness = f"rank {r} != {action.orbit_dim} at ({coords})"
            verdicts.append(_verdict("action_rank", name, not failures, witness=witness))
        else:
            verdicts.append(_verdict("action_rank", name, "skipped",
                                     reason="no sample points declared on the chart"))
        kernel = aa.generator_kernel(action)
        verdicts.append(_verdict("action_effective", name, not kernel,
                                 witness="; ".join(dsl.vector_dsl(v) for v in kernel) or None))
    return verdicts


def _cmd_cohomology(ws, names, got):
    if got["subgroup"]:
        sub = got["subgroup"].spec
        subject = f"{names['algebra']} rel {names['subgroup']}"
    else:
        sub = SubgroupSpec.trivial()
        subject = names["algebra"]
    degree = names["degree"]
    result = relative_cohomology(got["algebra"], sub, degree)
    return [_verdict("cohomology", f"{subject} degree {degree}", True,
                     dims={"A_rel": result.relative_dims[degree], "H": result.dimension},
                     representatives=[_text(r, sf.PLAIN) for r in result.representatives],
                     _pretty_representatives=lambda: [_text(r, sf.UNICODE)
                                                      for r in result.representatives])]


def _cmd_isotropy(ws, names, got):
    action = got["action"].spec
    basis, tangent, vertical = aa.fixed_space_at(action, got["point"])
    dims = {"isotropy": len(basis), "fixed_tangent": tangent, "fixed_vertical": vertical}
    witness = "; ".join(dsl.vector_dsl(v) for v in basis) or None
    return [_verdict("isotropy", names["action"], True, point=names["point"],
                     dims=dims, witness=witness)]


def _cmd_vertical(ws, names, got):
    subject = names["object"]
    try:
        found = aa.check_vertical(got["action"].spec, got["object"], got["points"])
    except aa.NoFrameFound as exc:
        return [_verdict("vertical", subject, False, reason=str(exc))]
    if found is None:
        return [_verdict("vertical", subject, False,
                         reason="chain is not proportional to any generator frame")]
    frame, factor = found
    return [_verdict("vertical", subject, True, frame=[i + 1 for i in frame],
                     **_shown(factor))]


def _generator_verdict(check, subject, v):
    shown = {} if v.ok else _shown(v.witness, f"generator {v.generator + 1}: ")
    return [_verdict(check, subject, v.ok, **shown)]


def _cmd_invariant(ws, names, got):
    obj_kind, obj = got["object"]
    check = aa.check_invariant_form if obj_kind == "form" else aa.check_invariant_multivector
    v = check(got["action"].spec, obj)
    return _generator_verdict("invariant", names["object"], v)


def _cmd_semibasic(ws, names, got):
    v = aa.check_semibasic(got["action"].spec, got["object"])
    return _generator_verdict("semibasic", names["object"], v)


def _residual_verdict(check, subject, residual):
    """A pass if the residual vanishes, else a fail with it as the witness."""
    ok = residual.is_zero()
    return _verdict(check, subject, ok, **({} if ok else _shown(residual)))


def _cmd_check_cochain(ws, names, got):
    action, chain = got["action"].spec, got["chain"]
    form_names, field_names, fields = names["forms"], names["fields"], got["fields"]
    # The chain's precondition runs once, each form's and field's once after
    # it, and L_R chi gives both the stability verdict and lambda_R.
    try:
        aa._require_invariant_vertical_chain(action, chain, got["points"])
    except aa.InvalidInput as exc:
        skipped = {"cochain_condition": form_names, "stability": field_names}
        return [_verdict("chain_basis", names["chain"], False, reason=str(exc))] + [
            _verdict(check, n, "skipped", reason="chain precondition failed")
            for check, subjects in skipped.items() for n in subjects]
    if not form_names and not field_names:
        return [_verdict("chain_basis", names["chain"], True)]
    verdicts = []
    for n, omega in zip(form_names, got["forms"]):
        try:
            aa._require_invariant_form(action, omega)
            res = aa.cochain_condition_unchecked(action, chain, omega).residual
            verdicts.append(_residual_verdict("cochain_condition", n, res))
        except aa.InvalidInput as exc:
            verdicts.append(_verdict("cochain_condition", n, False, reason=str(exc)))
    lams, missing = [], None   # lambda_R per field, and the first reason one is missing
    for n, r in zip(field_names, fields):
        try:
            lr = aa.stability_check(action, chain, [r]).entries[0].residual
        except aa.NonInvariantField as exc:
            verdicts.append(_verdict("stability", n, False, reason=str(exc)))
            missing = missing or aa.SCALING_NEEDS_INVARIANT_FIELD
            continue
        verdicts.append(_residual_verdict("stability", n, lr))
        try:
            lams.append(aa.scaling_factor_unchecked(action, chain, lr))
            verdicts.append(_verdict("scaling_factor", n, True, **_shown(lams[-1])))
        except (aa.NotProportional, aa.InvalidInput) as exc:
            verdicts.append(_verdict("scaling_factor", n, False, reason=str(exc)))
            missing = missing or str(exc)
    if len(fields) >= 2 and missing is None:
        try:
            pairs = aa.integrability_unchecked(action, chain, fields, lams).pairs
        except (aa.NotProportional, aa.NonInvariantField, aa.InvalidInput) as exc:
            missing = str(exc)
        else:
            verdicts += [_residual_verdict("integrability", f"{field_names[s]},{field_names[t]}",
                                           res) for s, t, res in pairs]
    if len(fields) >= 2 and missing is not None:
        verdicts.append(_verdict("integrability", ",".join(field_names), False, reason=missing))
    return verdicts


def _cmd_rho(ws, names, got):
    try:
        res = aa.evaluation_map(got["action"].spec, got["chain"], got["form"], got["points"])
    except aa.InvalidInput as exc:
        return [_verdict("rho", names["form"], False, reason=str(exc))]
    ok = res.basic
    reason = None
    if not res.semibasic.ok:
        reason = "result is not semi-basic"
    elif not res.invariant.ok:
        reason = "result is not invariant"
    return [_verdict("rho", names["form"], ok, reason=reason, **_shown(res.form))]


def _cmd_certify(ws, names, got):
    try:
        res = aa.surjectivity_certificate(got["action"].spec, got["chain"], got["form"],
                                          got["points"])
    except aa.InvalidInput as exc:
        return [_verdict("surjective", f"{names['chain']} with {names['form']}",
                         False, reason=str(exc))]
    reason = None
    if not sf.equals(res.pairing, 1):
        reason = "pairing is not 1"
    elif not res.invariance.ok:
        reason = "certificate form is not invariant"
    return [_verdict("surjective", f"{names['chain']} with {names['form']}", res.ok,
                     reason=reason, **_shown(res.pairing))]


def _cmd_report(ws, names, got):
    point_names = names["points"]
    comps = got["components"].spec.component_reps if got["components"] else ()
    report = aa.obstruction_report(got["action"].spec, got["points"], comps)
    verdicts = []
    for pname, p in zip(point_names, report.points):
        ok = p.relative_dim > 0 and p.cohomology_dim > 0
        verdicts.append(_verdict("obstruction", names["action"], ok, point=pname,
                                 dims={"isotropy": p.isotropy_dim,
                                       "A_rel": p.relative_dim,
                                       "H": p.cohomology_dim}))
    verdicts.append(_verdict("report", names["action"], report.ok,
                             witness=report.verdict))
    return verdicts


# -- driver -----------------------------------------------------------------


_RUNNERS = {"validate": _cmd_validate, "cohomology": _cmd_cohomology,
            "isotropy": _cmd_isotropy, "invariant": _cmd_invariant,
            "vertical": _cmd_vertical, "semibasic": _cmd_semibasic,
            "cochain": _cmd_check_cochain, "rho": _cmd_rho, "surjective": _cmd_certify,
            "report": _cmd_report}


@functools.cache
def _build_parser():
    """The parser for every check of `dsl.CHECKS` that has a command, with a
    `--name` flag per slot."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="workspace file, or - for stdin")
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--verbose", "-v", action="count", default=0)

    parser = argparse.ArgumentParser(
        prog="liecochain",
        description="exact checks for evaluation cochain maps of group actions")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}   # first word of a two-word command -> its subparsers
    for kind, check in dsl.CHECKS.items():
        if not check.command:
            continue
        word, *rest = check.command
        if rest:
            if word not in groups:
                groups[word] = sub.add_parser(word).add_subparsers(dest="kind", required=True)
            p = groups[word].add_parser(rest[0], parents=[common])
        else:
            p = sub.add_parser(word, parents=[common])
        p.set_defaults(kind=kind)
        for slot in check.slots:
            p.add_argument(f"--{slot.name}", required=slot.count in "1+",
                           nargs=slot.count if slot.many else None,
                           default=() if slot.many else None,
                           type=int if slot.ref == "int" else None)
    return parser


def _fail(cls, message, slot, index):
    raise InputError(message)


def _use_color():
    return os.environ.get("LIECOCHAIN_COLOR", "1") != "0" and sys.stdout.isatty()


def _text_lines(verdicts):
    color = _use_color()
    styles = {"pass": "32", "fail": "31", "skipped": "33"}
    for v in verdicts:
        tag = v["verdict"]
        if color:
            tag = f"\x1b[{styles[tag]}m{tag}\x1b[0m"
        line = f"[{tag}] {v['check']} {v['subject']}"
        if v.get("point"):
            line += f" at {v['point']}"
        if v.get("dims"):
            line += " " + " ".join(f"{k}={n}" for k, n in v["dims"].items())
        pretty = v.get("_pretty_representatives")
        reps = pretty() if pretty else v.get("representatives")
        if reps:
            line += " reps: " + ", ".join(reps)
        pretty = v.get("_pretty")
        witness = pretty() if pretty else v.get("witness")
        if witness:
            line += f" | {witness}"
        if v.get("reason"):
            line += f" ({v['reason']})"
        yield line


def _json_report(command, verdicts, elapsed_ms):
    public = [{k: val for k, val in v.items() if not k.startswith("_")} for v in verdicts]
    return json.dumps({"tool_version": __version__, "command": command, "verdicts": public,
                       "timing_ms": elapsed_ms}, indent=2) + "\n"


def run(args):
    """(exit code, standard output) of one parsed command line."""
    started = time.perf_counter()
    ws = _load_workspace(args.input, args.kind)
    names = {slot.name: getattr(args, slot.name) for slot in dsl.CHECKS[args.kind].slots}
    got = dsl.resolve_check(ws, args.kind, names, _fail)
    verdicts = _RUNNERS[args.kind](ws, names, got)
    elapsed_ms = 0
    if os.environ.get("LIECOCHAIN_TIMING") == "1":
        elapsed_ms = int((time.perf_counter() - started) * 1000)
    code = 1 if any(v["verdict"] == "fail" for v in verdicts) else 0
    if args.format == "json":
        return code, _json_report(args.command, verdicts, elapsed_ms)
    lines = list(_text_lines(verdicts))
    if args.verbose:
        lines.insert(0, f"liecochain {__version__} | {args.command} | {ws.source_name}")
    return code, "".join(f"{line}\n" for line in lines)


def _written(code, out=""):
    """`code`, once `out` is on standard output and flushed.  A reader that
    is gone is not an error: the rest of the output goes to os.devnull, so
    that the flush at exit cannot fail again."""
    try:
        sys.stdout.write(out)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:   # --help, or a usage error
        return _written(exc.code if isinstance(exc.code, int) else 2)
    try:
        code, out = run(args)
    except (InputError, dsl.ParseError, aa.ActionError, CohomologyError, sf.ScalarError,
            cc.ChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _written(code, out)


if __name__ == "__main__":
    sys.exit(main())
