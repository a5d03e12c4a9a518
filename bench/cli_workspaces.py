"""cli_workspaces: many short CLI commands, run in process.

Each job is `liecochain.cli.main([...,  "--input", "-", "--format", "json"])`
with the workspace on standard input and standard output captured, so it
pays for parsing, preconditions, evaluation at points, small eliminations
and the relative cohomology of isotropy subgroups, as a user's command does.

The commands are those named by the check directives of the five fixtures
(`integrability` runs inside `check cochain` with two fields; `rescale` has
no command), plus commands on generated workspaces: so(n) rotating R^n for
n = 3, 4 at generic points and at the fixed point, the solvable action with
rational coefficients of degree 1 and 2, and abelian shears.  The expected
exit code and verdicts of every command follow from the mathematics, as
noted next to each; none is a copy of the program's output.  The seed picks
the sample points, the rational coefficients and the number of shears.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

from common import (Job, frac_dsl, half_turn_adjoint, lie_algebra_dsl, random_rational_function,
                    rational_function_dsl, so_basis, so_table, subgroup_dsl)
from liecochain import cli

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tests", "fixtures")

PASS, FAIL = "pass", "fail"
UNOBSTRUCTED = "locally unobstructed"
NO_CHAIN = "no invariant chain can exist"
NO_COCHAIN_MAP = "no cochain map can exist"
REPORT_KEYS = {"tool_version", "command", "verdicts", "timing_ms"}
SOLVABLE_DEGREES = (1, 2)   # degree 3 makes one check cochain take 0.6-0.8 s


def _obstruction(isotropy, a_rel, h):
    return ("obstruction", PASS if a_rel and h else FAIL,
            {"isotropy": isotropy, "A_rel": a_rel, "H": h})


def _report(verdict):
    return ("report", PASS if verdict == UNOBSTRUCTED else FAIL, verdict)


# Fixture commands: (fixture, argv, exit code, [(check, verdict[, dims or witness])]).
FIXTURE_COMMANDS = [
    # translations of the (y, z) plane: everything holds
    ("intro", ["validate"], 0, [("jacobi", PASS), ("action_brackets", PASS),
                                ("action_rank", PASS), ("action_effective", PASS)]),
    # i_{Dy^Dz} alpha = c(x), basic
    ("intro", ["rho", "--action", "act", "--chain", "chi", "--form", "alpha"], 0,
     [("rho", PASS, "c(x)")]),
    # d alpha = c' vol and i_chi vol = dx; nu is top degree; x Dx commutes with Dy, Dz
    ("intro", ["check", "cochain", "--action", "act", "--chain", "chi", "--forms", "alpha",
               "nu", "--fields", "R1", "--points", "P0"], 0,
     [("cochain_condition", PASS), ("cochain_condition", PASS), ("stability", PASS),
      ("scaling_factor", PASS, "0")]),
    # dy^dz pairs to 1 with Dy^Dz and is invariant
    ("intro", ["certify", "surjective", "--action", "act", "--chain", "chi", "--form",
               "cert"], 0, [("surjective", PASS, "1")]),
    # free action of a 2-dimensional abelian algebra: A^2 = H^2 = 1
    ("intro", ["report", "--action", "act", "--points", "P0", "P1"], 0,
     [_obstruction(0, 1, 1), _obstruction(0, 1, 1), _report(UNOBSTRUCTED)]),
    ("solvable", ["validate"], 0, [("jacobi", PASS), ("action_brackets", PASS),
                                   ("action_rank", PASS), ("action_effective", PASS)]),
    ("solvable", ["check", "invariant", "--action", "act", "--object", "chi"], 0,
     [("invariant", PASS)]),
    # v1 ^ v2 = -y Dx^Dy, so chi = -y K(z) v1^v2
    ("solvable", ["check", "vertical", "--action", "act", "--object", "chi", "--points",
                  "P"], 0, [("vertical", PASS, "-y*K(z)")]),
    # residual K dz; L_{y Dy} chi = chi; L_{h Dz} chi = h K'/K chi; the
    # integrability residual y Dy(h K'/K) - h Dz(1) vanishes
    ("solvable", ["check", "cochain", "--action", "act", "--chain", "chi", "--forms",
                  "omega", "--fields", "Z1", "Z2", "--points", "P"], 1,
     [("cochain_condition", FAIL, "K(z)*d(z)"), ("stability", FAIL),
      ("scaling_factor", PASS, "1"), ("stability", FAIL), ("scaling_factor", PASS),
      ("integrability", PASS)]),
    # free action of aff(1), whose H^2 is 0
    ("solvable", ["report", "--action", "act", "--points", "P", "Q"], 1,
     [_obstruction(0, 1, 0), _obstruction(0, 1, 0), _report(NO_COCHAIN_MAP)]),
    ("abelian_shear", ["validate"], 0, [("jacobi", PASS), ("action_brackets", PASS),
                                        ("action_rank", PASS), ("action_effective", PASS)]),
    ("abelian_shear", ["check", "invariant", "--action", "act", "--object", "chi"], 0,
     [("invariant", PASS)]),
    # omega1 = b(y) dy is closed and i_chi omega1 = 0; omega2 is top degree with
    # i_chi omega2 = K c dy closed; a(y) Dx commutes with K(y) Dx
    ("abelian_shear", ["check", "cochain", "--action", "act", "--chain", "chi", "--forms",
                       "omega1", "omega2", "--fields", "R", "--points", "P"], 0,
     [("cochain_condition", PASS), ("cochain_condition", PASS), ("stability", PASS),
      ("scaling_factor", PASS, "0")]),
    # dx pairs to 1 with Dx but L_{y Dx} dx = dy: not invariant
    ("abelian_shear", ["certify", "surjective", "--action", "act", "--chain", "chi1",
                       "--form", "alpha"], 1, [("surjective", FAIL, "1")]),
    # isotropy of dimension 1 everywhere; A^1 = H^1 = 1 for an abelian algebra
    ("abelian_shear", ["report", "--action", "act", "--points", "P", "Q"], 0,
     [_obstruction(1, 1, 1), _obstruction(1, 1, 1), _report(UNOBSTRUCTED)]),
    ("rotations", ["validate"], 0, [("jacobi", PASS), ("action_brackets", PASS),
                                    ("action_rank", PASS), ("action_effective", PASS)]),
    # the pole: isotropy the circle e3, which fixes only the axis
    ("rotations", ["isotropy", "--action", "rot", "--point", "P"], 0,
     [("isotropy", PASS, {"isotropy": 1, "fixed_tangent": 1, "fixed_vertical": 0})]),
    # S^2 = SO(3)/SO(2): H^2 = 1
    ("rotations", ["report", "--action", "rot", "--points", "P"], 0,
     [_obstruction(1, 1, 1), _report(UNOBSTRUCTED)]),
    # RP^2 = SO(3)/O(2): the reflection reverses the area form, A^2 = H^2 = 0
    ("rotations", ["report", "--action", "rot", "--points", "P", "--components", "o2"], 1,
     [_obstruction(1, 0, 0), _report(NO_CHAIN)]),
    ("so3", ["cohomology", "--algebra", "so3", "--subgroup", "so2", "--degree", "1"], 0,
     [("cohomology", PASS, {"A_rel": 0, "H": 0})]),
    ("so3", ["cohomology", "--algebra", "so3", "--subgroup", "so2", "--degree", "2"], 0,
     [("cohomology", PASS, {"A_rel": 1, "H": 1})]),
    ("so3", ["cohomology", "--algebra", "so3", "--subgroup", "o2", "--degree", "2"], 0,
     [("cohomology", PASS, {"A_rel": 0, "H": 0})]),
]


# -- generated workspaces ---------------------------------------------------------


def _coords(n):
    return [f"x{i + 1}" for i in range(n)]


def _rotations(n, rng):
    """so(n) rotating R^n: E_ab acts by -x_b D(x_a) + x_a D(x_b), which
    realises the commutator table of so_table(n)."""
    dim, table = so_table(n)
    xs = _coords(n)
    lines = [f"chart R{n} {{ coords = [{', '.join(xs)}] }}", lie_algebra_dsl("g", dim, table)]
    names = []
    for k, (a, b) in enumerate(so_basis(n)):
        names.append(f"X{k + 1}")
        lines.append(f"vectorfield X{k + 1} on R{n} = -{xs[b]}*D({xs[a]}) + {xs[a]}*D({xs[b]})")
    lines.append(f"action rot {{ algebra g chart R{n} generators = [{', '.join(names)}] "
                 f"orbit_dim {n - 1} }}")
    r2 = "(" + " + ".join(f"{x}^2" for x in xs) + ")"
    # chi = r^-2 i_E (D(x1)^...^D(xn)), tangent to the spheres and invariant
    terms = []
    for i in range(n):
        atoms = "^".join(f"D({xs[j]})" for j in range(n) if j != i)
        terms.append(("-" if i % 2 else "+") + f" {xs[i]}*{atoms}")
    lines.append(f"chain chi on R{n} = 1/{r2}*({' '.join(terms).lstrip('+ ')})")
    # a generic point: two seeded nonzero coordinates; the pole; the origin
    axis = rng.sample(range(n), 2)
    values = [Fraction(0)] * n
    for i in axis:
        values[i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    pole = [Fraction(0)] * (n - 1) + [Fraction(rng.randint(1, 9))]
    for name, p in (("P", values), ("N", pole), ("O", [Fraction(0)] * n)):
        lines.append(f"point {name} on R{n} = ({', '.join(frac_dsl(v) for v in p)})")
    pairs = so_basis(n)
    lines.append(subgroup_dsl("stab", "g", [k for k, (a, b) in enumerate(pairs) if b < n - 1]))
    if n == 3:
        # O(2) at the pole
        lines.append(subgroup_dsl("o2", "g", [pairs.index((0, 1))], [half_turn_adjoint(n)]))
    return "\n".join(lines) + "\n"


def _rotation_commands(n):
    iso = (n - 1) * (n - 2) // 2
    full = n * (n - 1) // 2
    ws = f"rot{n}"
    cmds = [
        # brackets hold, orbits are spheres of dimension n-1 except at the origin
        (ws, ["validate"], 1, [("jacobi", PASS), ("action_brackets", PASS),
                               ("action_rank", FAIL), ("action_effective", PASS)]),
        # away from the origin the isotropy is so(n-1), which fixes the radial line only
        (ws, ["isotropy", "--action", "rot", "--point", "P"], 0,
         [("isotropy", PASS, {"isotropy": iso, "fixed_tangent": 1, "fixed_vertical": 0})]),
        # at the origin the whole algebra, which fixes no vector
        (ws, ["isotropy", "--action", "rot", "--point", "O"], 0,
         [("isotropy", PASS, {"isotropy": full, "fixed_tangent": 0, "fixed_vertical": 0})]),
        (ws, ["check", "invariant", "--action", "rot", "--object", "chi"], 0,
         [("invariant", PASS)]),
        (ws, ["check", "vertical", "--action", "rot", "--object", "chi", "--points", "P"], 0,
         [("vertical", PASS)]),
    ]
    if n == 3:
        # so(4)'s report (H^3 of SO(4)/SO(3) = S^3) takes 1.1-1.6 s, more than
        # a third of a round, so only so(3) gets the report commands.
        cmds += [
            # S^2 = SO(3)/SO(2): A^2 = H^2 = 1 at the pole and at a generic point
            (ws, ["report", "--action", "rot", "--points", "N"], 0,
             [_obstruction(iso, 1, 1), _report(UNOBSTRUCTED)]),
            (ws, ["report", "--action", "rot", "--points", "P"], 0,
             [_obstruction(1, 1, 1), _report(UNOBSTRUCTED)]),
            # at the origin no nonzero form of degree 2 is horizontal for all of so(3)
            (ws, ["report", "--action", "rot", "--points", "O"], 1,
             [_obstruction(full, 0, 0), _report(NO_CHAIN)]),
            (ws, ["report", "--action", "rot", "--points", "N", "--components", "o2"], 1,
             [_obstruction(1, 0, 0), _report(NO_CHAIN)]),
            (ws, ["cohomology", "--algebra", "g", "--subgroup", "stab", "--degree", "2"], 0,
             [("cohomology", PASS, {"A_rel": 1, "H": 1})]),
            (ws, ["cohomology", "--algebra", "g", "--subgroup", "o2", "--degree", "2"], 0,
             [("cohomology", PASS, {"A_rel": 0, "H": 0})]),
        ]
    else:
        # S^3: H^1 = 0 with A^1 = 0
        cmds.append((ws, ["cohomology", "--algebra", "g", "--subgroup", "stab",
                          "--degree", "1"], 0, [("cohomology", PASS, {"A_rel": 0, "H": 0})]))
    return cmds


def _solvable(degree, rng):
    """The solvable fixture with K(z), the field and form coefficients
    replaced by seeded rational functions of z of the given degree."""
    rf = lambda: rational_function_dsl(random_rational_function(rng, degree))
    y0 = rng.choice((-1, 1)) * rng.randint(1, 5)
    return "\n".join([
        "chart M { coords = [x, y, z] }",
        "lie_algebra solv2 {\n  dim 2\n  bracket [1,2] = -e2\n}",
        "vectorfield v1 on M = x*D(x) + y*D(y)",
        "vectorfield v2 on M = D(x)",
        "action act { algebra solv2 chart M generators = [v1, v2] orbit_dim 2 }",
        f"chain chi on M = {rf()}*y^2*D(x)^D(y)",
        f"vectorfield Z1 on M = {rf()}*y*D(y)",
        f"vectorfield Z2 on M = {rf()}*y*D(x) + {rf()}*D(z)",
        f"form omega on M = {rf()}/y*d(x)^d(z)",
        f"point P on M = ({rng.randint(-5, 5)}, {y0}, {rng.randint(-5, 5)})",
        f"point Q on M = ({rng.randint(-5, 5)}, {-y0}, {rng.randint(-5, 5)})",
    ]) + "\n"


def _solvable_commands(degree):
    ws = f"solvable{degree}"
    return [
        (ws, ["validate"], 0, [("jacobi", PASS), ("action_brackets", PASS),
                               ("action_rank", PASS), ("action_effective", PASS)]),
        (ws, ["check", "invariant", "--action", "act", "--object", "chi"], 0,
         [("invariant", PASS)]),
        (ws, ["check", "vertical", "--action", "act", "--object", "chi", "--points", "P"], 0,
         [("vertical", PASS)]),
        # the residual is K phi dz != 0; Z1 = g y Dy scales chi by g and
        # Z2 = f y Dx + h Dz by h K'/K, neither zero; [Z1, Z2] = f g y Dx - h g' y Dy
        # scales chi by -h g', so Z1(h K'/K) - Z2(g) + h g' = 0
        (ws, ["check", "cochain", "--action", "act", "--chain", "chi", "--forms", "omega",
              "--fields", "Z1", "Z2", "--points", "P"], 1,
         [("cochain_condition", FAIL), ("stability", FAIL), ("scaling_factor", PASS),
          ("stability", FAIL), ("scaling_factor", PASS), ("integrability", PASS)]),
        # free action of aff(1): H^2 = 0 at both points
        (ws, ["report", "--action", "act", "--points", "P", "Q"], 1,
         [_obstruction(0, 1, 0), _obstruction(0, 1, 0), _report(NO_COCHAIN_MAP)]),
    ]


def _shears(m, rng):
    """ab_m acting on the plane by w_i = y^(i-1) D(x): orbits are lines y = c
    and the isotropy has dimension m - 1 everywhere."""
    lines = ["chart N { coords = [x, y] }", "function K(y)", f"lie_algebra ab {{ dim {m} }}"]
    gens = ", ".join(f"w{i + 1}" for i in range(m))
    for i in range(m):
        lines.append(f"vectorfield w{i + 1} on N = {'y^%d*' % i if i else ''}D(x)")
    lines += [
        f"action act {{ algebra ab chart N generators = [{gens}] orbit_dim 1 }}",
        "chain chi on N = K(y)*D(x)",
        "chain chi1 on N = D(x)",
        "form alpha on N = d(x)",
    ]
    for name in ("P", "Q"):
        lines.append(f"point {name} on N = ({rng.randint(-5, 5)}, "
                     f"{rng.choice((-1, 1)) * rng.randint(1, 5)})")
    return "\n".join(lines) + "\n"


def _shear_commands(m):
    return [
        ("shears", ["validate"], 0, [("jacobi", PASS), ("action_brackets", PASS),
                                     ("action_rank", PASS), ("action_effective", PASS)]),
        # the isotropy fields p(y) D(x) with p(y0) = 0 move Dy into Dx: only Dx is fixed
        ("shears", ["isotropy", "--action", "act", "--point", "P"], 0,
         [("isotropy", PASS, {"isotropy": m - 1, "fixed_tangent": 1, "fixed_vertical": 1})]),
        ("shears", ["report", "--action", "act", "--points", "P", "Q"], 0,
         [_obstruction(m - 1, 1, 1), _obstruction(m - 1, 1, 1), _report(UNOBSTRUCTED)]),
        ("shears", ["check", "invariant", "--action", "act", "--object", "chi"], 0,
         [("invariant", PASS)]),
        # L_{y Dx} dx = dy: the pairing is 1 but dx is not invariant
        ("shears", ["certify", "surjective", "--action", "act", "--chain", "chi1", "--form",
                    "alpha"], 1, [("surjective", FAIL, "1")]),
    ]


def generate(seed):
    """Workspace texts by name, and the command list."""
    rng = random.Random(seed)
    texts = {}
    for name in ("intro", "solvable", "abelian_shear", "rotations", "so3"):
        with open(os.path.join(FIXTURES, f"{name}.lch"), encoding="utf-8") as fh:
            texts[name] = fh.read()
    commands = list(FIXTURE_COMMANDS)
    for n in (3, 4):
        texts[f"rot{n}"] = _rotations(n, rng)
        commands += _rotation_commands(n)
    for degree in SOLVABLE_DEGREES:
        texts[f"solvable{degree}"] = _solvable(degree, rng)
        commands += _solvable_commands(degree)
    m = rng.randint(2, 4)
    texts["shears"] = _shears(m, rng)
    commands += _shear_commands(m)
    return texts, {"commands": commands, "texts": texts}


def _run_cli(argv, text):
    """cli.main in process with `text` on standard input; returns the exit
    code, standard output and standard error."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--input", "-", "--format", "json"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def make_jobs(workspaces, plan):
    jobs = []
    for ws, argv, code, verdicts in plan["commands"]:
        text = plan["texts"][ws]
        jobs.append(Job(f"{ws}: {' '.join(argv)}",
                        lambda argv=argv, text=text: _run_cli(argv, text),
                        lambda res: res[1], {"exit": code, "verdicts": verdicts}))
    return jobs


def _problem(job, result):
    code, out, err = result
    if code != job.meta["exit"]:
        return f"exit {code}, expected {job.meta['exit']}: {err.strip()}"
    try:
        report = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if set(report) != REPORT_KEYS:
        return f"report keys {sorted(report)}"
    got = report["verdicts"]
    want = job.meta["verdicts"]
    if [(v["check"], v["verdict"]) for v in got] != [w[:2] for w in want]:
        return "verdicts " + ", ".join(f"{v['check']}={v['verdict']}" for v in got)
    for v, w in zip(got, want):
        if len(w) < 3:
            continue
        if isinstance(w[2], dict) and v.get("dims") != w[2]:
            return f"{v['check']} dims {v.get('dims')}, expected {w[2]}"
        if isinstance(w[2], str) and v.get("witness") != w[2]:
            return f"{v['check']} witness {v.get('witness')!r}, expected {w[2]!r}"
    return None


def check(jobs, outputs, plan):
    failed = {}
    for i, (job, result) in enumerate(zip(jobs, outputs)):
        problem = _problem(job, result)
        if problem:
            failed[i] = problem
    return failed
