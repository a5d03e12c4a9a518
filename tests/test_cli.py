import io
import json
import time
from pathlib import Path

import pytest

from liecochain import cli, dsl
from liecochain.cli import main

HERE = Path(__file__).parent
FIXTURES = HERE / "fixtures"
GOLDEN = HERE / "golden"


def fixture(name):
    return str(FIXTURES / f"{name}.lch")


GOLDEN_RUNS = [
    ("so3_so2_h2", 0, ["cohomology", "--input", fixture("so3"),
                       "--algebra", "so3", "--subgroup", "so2", "--degree", "2"]),
    ("so3_o2_h2", 0, ["cohomology", "--input", fixture("so3"),
                      "--algebra", "so3", "--subgroup", "o2", "--degree", "2"]),
    ("solvable_report", 1, ["report", "--input", fixture("solvable"),
                            "--action", "act", "--points", "P", "Q"]),
    ("shear_report", 0, ["report", "--input", fixture("abelian_shear"),
                         "--action", "act", "--points", "P", "Q"]),
    ("intro_cochain", 0, ["check", "cochain", "--input", fixture("intro"),
                          "--action", "act", "--chain", "chi",
                          "--forms", "alpha", "nu", "--fields", "R1",
                          "--points", "P0"]),
    ("solvable_cochain", 1, ["check", "cochain", "--input", fixture("solvable"),
                             "--action", "act", "--chain", "chi",
                             "--forms", "omega", "--fields", "Z1", "Z2",
                             "--points", "P"]),
    ("intro_validate", 0, ["validate", "--input", fixture("intro")]),
    ("intro_rho", 0, ["rho", "--input", fixture("intro"), "--action", "act",
                      "--chain", "chi", "--form", "alpha"]),
    ("intro_surjective", 0, ["certify", "surjective", "--input", fixture("intro"),
                             "--action", "act", "--chain", "chi", "--form", "cert"]),
    ("shear_isotropy", 0, ["isotropy", "--input", fixture("abelian_shear"),
                           "--action", "act", "--point", "P"]),
]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("name,expected_code,argv",
                         GOLDEN_RUNS, ids=[g[0] for g in GOLDEN_RUNS])
def test_golden_json(name, expected_code, argv, capsys):
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == expected_code
    expected = (GOLDEN / f"{name}.json").read_text()
    assert out == expected


@pytest.mark.parametrize("name,expected_code,argv",
                         GOLDEN_RUNS, ids=[g[0] for g in GOLDEN_RUNS])
def test_byte_identical_across_runs(name, expected_code, argv, capsys):
    _, first = run_cli(argv + ["--format", "json"], capsys)
    _, second = run_cli(argv + ["--format", "json"], capsys)
    assert first.encode() == second.encode()


def test_byte_identical_across_hash_seeds():
    import subprocess, sys, os
    argv = ["report", "--input", fixture("solvable"), "--action", "act",
            "--points", "P", "Q", "--format", "json"]
    outs = []
    for seed in ("1", "1234"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-m", "liecochain.cli"] + argv,
                              capture_output=True, env=env)
        assert proc.returncode == 1
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_json_schema_keys(capsys):
    _, out = run_cli(["cohomology", "--input", fixture("so3"), "--algebra", "so3",
                      "--subgroup", "so2", "--degree", "2", "--format", "json"], capsys)
    report = json.loads(out)
    assert list(report.keys()) == ["tool_version", "command", "verdicts", "timing_ms"]
    assert report["command"] == "cohomology"
    assert report["timing_ms"] == 0
    v = report["verdicts"][0]
    assert list(v.keys())[:3] == ["check", "subject", "verdict"]
    assert v["dims"] == {"A_rel": 1, "H": 1}
    assert v["representatives"] == ["a1^a2"]


def test_every_requested_check_reported(capsys):
    _, out = run_cli(["check", "cochain", "--input", fixture("intro"),
                      "--action", "act", "--chain", "chi",
                      "--forms", "alpha", "nu", "--fields", "R1",
                      "--points", "P0", "--format", "json"], capsys)
    report = json.loads(out)
    subjects = [(v["check"], v["subject"]) for v in report["verdicts"]]
    assert ("cochain_condition", "alpha") in subjects
    assert ("cochain_condition", "nu") in subjects
    assert ("stability", "R1") in subjects


def test_skipped_checks_carry_reason(tmp_path, capsys):
    # an unknown chain name is an input error
    code, out = run_cli(["check", "cochain", "--input", fixture("solvable"),
                         "--action", "act", "--chain", "badchain",
                         "--forms", "omega", "--format", "json"], capsys)
    assert code == 2
    # a chain that is not vertical fails the precondition and the requested
    # sub-checks are reported as skipped, never silently dropped
    text = (FIXTURES / "solvable.lch").read_text()
    bad_path = tmp_path / "solvable_bad.lch"
    bad_path.write_text(text + "chain badchain on M = D(x)^D(z)\n")
    code, out = run_cli(["check", "cochain", "--input", str(bad_path),
                         "--action", "act", "--chain", "badchain",
                         "--forms", "omega", "--format", "json"], capsys)
    report = json.loads(out)
    assert code == 1
    by_check = {v["check"]: v for v in report["verdicts"]}
    assert by_check["chain_basis"]["verdict"] == "fail"
    assert by_check["cochain_condition"]["verdict"] == "skipped"
    assert by_check["cochain_condition"]["reason"]


def test_exit_codes_for_input_errors(capsys):
    assert main(["validate", "--input", str(FIXTURES / "nosuch.lch")]) == 2
    assert main(["cohomology", "--input", fixture("so3"), "--algebra", "nope",
                 "--degree", "2"]) == 2
    assert main(["report", "--input", fixture("intro"), "--action", "act",
                 "--points", "NOPE"]) == 2
    # usage errors from the argument parser are also exit 2
    assert main(["no-such-command"]) == 2
    assert main(["cohomology", "--input", fixture("so3")]) == 2
    assert main(["check", "cochain", "--input", fixture("intro"),
                 "--action", "act"]) == 2


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, monkeypatch):
    """A byte that is not UTF-8 is reported with its offset, exit 2, from a
    file and from standard input alike."""
    data = b"chart M { coords = [x] }\n# caf\xe9\n"
    bad = tmp_path / "bad.lch"
    bad.write_bytes(data)
    assert main(["validate", "--input", str(bad)]) == 2
    assert capsys.readouterr().err == (f"error: cannot read {bad}: 'utf-8' codec can't decode "
                                       "byte 0xe9 in position 30: invalid continuation byte\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    assert main(["validate", "--input", "-"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read <stdin>: 'utf-8' codec")


def _fixture_commands():
    """Each fixture's commands from GOLDEN_RUNS, reading standard input, and
    `validate` for every fixture."""
    commands = {}
    for _, _, argv in GOLDEN_RUNS:
        at = argv.index("--input") + 1
        name = Path(argv[at]).stem
        commands.setdefault(name, [["validate", "--input", "-"]]).append(
            argv[:at] + ["-"] + argv[at + 1:])
    return commands


def test_main_never_escapes_on_mutated_fixtures(capsys, monkeypatch):
    """On seeded single-edit mutants of the fixtures, each of the fixture's
    commands returns 0, 1 or 2 within a second, raises nothing and prints no
    traceback (ROADMAP item 5)."""
    from test_dsl import _mutants
    commands = _fixture_commands()
    for fixture_name, text in _mutants(150, seed=28):
        for argv in commands[fixture_name]:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            start = time.perf_counter()
            code = main(argv + ["--format", "json"])
            elapsed = time.perf_counter() - start
            out, err = capsys.readouterr()
            assert code in (0, 1, 2) and elapsed < 1.0, (argv, text)
            assert "Traceback" not in out + err, (argv, text)


def test_cohomology_degree_out_of_range_is_input_error(capsys):
    assert main(["cohomology", "--input", fixture("so3"), "--algebra", "so3",
                 "--degree", "7"]) == 2


def test_oversized_cochain_space_refused_at_once(tmp_path, capsys):
    # C(200, 3) = 1313400 basis 3-forms: refused before any of them is built
    ws = tmp_path / "ab200.lch"
    ws.write_text("lie_algebra ab { dim 200 }\n")
    start = time.perf_counter()
    code = main(["cohomology", "--input", str(ws), "--algebra", "ab", "--degree", "3"])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert elapsed < 1


def test_oversized_power_refused_at_once(tmp_path, capsys):
    ws = tmp_path / "pow.lch"
    ws.write_text("chart M { coords = [x, y] }\nform w on M = (x + y + 1)^3000*d(x)\n")
    start = time.perf_counter()
    code = main(["validate", "--input", str(ws)])
    elapsed = time.perf_counter() - start
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert elapsed < 1


def _sum_workspace(n):
    """A form summing n fractions f_i(c_i)*c_{i-1}^2/(c_i^2 + c_{i-1}^2 + 1)
    over n coordinates: its common denominator has n factors."""
    cs = [f"c{i}" for i in range(n)]
    terms = [f"f{i}({cs[i]})*{cs[i - 1]}^2/({cs[i]}^2 + {cs[i - 1]}^2 + 1)" for i in range(n)]
    return "\n".join([
        f"chart M {{ coords = [{', '.join(cs)}] }}",
        *(f"function f{i}({c})" for i, c in enumerate(cs)),
        "lie_algebra u1 { dim 1 }",
        "vectorfield v on M = c0*D(c1) - c1*D(c0)",
        "action act { algebra u1 chart M generators = [v] orbit_dim 1 }",
        f"form w on M = {' + '.join(terms)}", ""])


def test_oversized_sum_refused_at_once(tmp_path, capsys):
    # ten coordinates are refused when the check reads the form, by the sum
    # limit; eight build, and a partial derivative in the check is refused
    argv = ["check", "invariant", "--action", "act", "--object", "w"]
    for n, refused in ((10, "bringing"), (8, "differentiating")):
        ws = tmp_path / f"sum{n}.lch"
        ws.write_text(_sum_workspace(n))
        start = time.perf_counter()
        code = main(argv + ["--input", str(ws)])
        elapsed = time.perf_counter() - start
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and refused in err and "over the limit of 30000" in err
        assert elapsed < 1
    ws = tmp_path / "sum4.lch"
    ws.write_text(_sum_workspace(4))
    assert main(argv + ["--input", str(ws)]) in (0, 1)
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out


def test_pole_at_point_reported_in_workspace_syntax(tmp_path, capsys):
    ws = tmp_path / "pole.lch"
    ws.write_text("""chart M { coords = [x, y] }
lie_algebra g { dim 1 }
vectorfield v on M = 1/x*D(y)
action act { algebra g chart M generators = [v] orbit_dim 1 }
point P on M = (0, 1)
""")
    assert main(["validate", "--input", str(ws)]) == 2
    err = capsys.readouterr().err
    assert "Fraction(" not in err
    assert "denominator vanishes at x = 0, y = 1" in err


def test_ambiguous_object_name_is_input_error(tmp_path, capsys):
    ws = tmp_path / "amb.lch"
    ws.write_text("""chart M { coords = [x, y] }
lie_algebra g { dim 1 }
vectorfield v on M = D(x)
action act { algebra g chart M generators = [v] orbit_dim 1 }
form T on M = d(x)
chain T on M = D(x)
""")
    assert main(["check", "invariant", "--input", str(ws),
                 "--action", "act", "--object", "T"]) == 2
    assert capsys.readouterr().err == f"error: {ws}:6:7: 'T' already names a form\n"


def test_point_on_wrong_chart_is_input_error(tmp_path, capsys):
    ws = tmp_path / "two_charts.lch"
    ws.write_text("""chart M { coords = [x, y, z] }
chart N { coords = [u, v] }
lie_algebra g { dim 1 }
vectorfield w on M = D(y)
action act { algebra g chart M generators = [w] orbit_dim 1 }
chain chi on M = D(y)
form f on M = d(y)
point P on N = (0, 0)
""")
    assert main(["rho", "--input", str(ws), "--action", "act",
                 "--chain", "chi", "--form", "f", "--points", "P"]) == 2
    assert "chart" in capsys.readouterr().err


WRONG_CHART = [
    (["check", "invariant", "--object", "cN"], "chain 'cN'"),
    (["check", "invariant", "--object", "fN"], "form 'fN'"),
    (["check", "invariant", "--object", "RN"], "field 'RN'"),
    (["check", "vertical", "--object", "cN"], "chain 'cN'"),
    (["check", "semibasic", "--object", "fN"], "form 'fN'"),
    (["rho", "--chain", "cN", "--form", "f"], "chain 'cN'"),
    (["rho", "--chain", "chi", "--form", "fN"], "form 'fN'"),
    (["check", "cochain", "--chain", "cN", "--forms", "f"], "chain 'cN'"),
    (["check", "cochain", "--chain", "chi", "--forms", "fN"], "form 'fN'"),
    (["check", "cochain", "--chain", "chi", "--forms", "f", "--fields", "RN"], "field 'RN'"),
    (["certify", "surjective", "--chain", "chi", "--form", "fN"], "form 'fN'"),
]


@pytest.mark.parametrize("argv,named", WRONG_CHART)
def test_tensor_on_wrong_chart_is_input_error(argv, named, tmp_path, capsys):
    ws = tmp_path / "two_charts.lch"
    ws.write_text("""chart M { coords = [x, y, z] }
chart N { coords = [u, v] }
lie_algebra g { dim 1 }
vectorfield w on M = D(y)
action act { algebra g chart M generators = [w] orbit_dim 1 }
chain chi on M = D(y)
form f on M = d(y)
chain cN on N = D(u)
form fN on N = d(u)
vectorfield RN on N = D(v)
""")
    assert main(argv + ["--input", str(ws), "--action", "act"]) == 2
    assert capsys.readouterr().err == f"error: {named} is not on the action's chart\n"


def test_subgroup_of_another_algebra_is_input_error(tmp_path, capsys):
    ws = tmp_path / "two_algebras.lch"
    ws.write_text((FIXTURES / "rotations.lch").read_text()
                  + "lie_algebra ab2 { dim 2 }\n"
                  "subgroup s2 of ab2 { span = [1] component [[-1,0],[0,1]] }\n")
    assert main(["report", "--input", str(ws), "--action", "rot", "--points", "P",
                 "--components", "s2"]) == 2
    assert main(["cohomology", "--input", str(ws), "--algebra", "so3",
                 "--subgroup", "s2", "--degree", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == \
        ["error: subgroup 's2' is not a subgroup of 'so3'"] * 2


def test_verbose_header(capsys, monkeypatch):
    monkeypatch.setenv("LIECOCHAIN_COLOR", "0")
    code, out = run_cli(["validate", "--input", fixture("so3"), "-v"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("liecochain 0.1.0 | validate |")


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.lch"
    bad.write_text("chart M { coords = [x, x] }\n")
    assert main(["validate", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.lch:1" in err


def test_stdin_input(capsys, monkeypatch):
    import io
    text = (FIXTURES / "so3.lch").read_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out = run_cli(["cohomology", "--input", "-", "--algebra", "so3",
                         "--subgroup", "so2", "--degree", "2", "--format", "json"],
                        capsys)
    assert code == 0
    assert json.loads(out)["verdicts"][0]["dims"]["H"] == 1


def test_text_output_plain_without_tty(capsys, monkeypatch):
    monkeypatch.setenv("LIECOCHAIN_COLOR", "0")
    code, out = run_cli(["validate", "--input", fixture("intro")], capsys)
    assert code == 0
    assert "[pass] jacobi ab2" in out
    assert "\x1b[" not in out


def test_check_invariant_subcommand(capsys):
    code, out = run_cli(["check", "invariant", "--input", fixture("solvable"),
                         "--action", "act", "--object", "chi", "--format", "json"],
                        capsys)
    assert code == 0
    assert json.loads(out)["verdicts"][0]["verdict"] == "pass"
    # a coordinate form that is not invariant fails with a witness
    code, out = run_cli(["check", "invariant", "--input", fixture("solvable"),
                         "--action", "act", "--object", "omega", "--format", "json"],
                        capsys)
    assert code == 0  # omega = dx^dz / y is invariant
    code, out = run_cli(["check", "invariant", "--input", fixture("abelian_shear"),
                         "--action", "act", "--object", "alpha", "--format", "json"],
                        capsys)
    assert code == 1
    v = json.loads(out)["verdicts"][0]
    assert v["verdict"] == "fail" and "generator 1" in v["witness"]


def test_check_vertical_subcommand(capsys):
    code, out = run_cli(["check", "vertical", "--input", fixture("solvable"),
                         "--action", "act", "--object", "chi", "--points", "P",
                         "--format", "json"], capsys)
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["witness"] == "-y*K(z)"
    assert v["frame"] == [1, 2]


def test_check_semibasic_subcommand(capsys):
    text = (FIXTURES / "intro.lch").read_text() + "form mu on M = A(x)*d(x)\n"
    import tempfile, os
    fd, path = tempfile.mkstemp(suffix=".lch")
    os.write(fd, text.encode())
    os.close(fd)
    try:
        code, out = run_cli(["check", "semibasic", "--input", path,
                             "--action", "act", "--object", "mu",
                             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["verdicts"][0]["verdict"] == "pass"
        code, out = run_cli(["check", "semibasic", "--input", path,
                             "--action", "act", "--object", "alpha",
                             "--format", "json"], capsys)
        assert code == 1
    finally:
        os.unlink(path)


def test_text_uses_display_notation_json_uses_surface_syntax(capsys, monkeypatch):
    monkeypatch.setenv("LIECOCHAIN_COLOR", "0")
    argv = ["check", "cochain", "--input", fixture("solvable"), "--action", "act",
            "--chain", "chi", "--fields", "Z1", "--points", "P"]
    _, text_out = run_cli(argv, capsys)
    assert "∂x∧∂y" in text_out      # residual shown as y²·K(z)·∂x∧∂y
    _, json_out = run_cli(argv + ["--format", "json"], capsys)
    report = json.loads(json_out)
    stability = next(v for v in report["verdicts"] if v["check"] == "stability")
    assert stability["witness"] == "y^2*K(z)*D(x)^D(y)"
    assert not any(k.startswith("_") for v in report["verdicts"] for k in v)
    _, coh_text = run_cli(["cohomology", "--input", fixture("so3"), "--algebra", "so3",
                           "--subgroup", "so2", "--degree", "2"], capsys)
    assert "α¹∧α²" in coh_text


def test_cohomology_trivial_subgroup(capsys):
    _, out = run_cli(["cohomology", "--input", fixture("abelian_shear"),
                      "--algebra", "ab2", "--degree", "1", "--format", "json"], capsys)
    report = json.loads(out)
    assert report["verdicts"][0]["dims"] == {"A_rel": 2, "H": 2}


def test_rotation_action_validates(capsys):
    code, out = run_cli(["validate", "--input", fixture("rotations"),
                         "--format", "json"], capsys)
    assert code == 0
    report = json.loads(out)
    assert all(v["verdict"] in ("pass", "skipped") for v in report["verdicts"])


def test_rotation_isotropy_at_pole(capsys):
    code, out = run_cli(["isotropy", "--input", fixture("rotations"),
                         "--action", "rot", "--point", "P", "--format", "json"],
                        capsys)
    assert code == 0
    v = json.loads(out)["verdicts"][0]
    assert v["dims"] == {"isotropy": 1, "fixed_tangent": 1, "fixed_vertical": 0}
    assert v["witness"] == "e3"


def test_isotropy_evaluates_generators_once(capsys, monkeypatch):
    # the isotropy basis and both fixed spaces come from one evaluation
    from liecochain import action_analysis as aa

    calls = []
    original = aa._generators_at

    def counted(action, point, **kwargs):
        calls.append(point)
        return original(action, point, **kwargs)
    monkeypatch.setattr(aa, "_generators_at", counted)
    name, expected_code, argv = next(g for g in GOLDEN_RUNS if g[0] == "shear_isotropy")
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert (code, out) == (expected_code, (GOLDEN / f"{name}.json").read_text())
    assert len(calls) == 1
    code, out = run_cli(["isotropy", "--input", fixture("rotations"),
                         "--action", "rot", "--point", "P"], capsys)
    assert code == 0
    assert len(calls) == 2


@pytest.mark.parametrize("point,dims", [("O", (6, 0, 0)), ("P", (3, 1, 0))])
def test_isotropy_takes_no_symbolic_partial_and_no_dense_product(tmp_path, capsys, monkeypatch,
                                                                  point, dims):
    # so(4) on R^4 (the cli_workspaces rot4 of seed 12), at the origin and at
    # a generic point: the Jacobians come from the generators' jets, and
    # J G^T from integer rows (`linalg` has no dense product to take)
    from liecochain import scalar_field as sf
    monkeypatch.syspath_prepend(str(HERE.parent / "bench"))
    import cli_workspaces

    texts, _ = cli_workspaces.generate(12)
    path = tmp_path / "rot4.lch"
    path.write_text(texts["rot4"])
    calls = []
    partial = sf.ScalarExpr.partial
    monkeypatch.setattr(sf.ScalarExpr, "partial",
                        lambda *args: calls.append("partial") or partial(*args))
    code, out = run_cli(["isotropy", "--input", str(path), "--action", "rot",
                         "--point", point, "--format", "json"], capsys)
    assert code == 0
    got = json.loads(out)["verdicts"][0]["dims"]
    assert (got["isotropy"], got["fixed_tangent"], got["fixed_vertical"]) == dims
    assert calls == []


def test_report_with_components(capsys):
    # connected circle isotropy leaves a one-dimensional relative space
    code, out = run_cli(["report", "--input", fixture("rotations"),
                         "--action", "rot", "--points", "P", "--format", "json"],
                        capsys)
    assert code == 0
    dims = json.loads(out)["verdicts"][0]["dims"]
    assert dims == {"isotropy": 1, "A_rel": 1, "H": 1}
    # attaching the reflection component kills it: no invariant chain exists
    code, out = run_cli(["report", "--input", fixture("rotations"),
                         "--action", "rot", "--points", "P",
                         "--components", "o2", "--format", "json"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verdicts"][0]["dims"] == {"isotropy": 1, "A_rel": 0, "H": 0}
    assert report["verdicts"][-1]["witness"] == "no invariant chain can exist"


# -- one table for the workspace language and the command line ----------------


def _directive_argv(path, decl):
    """A check directive spelled as a command: one --slot per argument."""
    check = dsl.CHECKS[decl.kind]
    argv = [*check.command, "--input", str(path)]
    for slot in check.slots:
        if slot.name in decl.values:
            value = decl.values[slot.name]
            argv += [f"--{slot.name}", *(value if slot.many else [str(value)])]
    return argv


DIRECTIVES = [(path, decl) for path in sorted(FIXTURES.glob("*.lch"))
              for decl in dsl.parse(path.read_text(), path.name).checks
              if dsl.CHECKS[decl.kind].command]


@pytest.mark.parametrize("path,decl", DIRECTIVES,
                         ids=[f"{p.stem}:{d.span.line}:{d.kind}" for p, d in DIRECTIVES])
def test_fixture_directives_run_on_the_command_line(path, decl, capsys):
    assert main(_directive_argv(path, decl)) in (0, 1)



# -- a command builds only the declarations it reads ---------------------------


def _loaded(monkeypatch):
    """The workspaces `dsl.load` returns from here on, in call order."""
    loaded = []
    load = dsl.load

    def spy(*args):
        loaded.append(load(*args))
        return loaded[-1]
    monkeypatch.setattr(dsl, "load", spy)
    return loaded


def _built(ws):
    """The names of the fields, forms and chains of `ws` that are built."""
    return sorted(name for store in (ws.vector_fields, ws.forms, ws.chains) for name in store
                  if type(dict.__getitem__(store, name)) is not dsl._Pending)


# per fixture directive: the generators of its action and the tensors it names
DIRECTIVE_BUILDS = {
    "abelian_shear:21:invariant": ["chi", "w1", "w2"],
    "abelian_shear:22:cochain": ["R", "chi", "omega1", "omega2", "w1", "w2"],
    "abelian_shear:23:surjective": ["alpha", "chi1", "w1", "w2"],
    "abelian_shear:24:report": ["w1", "w2"],
    "intro:19:rho": ["alpha", "chi", "v1", "v2"],
    "intro:20:cochain": ["R1", "alpha", "chi", "nu", "v1", "v2"],
    "intro:21:surjective": ["cert", "chi", "v1", "v2"],
    "intro:22:report": ["v1", "v2"],
    "rotations:20:isotropy": ["r1", "r2", "r3"],
    "rotations:21:report": ["r1", "r2", "r3"],
    "rotations:22:report": ["r1", "r2", "r3"],
    "so3:14:cohomology": [],
    "so3:15:cohomology": [],
    "so3:16:cohomology": [],
    "solvable:25:invariant": ["chi", "v1", "v2"],
    "solvable:26:vertical": ["chi", "v1", "v2"],
    "solvable:27:cochain": ["Z1", "Z2", "chi", "omega", "v1", "v2"],
    "solvable:30:report": ["v1", "v2"],
}


@pytest.mark.parametrize("path,decl", DIRECTIVES,
                         ids=[f"{p.stem}:{d.span.line}:{d.kind}" for p, d in DIRECTIVES])
def test_fixture_directives_build_what_they_read(path, decl, capsys, monkeypatch):
    loaded = _loaded(monkeypatch)
    assert main(_directive_argv(path, decl)) in (0, 1)
    [ws] = loaded
    if decl.kind == "validate":   # validate loads, then builds every declaration
        assert _built(ws) == sorted([*ws.vector_fields, *ws.forms, *ws.chains])
    else:
        assert _built(ws) == DIRECTIVE_BUILDS[f"{path.stem}:{decl.span.line}:{decl.kind}"]


def test_benchmark_commands_build_what_they_read(monkeypatch):
    # the cli_workspaces job list of seed 12: its 54 commands' workspaces
    # declare 313 tensors in all, and the commands build 206 of them
    # (validate all of its own, every other command what it reads)
    monkeypatch.syspath_prepend(str(HERE.parent / "bench"))
    import cli_workspaces

    _, plan = cli_workspaces.generate(12)
    loaded = _loaded(monkeypatch)
    jobs = cli_workspaces.make_jobs(None, plan)
    assert not cli_workspaces.check(jobs, [job.run() for job in jobs], plan)
    assert len(jobs) == len(loaded) == 54
    assert sum(len(ws.vector_fields) + len(ws.forms) + len(ws.chains) for ws in loaded) == 313
    assert sum(len(_built(ws)) for ws in loaded) == 206


def test_check_invariant_builds_the_generators_and_the_object(tmp_path, capsys, monkeypatch):
    path = tmp_path / "rotations.lch"
    path.write_text((FIXTURES / "rotations.lch").read_text() + (
        "chain chi on M = 1/(x^2 + y^2 + z^2)*(x*D(y)^D(z) - y*D(x)^D(z) + z*D(x)^D(y))\n"
        "form area on M = x*d(y)^d(z) - y*d(x)^d(z) + z*d(x)^d(y)\n"
        "vectorfield radial on M = x*D(x) + y*D(y) + z*D(z)\n"))
    loaded = _loaded(monkeypatch)
    assert main(["check", "invariant", "--input", str(path), "--action", "rot",
                 "--object", "chi"]) == 0
    assert _built(loaded[0]) == ["chi", "r1", "r2", "r3"]


UNREAD_POWER_WS = """chart M { coords = [x, y] }
lie_algebra ab { dim 1 }
vectorfield v on M = D(x)
action act { algebra ab chart M generators = [v] orbit_dim 1 }
point P on M = (0, 1)
form w on M = (x + y + 1)^3000*d(x)
"""


def test_unread_power_is_refused_only_when_read(tmp_path, capsys, monkeypatch):
    # validate refuses it at once (test_oversized_power_refused_at_once);
    # commands that do not read w answer, and one that does gets parse's error
    path = tmp_path / "pow.lch"
    path.write_text(UNREAD_POWER_WS)
    loaded = _loaded(monkeypatch)
    assert main(["cohomology", "--input", str(path), "--algebra", "ab", "--degree", "1"]) == 0
    assert main(["report", "--input", str(path), "--action", "act", "--points", "P"]) == 0
    assert capsys.readouterr().err == ""
    assert [_built(ws) for ws in loaded] == [[], ["v"]]
    with pytest.raises(dsl.ParseError) as parsed:
        dsl.parse(UNREAD_POWER_WS, str(path))
    assert str(parsed.value).startswith(f"{path}:6:31: raising a 3-term numerator")
    assert main(["check", "invariant", "--input", str(path), "--action", "act",
                 "--object", "w"]) == 2
    assert capsys.readouterr().err == f"error: {parsed.value}\n"


# -- one reader: no recursion per term or declaration, one first error --------

LONG_HEAD = """chart M { coords = [x, y] }
lie_algebra g { dim 1 }
vectorfield v on M = D(y)
action a { algebra g chart M generators = [v] orbit_dim 1 }
point P on M = (1, 2)
"""


@pytest.mark.parametrize("decls", [
    "form f on M = (" + " + ".join(["x"] * 3000) + ")*d(x)",
    "form f on M = " + "*".join(["x"] * 3000) + "*d(x)",
    "form f0 on M = d(x)\n" + "\n".join(f"form f{i} on M = f{i - 1} + x*d(x)"
                                         for i in range(1, 3000)) + "\nform f on M = f2999",
], ids=["sum", "product", "chain"])
def test_long_expressions_and_chains_build_without_recursion(decls, tmp_path, capsys):
    # 3,000 terms, factors or declarations, each reading the one before
    path = tmp_path / "long.lch"
    path.write_text(LONG_HEAD + decls + "\n")
    for argv in (["validate"], ["check", "invariant", "--action", "a", "--object", "f"],
                 ["report", "--action", "a", "--points", "P"]):
        assert main(argv + ["--input", str(path)]) in (0, 1)
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("opener,closer", [("(", ")"), ("-", ""), ("D(", ", x)"),
                                           ("wedge(", ", d(y))")])
def test_deep_nesting_is_an_input_error(opener, closer, tmp_path, capsys):
    path = tmp_path / "deep.lch"
    path.write_text(LONG_HEAD + f"form f on M = {opener * 250}x{closer * 250}*d(x)\n")
    for argv in (["validate"], ["check", "invariant", "--action", "a", "--object", "f"],
                 ["report", "--action", "a", "--points", "P"]):
        assert main(argv + ["--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}:6:{15 + len(opener) * dsl.MAX_NESTING}: expression nested more than")


def test_every_command_reports_the_same_first_error(tmp_path, capsys):
    # a zero divisor on line 5 and a syntax error on line 6: the walk's
    # error comes first, whether the command reads f or not
    path = tmp_path / "two.lch"
    path.write_text("chart M { coords = [x, y] }\nlie_algebra g { dim 1 }\n"
                    "vectorfield v on M = D(x)\n"
                    "action a { algebra g chart M generators = [v] orbit_dim 1 }\n"
                    "form f on M = x/(y - y)*d(x)\nform h on M = )\n")
    errors = []
    for argv in (["validate"], ["check", "invariant", "--action", "a", "--object", "f"]):
        assert main(argv + ["--input", str(path)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors == [f"error: {path}:6:15: unexpected token ')' in expression\n"] * 2


def test_validate_large_abelian_algebra_at_once(tmp_path, capsys):
    # only triples with a bracket that can fail are visited: none here
    path = tmp_path / "ab2000.lch"
    path.write_text("lie_algebra ab { dim 2000 }\n")
    start = time.perf_counter()
    assert main(["validate", "--input", str(path)]) == 0
    assert time.perf_counter() - start < 1
    assert "[pass] jacobi ab" in capsys.readouterr().out


REJECTED = [
    # a flag of another check
    ["check", "invariant", "--input", fixture("solvable"), "--action", "act",
     "--object", "chi", "--forms", "zzz", "--chain", "nope"],
    # verticality is a property of chains
    ["check", "vertical", "--input", fixture("solvable"), "--action", "act",
     "--object", "omega"],
    ["check", "cochain", "--input", fixture("solvable"), "--action", "act",
     "--forms", "omega"],
    ["report", "--input", fixture("rotations"), "--action", "rot", "--points", "P",
     "--components"],
]


@pytest.mark.parametrize("argv", REJECTED, ids=["extra_flags", "vertical_form",
                                                "cochain_no_chain", "components_no_name"])
def test_argv_outside_the_table_is_rejected(argv, capsys):
    assert main(argv) == 2


def test_readme_command_lines_parse():
    readme = (HERE.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.strip().splitlines():
        if line.startswith("liecochain "):
            commands.append(line)
        else:
            commands[-1] += " " + line      # a continued command
    kinds = set()
    for line in commands:
        for token in ("[", "]", "..."):
            line = line.replace(token, " ")
        kinds.add(cli._build_parser().parse_args(line.split()[1:]).kind)
    assert kinds == {kind for kind, check in dsl.CHECKS.items() if check.command}


# -- check cochain failure paths, pinned byte for byte ------------------------

COCHAIN_WS = """chart M { coords = [x, y, z] }
function K(z)
lie_algebra solv2 {
  dim 2
  bracket [1,2] = -e2
}
vectorfield v1 on M = x*D(x) + y*D(y)
vectorfield v2 on M = D(x)
action act { algebra solv2 chart M generators = [v1, v2] orbit_dim 2 }
chain chi on M = K(z)*y^2*D(x)^D(y)
chain twisted on M = y*D(x)^D(y)
chain slanted on M = y*D(x)^D(z)
vectorfield Z1 on M = y*D(y)
vectorfield W on M = x*D(z)
vectorfield S on M = z*D(z)
form omega on M = (1/y)*d(x)^d(z)
form alpha on M = d(x)
form gamma on M = (1/y)*d(x)
point P on M = (0, 1, 0)
"""

COCHAIN_FAILURES = [
    # W is not invariant ([v2, W] = D(z)), nor is alpha (L_v1 dx = dx)
    ("cochain_field_not_invariant", 1, ["--chain", "chi", "--forms", "omega", "alpha",
                                        "--fields", "Z1", "W", "S"]),
    # L_S chi replaced by one with a D(x)^D(z) part (see below)
    ("cochain_not_proportional", 1, ["--chain", "chi", "--forms", "omega",
                                     "--fields", "Z1", "S"]),
    # L_v1 (y D(x)^D(y)) = -y D(x)^D(y)
    ("cochain_chain_not_invariant", 1, ["--chain", "twisted", "--forms", "omega",
                                        "--fields", "Z1", "S"]),
    # y D(x)^D(z) is invariant, but not a multiple of v1^v2 = -y D(x)^D(y)
    ("cochain_chain_not_vertical", 1, ["--chain", "slanted", "--forms", "omega",
                                       "--fields", "Z1", "S"]),
]


def _skew_lie_derivative(monkeypatch):
    """For an invariant R and an invariant vertical chain J w, L_R (J w) =
    R(J) w is always a multiple of the chain, so the NotProportional path
    is reached by adding y D(x)^D(z) to L_S chi."""
    from liecochain import chart_calculus as cc
    from liecochain import dsl

    ws = dsl.parse(COCHAIN_WS)
    s_field, extra = ws.vector_fields["S"], ws.chains["slanted"]
    original = cc.lie_derivative_multivector

    def skewed(x, chi):
        out = original(x, chi)
        return out + extra if x == s_field else out
    monkeypatch.setattr(cc, "lie_derivative_multivector", skewed)


@pytest.mark.parametrize("name,expected_code,argv", COCHAIN_FAILURES,
                         ids=[c[0] for c in COCHAIN_FAILURES])
def test_check_cochain_failure_paths(name, expected_code, argv, tmp_path, capsys,
                                     monkeypatch):
    ws = tmp_path / "cochain.lch"
    ws.write_text(COCHAIN_WS)
    if name == "cochain_not_proportional":
        _skew_lie_derivative(monkeypatch)
    code, out = run_cli(["check", "cochain", "--input", str(ws), "--action", "act",
                         "--points", "P", "--format", "json"] + argv, capsys)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_check_cochain_runs_each_precondition_once(capsys, monkeypatch):
    # one invariance check each for the chain, Z1, Z2 and [Z1, Z2], each
    # passing on the cleared numerators alone; L_R chi once per field
    from liecochain import action_analysis as aa
    from liecochain import chart_calculus as cc

    calls = {}

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("check_invariant_multivector", "check_vertical"):
        count(aa, name)
    count(cc, "lie_derivative_multivector")
    code, out = run_cli(["check", "cochain", "--input", fixture("solvable"),
                         "--action", "act", "--chain", "chi", "--forms", "omega",
                         "--fields", "Z1", "Z2", "--points", "P", "--format", "json"],
                        capsys)
    assert code == 1
    assert out == (GOLDEN / "solvable_cochain.json").read_text()
    assert calls == {"check_invariant_multivector": 4, "check_vertical": 1,
                     "lie_derivative_multivector": 2}


def test_parser_reused_across_calls(capsys):
    # one process: a usage error, --help, then a golden command
    assert main(["check", "cochain", "--input", fixture("intro"), "--bogus"]) == 2
    assert main(["--help"]) == 0
    assert "usage: liecochain" in capsys.readouterr().out
    name, expected_code, argv = next(g for g in GOLDEN_RUNS if g[0] == "intro_cochain")
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == expected_code
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_timing_reported_when_asked(capsys, monkeypatch):
    monkeypatch.setenv("LIECOCHAIN_TIMING", "1")
    name, expected_code, argv = next(g for g in GOLDEN_RUNS if g[0] == "intro_cochain")
    code, out = run_cli(argv + ["--format", "json"], capsys)
    assert code == expected_code
    elapsed = json.loads(out)["timing_ms"]
    assert type(elapsed) is int and elapsed >= 0
    assert out == (GOLDEN / f"{name}.json").read_text().replace(
        '"timing_ms": 0', f'"timing_ms": {elapsed}')


# -- text output, pinned byte for byte ----------------------------------------
#
# Text with -v and no color, for every command pinned in JSON above.  The
# header names the input file; it is written relative to the tests directory.


@pytest.mark.parametrize("name,expected_code,argv",
                         GOLDEN_RUNS, ids=[g[0] for g in GOLDEN_RUNS])
def test_golden_text(name, expected_code, argv, capsys, monkeypatch):
    monkeypatch.setenv("LIECOCHAIN_COLOR", "0")
    code, out = run_cli(argv + ["-v"], capsys)
    assert code == expected_code
    assert out.replace(str(HERE), "tests") == \
        (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,expected_code,argv", COCHAIN_FAILURES,
                         ids=[c[0] for c in COCHAIN_FAILURES])
def test_check_cochain_failure_paths_text(name, expected_code, argv, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.setenv("LIECOCHAIN_COLOR", "0")
    ws = tmp_path / "cochain.lch"
    ws.write_text(COCHAIN_WS)
    if name == "cochain_not_proportional":
        _skew_lie_derivative(monkeypatch)
    code, out = run_cli(["check", "cochain", "--input", str(ws), "--action", "act",
                         "--points", "P", "-v"] + argv, capsys)
    assert code == expected_code
    assert out.replace(str(tmp_path), "tmp") == \
        (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# -- failure verdicts and edge paths of the other checks, pinned byte for byte

VALIDATE_WS = """chart M { coords = [x, y] }
chart N { coords = [u, v] }
lie_algebra ab2 { dim 2 }
lie_algebra u1 { dim 1 }
vectorfield X1 on M = D(x)
vectorfield X2 on M = D(y) + x*D(x)
vectorfield R on M = x*D(y) - y*D(x)
vectorfield U on N = D(u)
action sheared { algebra ab2 chart M generators = [X1, X2] orbit_dim 2 }
action pinned { algebra u1 chart M generators = [R] orbit_dim 1 }
action doubled { algebra ab2 chart N generators = [U, U] orbit_dim 1 }
point O on M = (0, 0)
"""

EDGE_WS = """chart M { coords = [x, y] }
function K(y)
lie_algebra ab2 { dim 2 }
vectorfield X on M = x*D(x)
vectorfield Y on M = D(y)
vectorfield F on M = 1/x*D(x)
vectorfield G on M = K(y)*D(x)
vectorfield T on M = D(x)
action scaled { algebra ab2 chart M generators = [X, Y] orbit_dim 1 }
action poled { algebra ab2 chart M generators = [F, Y] orbit_dim 1 }
action unresolved { algebra ab2 chart M generators = [G, Y] orbit_dim 1 }
action planar { algebra ab2 chart M generators = [T, Y] orbit_dim 1 }
chain chi on M = D(x)
chain up on M = D(y)
form area on M = d(x)^d(y)
form slope on M = x*d(x)
form twice on M = 2*d(x)
point P on M = (0, 1)
"""

JACOBI_WS = """lie_algebra broken {
  dim 3
  bracket [1,2] = e3
  bracket [1,3] = e1
  bracket [2,3] = e1
}
"""

FAILURE_RUNS = [
    # [X1, X2] = D(x), not 0; R vanishes at O; U, U has the kernel e1 - e2,
    # and N has no sample points
    ("validate_failures", 1, VALIDATE_WS, ["validate"]),
    # y D(x)^D(z) is invariant, but not a multiple of v1^v2 = -y D(x)^D(y)
    ("vertical_not_proportional", 1, COCHAIN_WS,
     ["check", "vertical", "--action", "act", "--object", "slanted", "--points", "P"]),
    # v1^v2 = -y D(x)^D(y) vanishes at y = 0
    ("vertical_no_frame", 1, COCHAIN_WS + "point O on M = (0, 0, 0)\n",
     ["check", "vertical", "--action", "act", "--object", "chi", "--points", "O"]),
    # [v2, W] = D(z)
    ("invariant_field_fails", 1, COCHAIN_WS,
     ["check", "invariant", "--action", "act", "--object", "W"]),
    # L_v1 (y D(x)^D(y)) = -y D(x)^D(y)
    ("invariant_chain_fails", 1, COCHAIN_WS,
     ["check", "invariant", "--action", "act", "--object", "twisted"]),
    # x D(x) frames D(x) symbolically, but vanishes at P; D(y) does not frame it
    ("vertical_frame_symbolic", 0, EDGE_WS,
     ["check", "vertical", "--action", "scaled", "--object", "chi"]),
    ("vertical_frame_vanishes", 1, EDGE_WS,
     ["check", "vertical", "--action", "scaled", "--object", "chi", "--points", "P"]),
    # 1/x D(x) has a pole at P, K(y) D(x) has no value there
    ("vertical_frame_pole", 1, EDGE_WS,
     ["check", "vertical", "--action", "poled", "--object", "chi", "--points", "P"]),
    ("vertical_later_frame", 0, EDGE_WS,
     ["check", "vertical", "--action", "poled", "--object", "up", "--points", "P"]),
    ("vertical_frame_unresolved", 1, EDGE_WS,
     ["check", "vertical", "--action", "unresolved", "--object", "chi", "--points", "P"]),
    # [e2, [e3, e1]] = e3, and the other two Jacobi terms vanish
    ("validate_jacobi", 1, JACOBI_WS, ["validate"]),
    # orbit_dim 1 declared for two translations: i_D(y) dy = 1
    ("rho_not_semibasic", 1, EDGE_WS,
     ["rho", "--action", "planar", "--chain", "chi", "--form", "area"]),
    ("rho_form_not_invariant", 1, EDGE_WS,
     ["rho", "--action", "planar", "--chain", "chi", "--form", "slope"]),
    ("surjective_pairing_2", 1, EDGE_WS,
     ["certify", "surjective", "--action", "planar", "--chain", "chi", "--form", "twice"]),
    ("surjective_wrong_degree", 1, EDGE_WS,
     ["certify", "surjective", "--action", "planar", "--chain", "chi", "--form", "area"]),
    # with no form and no field, the chain's own verdict is the one reported
    ("cochain_chain_only", 0, COCHAIN_WS,
     ["check", "cochain", "--action", "act", "--chain", "chi", "--points", "P"]),
    ("cochain_chain_only_fails", 1, COCHAIN_WS,
     ["check", "cochain", "--action", "act", "--chain", "twisted", "--points", "P"]),
    ("cochain_chain_vanishes", 1, COCHAIN_WS + "chain nothing on M = 0*D(y)^D(z)\n",
     ["check", "cochain", "--action", "act", "--chain", "nothing", "--forms", "omega"]),
    # below the chain's degree 2, i_chi w = 0: the residual of gamma is
    # i_chi d(gamma) = K(z), that of the closed beta = d(z) is 0; alpha is
    # not invariant
    ("cochain_degree", 1, COCHAIN_WS + "form beta on M = d(z)\n",
     ["check", "cochain", "--action", "act", "--chain", "chi",
      "--forms", "alpha", "gamma", "beta"]),
]


@pytest.mark.parametrize("name,expected_code,text,argv", FAILURE_RUNS,
                         ids=[c[0] for c in FAILURE_RUNS])
def test_failure_verdicts_golden(name, expected_code, text, argv, tmp_path, capsys,
                                 monkeypatch):
    monkeypatch.setenv("LIECOCHAIN_COLOR", "0")
    ws = tmp_path / "failure.lch"
    ws.write_text(text)
    argv = argv + ["--input", str(ws)]
    code = main(argv + ["--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (expected_code, "")
    assert out == (GOLDEN / f"{name}.json").read_text()
    code = main(argv + ["-v"])
    out, err = capsys.readouterr()
    assert (code, err) == (expected_code, "")
    assert out.replace(str(tmp_path), "tmp") == \
        (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


# -- refusals of the check layer: exit 2, one error line, no verdict ----------

REFUSALS = [
    # a 1-chain is never a multiple of a product of two generators
    (["check", "vertical", "--action", "act", "--object", "flat"],
     "chain degree 1 differs from orbit dimension 2"),
    # beta = d(z) is invariant, and has a lower degree than the 2-chain chi
    (["rho", "--action", "act", "--chain", "chi", "--form", "beta"],
     "form degree 1 below chain degree 2"),
]


@pytest.mark.parametrize("argv,message", REFUSALS,
                         ids=["vertical_degree", "rho_degree"])
def test_check_layer_refusals(argv, message, tmp_path, capsys):
    ws = tmp_path / "refusal.lch"
    ws.write_text(COCHAIN_WS + "chain flat on M = D(x)\nform beta on M = d(z)\n")
    for output in (["--format", "json"], ["-v"]):
        assert main(argv + ["--input", str(ws)] + output) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["cohomology", "--input", fixture("so3"), "--algebra", "so3", "--degree", "2",
     "--format", "json"],
    ["validate", "-v", "--input", fixture("so3")],
    ["--help"],
], ids=["cohomology_json", "validate_text", "help"])
def test_closed_output_pipe_is_not_an_error(argv, unbuffered):
    # the reader is gone before the command starts: it prints no traceback
    # and exits with its verdicts' code
    import os
    import subprocess
    import sys
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "liecochain", *argv], stdout=w,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, b"")
