import hashlib
from pathlib import Path

import pytest

from liecochain import chart_calculus as cc
from liecochain import dsl
from liecochain import linalg
from liecochain import scalar_field as sf

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
FIXTURE_NAMES = ["intro", "solvable", "abelian_shear", "so3"]


def load(name):
    text = (FIXTURES / f"{name}.lch").read_text()
    return dsl.parse(text, f"{name}.lch")


def test_parse_intro_workspace():
    ws = load("intro")
    assert set(ws.charts) == {"M"}
    assert set(ws.actions) == {"act"}
    assert set(ws.forms) == {"alpha", "nu", "cert"}
    assert set(ws.chains) == {"chi"}
    assert len(ws.checks) == 5
    chi = ws.chains["chi"]
    assert chi.degree == 2 and chi.coeffs == {(1, 2): sf.ONE}
    alpha = ws.forms["alpha"]
    assert alpha.coeffs.keys() == {(0, 1), (0, 2), (1, 2)}
    assert sf.equals(alpha.coefficient((1, 2)), sf.function("c", ("x",)))


def test_parse_builds_engine_objects():
    ws = load("solvable")
    action = ws.actions["act"].spec
    assert action.orbit_dim == 2
    assert action.algebra.brackets[(0, 1)] == {1: -1}
    v1 = ws.vector_fields["v1"]
    assert sf.equals(v1.components[0], sf.coordinate("x"))
    omega = ws.forms["omega"]
    assert sf.equals(omega.coefficient((0, 2)), 1 / sf.coordinate("y"))
    assert ws.points["Q"] == ("M", (2, -1, 5))


def test_vectorfield_is_the_degree_one_chain():
    ws = dsl.parse("chart M { coords = [x, y] }\n"
                   "vectorfield v on M = y*D(x)\nchain c on M = y*D(x)\n")
    assert ws.vector_fields["v"] == ws.chains["c"]


def test_parse_subgroups():
    ws = load("so3")
    so2 = ws.subgroups["so2"]
    assert so2.spec.basis == ((0, 0, 1),)
    o2 = ws.subgroups["o2"]
    assert len(o2.spec.component_reps) == 1
    assert o2.spec.component_reps[0][0][0] == -1


def test_wedge_call_and_operator_agree():
    text = """chart M { coords = [x, y] }
chain c1 on M = wedge(D(x), D(y))
chain c2 on M = D(x)^D(y)
"""
    ws = dsl.parse(text)
    assert ws.chains["c1"] == ws.chains["c2"]


def test_scalar_precedence():
    text = """chart M { coords = [x, y] }
function K(y)
form f on M = K(y)*x^2*d(x)
form g on M = (K(y)*x)^2*d(x)
"""
    ws = dsl.parse(text)
    K, xx = sf.function("K", ("y",)), sf.coordinate("x")
    assert sf.equals(ws.forms["f"].coefficient((0,)), K * xx ** 2)
    assert sf.equals(ws.forms["g"].coefficient((0,)), (K * xx) ** 2)


def test_derivative_syntax():
    text = """chart M { coords = [x, z] }
function K(z)
form f on M = D(K(z), z)*d(x)
form g on M = D(D(K(z), z), z)*d(x)
form h on M = D(x^2, x)
"""
    ws = dsl.parse(text)
    K = sf.function("K", ("z",))
    assert sf.equals(ws.forms["f"].coefficient((0,)), sf.partial(K, "z"))
    assert sf.equals(ws.forms["g"].coefficient((0,)), sf.partial(sf.partial(K, "z"), "z"))
    assert sf.equals(ws.forms["h"].coefficient(()), 2 * sf.coordinate("x"))


def test_zero_degree_and_cancellation():
    text = """chart M { coords = [x, y] }
form f on M = x*y - y*x
form g on M = d(x)^d(y) - d(x)^d(y)
"""
    ws = dsl.parse(text)
    assert ws.forms["f"].degree == 0 and ws.forms["f"].is_zero()
    assert ws.forms["g"].is_zero()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_round_trip_identity(name):
    ws = load(name)
    rendered = dsl.render(ws)
    ws2 = dsl.parse(rendered, "<render>")
    assert ws2 == ws
    assert dsl.render(ws2) == rendered


def test_render_names_the_declared_chart():
    # N has M's coordinates, so its tensors equal M's; each line still names
    # the chart its declaration names, g reading f on M included
    text = ("chart M { coords = [x, y] }\nchart N { coords = [x, y] }\n"
            "form f on M = x*d(y)\nform h on N = x*d(y)\nform g on N = f + x*d(x)\n"
            "chain c on N = D(x)\nvectorfield v on N = y*D(x)\n")
    ws = dsl.parse(text)
    rendered = dsl.render(ws)
    assert [line.split(" = ")[0] for line in rendered.splitlines()[2:]] == [
        "form f on M", "form h on N", "form g on N", "chain c on N", "vectorfield v on N"]
    assert dsl.render(dsl.parse(rendered)) == rendered


def test_render_deterministic():
    ws = load("solvable")
    assert dsl.render(ws) == dsl.render(load("solvable"))


# --- error corpus: each entry is (text, expected exception, expected line) ---

GOOD_HEADER = "chart M { coords = [x, y, z] }\nfunction K(z)\n"
# an action, two subgroups and two points; a check directive after it is on CHECK_LINE
CHECK_HEADER = GOOD_HEADER + (
    "lie_algebra g { dim 1 }\nvectorfield v on M = D(x)\n"
    "action act { algebra g chart M generators = [v] orbit_dim 1 }\n"
    "subgroup s of g { span = [1] }\nsubgroup t of g { span = [] }\n"
    "point P on M = (1, 2, 3)\npoint Q on M = (0, 0, 0)\n")
CHECK_LINE = CHECK_HEADER.count("\n") + 1
# a chain and a form on M, and a form, chain and field on a second chart N
OTHER_CHART_HEADER = CHECK_HEADER + (
    "chain chi on M = D(x)\nform f on M = d(x)\nchart N { coords = [u] }\n"
    "form w on N = d(u)\nchain c on N = D(u)\nvectorfield R on N = u*D(u)\n")

ERROR_CORPUS = [
    # tokenizer and syntax
    ("chart M { coords = [x, y] }\nform f on M = x ? y", dsl.ParseError, 2),
    ("chart M { coords = [x] \n", dsl.ParseError, 1),
    ("gibberish here", dsl.ParseError, 1),
    ("chart M { coords = [] }", dsl.ParseError, 1),
    ("chart M { coords = [x, x] }", dsl.DuplicateName, 1),
    ("chart d { coords = [x] }", dsl.ParseError, 1),
    (GOOD_HEADER + "lie_algebra g { dim 0 }", dsl.ParseError, 3),
    (GOOD_HEADER + "lie_algebra g { dim 2 bracket [1,1] = e2 }", dsl.ParseError, 3),
    (GOOD_HEADER + "lie_algebra g { dim 2 bracket [2,1] = e2 }", dsl.ParseError, 3),
    (GOOD_HEADER + "lie_algebra g { dim 2 bracket [1,3] = e2 }", dsl.ParseError, 3),
    (GOOD_HEADER + "lie_algebra g { dim 2 bracket [1,2] = e5 }", dsl.ParseError, 3),
    (GOOD_HEADER + "lie_algebra g {\n dim 2\n bracket [1,2] = e1\n bracket [1,2] = e2 }",
     dsl.DuplicateName, 6),
    # references
    ("vectorfield v on M = D(x)", dsl.UnknownReference, 1),
    (GOOD_HEADER + "vectorfield v on M = D(w)", dsl.UnknownReference, 3),
    (GOOD_HEADER + "form f on M = K(z)*d(w)", dsl.UnknownReference, 3),
    (GOOD_HEADER + "form f on M = a(x)", dsl.UnknownReference, 3),
    (GOOD_HEADER + "form f on M = w + x", dsl.UnknownReference, 3),
    (GOOD_HEADER + "chain c on N = D(x)", dsl.UnknownReference, 3),
    (GOOD_HEADER + "point P on M = (1, 2, 3)\ncheck report(act, points=[P])",
     dsl.UnknownReference, 4),
    (GOOD_HEADER + "check cohomology(g, 2)", dsl.UnknownReference, 3),
    # duplicates
    (GOOD_HEADER + "function K(z)", dsl.DuplicateName, 3),
    (GOOD_HEADER + "form f on M = x\nform f on M = y", dsl.DuplicateName, 4),
    (GOOD_HEADER + "point P on M = (1,2,3)\npoint P on M = (0,0,0)",
     dsl.DuplicateName, 4),
    # one namespace for declared names and chart coordinates
    (GOOD_HEADER + "vectorfield T on M = D(x)\nchain T on M = D(y)", dsl.DuplicateName, 4),
    (GOOD_HEADER + "chain x on M = D(y)", dsl.DuplicateName, 3),
    (GOOD_HEADER + "form f on M = x\nchart N { coords = [u, f] }", dsl.DuplicateName, 4),
    # arity and typing
    (GOOD_HEADER + "function g(z)\nform f on M = K(x)", dsl.ArityMismatch, 4),
    (GOOD_HEADER + "point P on M = (1, 2)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "vectorfield v on M = x", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "vectorfield v on M = D(x)^D(y)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = d(x) + d(x)^d(y)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = d(x)^D(y)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "chain c on M = D(x)*D(y)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = x/(y - y)", dsl.ParseError, 3),
    (GOOD_HEADER + "form f on M = d(x)^2", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = x^y", dsl.ParseError, 3),
    (GOOD_HEADER + "lie_algebra g { dim 2 }\nvectorfield v on M = D(x)\n"
     "action a { algebra g chart M generators = [v] orbit_dim 1 }",
     dsl.ArityMismatch, 5),
    (GOOD_HEADER + "lie_algebra g { dim 1 }\nvectorfield v on M = D(x)\n"
     "action a { algebra g chart M generators = [v] orbit_dim 3 }",
     dsl.ArityMismatch, 5),
    (GOOD_HEADER + "lie_algebra g { dim 1 }\nvectorfield v on M = D(x)\n"
     "action a { algebra g chart M generators = [v] orbit_dim 1 }\n"
     "check report(a, wrong=[v])", dsl.ArityMismatch, 6),
    (GOOD_HEADER + "check cohomology(K, 2)", dsl.UnknownReference, 3),
    (GOOD_HEADER + "subgroup s of nosuch { span = [1] }", dsl.UnknownReference, 3),
    (GOOD_HEADER + "lie_algebra g { dim 2 }\nsubgroup s of g { span = [3] }",
     dsl.ParseError, 4),
    (GOOD_HEADER + "lie_algebra g { dim 2 }\nsubgroup s of g {\n span = [1]\n"
     " component [[1,0],[0,1],[0,0]] }", dsl.ArityMismatch, 6),
    # arithmetic failures surface as parse errors with spans
    (GOOD_HEADER + "point P on M = (1/0, 2, 3)", dsl.ParseError, 3),
    (GOOD_HEADER + "form f on M = (x - x)^-1", dsl.ParseError, 3),
    (GOOD_HEADER + "form f on M = d(x)^d(y)^d(x)^d(y)", dsl.ParseError, 3),
    (GOOD_HEADER + "lie_algebra g { dim 2 bracket [1,2] = 1/0*e1 }", dsl.ParseError, 3),
    # comma lists: a comma between entries, none after the last
    (CHECK_HEADER + "check report(act, points=[P Q])", dsl.ParseError, CHECK_LINE),
    (CHECK_HEADER + "check report(act, points=[P, Q,])", dsl.ParseError, CHECK_LINE),
    (GOOD_HEADER + "lie_algebra g { dim 2 }\nsubgroup s of g { span = [1 2] }",
     dsl.ParseError, 4),
    (GOOD_HEADER + "lie_algebra g { dim 2 }\nsubgroup s of g { span = [1, 2,] }",
     dsl.ParseError, 4),
    (GOOD_HEADER + "point P on M = (1, 2, 3,)", dsl.ParseError, 3),
    # check arguments follow dsl.CHECKS, as on the command line
    (CHECK_HEADER + "chart N { coords = [u] }\npoint R on N = (0)\n"
     "check report(act, points=[P, R])", dsl.ArityMismatch, CHECK_LINE + 2),
    (CHECK_HEADER + "chart N { coords = [u] }\npoint R on N = (0)\n"
     "check isotropy(act, R)", dsl.ArityMismatch, CHECK_LINE + 2),
    (CHECK_HEADER + "check report(act)", dsl.ArityMismatch, CHECK_LINE),
    (CHECK_HEADER + "check report(act, points=[])", dsl.ArityMismatch, CHECK_LINE),
    (CHECK_HEADER + "check report(act, points=[P], components=[])",
     dsl.ArityMismatch, CHECK_LINE),
    (CHECK_HEADER + "check report(act, points=[P], components=[s, t])",
     dsl.ArityMismatch, CHECK_LINE),
    (CHECK_HEADER + "check report(act, points=[P], components=[nosuch])",
     dsl.UnknownReference, CHECK_LINE),
    (CHECK_HEADER + "lie_algebra h { dim 2 }\nsubgroup u of h { span = [1] }\n"
     "check report(act, points=[P], components=[u])", dsl.ArityMismatch, CHECK_LINE + 2),
    (CHECK_HEADER + "lie_algebra h { dim 2 }\ncheck cohomology(h, s, 1)",
     dsl.ArityMismatch, CHECK_LINE + 1),
    # a form, chain or field on a chart other than the action's
    *((OTHER_CHART_HEADER + line, dsl.ArityMismatch, CHECK_LINE + 6) for line in (
        "check invariant(act, c)", "check invariant(act, w)", "check invariant(act, R)",
        "check vertical(act, c)", "check semibasic(act, w)", "check rho(act, chi, w)",
        "check cochain(act, c, forms=[f])", "check cochain(act, chi, forms=[w])",
        "check cochain(act, chi, forms=[f], fields=[R])",
        "check lambda(act, chi, R)")),
    # the expression rules: kinds, leading minus signs and declared tensors
    (GOOD_HEADER + "form f on M = d(x) + D(x)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = x + d(x)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = x/d(x)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = -x/-d(y)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = wedge(x, d(y))", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = D(d(x), x)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = D(x)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "chain c on M = d(x)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "form f on M = -d(x) * d(y)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "chain c on M = -D(x) - -x*D(x)^D(y)", dsl.ArityMismatch, 3),
    (GOOD_HEADER + "chart N { coords = [u] }\nform w on N = d(u)\nform f on M = x*w",
     dsl.ArityMismatch, 5),
    (GOOD_HEADER + "chart N { coords = [u] }\nform f on N = K(z)*d(u)", dsl.ArityMismatch, 4),
    (GOOD_HEADER + "chart N { coords = [u] }\nvectorfield v on N = D(u)\n"
     "lie_algebra g { dim 1 }\naction a { algebra g chart M generators = [v] orbit_dim 1 }",
     dsl.ArityMismatch, 6),
    (GOOD_HEADER + "form f on M = x + )", dsl.ParseError, 3),
    # an expression nested past dsl.MAX_NESTING
    (GOOD_HEADER + "form f on M = " + "(" * 250 + "x" + ")" * 250 + "*d(x)", dsl.ParseError, 3),
    # one row for each of these messages
    (GOOD_HEADER + "lie_algebra g { dim 2 bracket [1,2] = +e1 }", dsl.ParseError, 3),
    (GOOD_HEADER + "lie_algebra g { dim 2 }\nsubgroup s of g { span = [1, 1] }",
     dsl.DuplicateName, 4),
    ("chart M { coords = [x, d] }", dsl.ParseError, 1),
    ("chart M { coords = [x, y] }\nfunction K(x, x)", dsl.DuplicateName, 2),
    (GOOD_HEADER + "lie_algebra g { dim 1 }\ncheck cohomology(g)", dsl.ArityMismatch, 4),
    (CHECK_HEADER + "check isotropy(act, 3)", dsl.ArityMismatch, CHECK_LINE),
    (CHECK_HEADER + "check report(act, points=[P], points=[P])", dsl.DuplicateName, CHECK_LINE),
]


@pytest.mark.parametrize("text,exc,line", ERROR_CORPUS)
def test_error_spans_point_at_offending_line(text, exc, line):
    with pytest.raises(exc) as info:
        dsl.parse(text, "mutant.lch")
    err = info.value
    assert isinstance(err, dsl.ParseError)
    assert err.span is not None
    assert err.span.line == line
    assert err.span.file == "mutant.lch"
    assert err.span.column >= 1 and err.span.length >= 1


def _error_line(text):
    try:
        dsl.parse(text, "mutant.lch")
    except dsl.ParseError as err:
        return f"{type(err).__name__} {err}"
    return "accepted"


def test_error_messages_match_golden():
    """The class, span and message of every ERROR_CORPUS row, one line each
    in corpus order, are those in tests/golden/parse_errors.txt."""
    expected = (GOLDEN / "parse_errors.txt").read_text().splitlines()
    assert [_error_line(text) for text, _, _ in ERROR_CORPUS] == expected


def test_error_corpus_is_large_enough():
    assert len(ERROR_CORPUS) >= 30


# accepted inputs that mix kinds or signs, and the last line of their rendering
MIXED_RENDERINGS = [
    ("form f0 on M = x\nform f on M = y + f0", "form f on M = x + y"),
    ("form f0 on M = x\nform f on M = f0 + y", "form f on M = x + y"),
    ("chain c0 on M = x\nchain c on M = c0 + 1", "chain c on M = 1 + x"),
    ("chain c0 on M = x\nchain c on M = 1 + c0", "chain c on M = 1 + x"),
    ("form f on M = x * -d(y)", "form f on M = -x*d(y)"),
    ("form f on M = -x^2*d(y)/-K(z)", "form f on M = x^2/(K(z))*d(y)"),
]


@pytest.mark.parametrize("text,last", MIXED_RENDERINGS)
def test_mixed_kind_rendering(text, last):
    ws = dsl.parse(GOOD_HEADER + text)
    assert dsl.render(ws).splitlines()[-1] == last
    assert dsl.parse(dsl.render(ws)) == ws


def _mutants(count=400, seed=99):
    """`count` random single-edit mutations of the fixtures, each as (the
    fixture's name, the mutant)."""
    import random
    rng = random.Random(seed)
    fixtures = [(n, (FIXTURES / f"{n}.lch").read_text()) for n in FIXTURE_NAMES]
    alphabet = "abcxyz0123(){}[]=,+-*/^#_ "
    for _ in range(count):
        name, text = rng.choice(fixtures)
        pos = rng.randrange(len(text))
        op = rng.choice(("replace", "delete", "insert"))
        if op == "replace":
            yield name, text[:pos] + rng.choice(alphabet) + text[pos + 1:]
        elif op == "delete":
            yield name, text[:pos] + text[pos + 1:]
        else:
            yield name, text[:pos] + rng.choice(alphabet) + text[pos:]


def test_fuzzed_mutations_never_escape_parse_errors():
    """Random single-edit mutations of valid fixtures either still parse or
    raise a ParseError subclass with a span, never a bare exception."""
    for _, mutant in _mutants():
        try:
            dsl.parse(mutant, "fuzz.lch")
        except dsl.ParseError as err:
            assert err.span is None or (err.span.line >= 1 and err.span.column >= 1)


# --- one reader: `parse` is `load` plus a read of every declaration

def _outcome(make):
    """The workspace `make()` returns, or the class, message and span of the
    ParseError it raises."""
    try:
        return make()
    except dsl.ParseError as err:
        return type(err), err.message, err.span


def _outcome_line(text):
    """A digest of `text`, then what `parse` makes of it: the class, span and
    message of the ParseError it raises, or the sha256 of `render`."""
    key = hashlib.sha256(text.encode()).hexdigest()[:16]
    try:
        ws = dsl.parse(text, "mutant.lch")
    except dsl.ParseError as err:
        at = err.span and f"{err.span.line}:{err.span.column}+{err.span.length}"
        return f"{key} {type(err).__name__} {at} {err.message}"
    return f"{key} render {hashlib.sha256(dsl.render(ws).encode()).hexdigest()}"


def test_parse_outcomes_match_golden():
    """parse's outcome on every ERROR_CORPUS row, every fuzzed mutant and
    every fixture is the one in tests/golden/parse_outcomes.txt, recorded
    while parse still built each declaration during the walk.  The nesting
    row has no line there; the rows after it were recorded before the parser
    change that came with them."""
    expected = (GOLDEN / "parse_outcomes.txt").read_text().splitlines()
    keys = {line.split()[0] for line in expected}
    texts = [text for text, _, _ in ERROR_CORPUS] + [text for _, text in _mutants()] + [
        (FIXTURES / f"{n}.lch").read_text() for n in [*FIXTURE_NAMES, "rotations"]]
    assert [line for line in map(_outcome_line, texts) if line.split()[0] in keys] == expected


def test_nesting_bound():
    """MAX_NESTING atoms may be open at once: the innermost atom of 99
    parentheses is the 100th; one more level is refused at its token."""
    ok, deep = ("form f on M = " + "(" * n + "x" + ")" * n for n in (99, 100))
    assert dsl.parse(GOOD_HEADER + ok) == dsl.parse(GOOD_HEADER + "form f on M = x")
    with pytest.raises(dsl.ParseError, match="3:115: expression nested more than 100 levels deep"):
        dsl.parse(GOOD_HEADER + deep)


def test_each_node_is_built_once(monkeypatch):
    """Reading every declaration in reverse text order, then in order, runs
    each operation of the tapes the walk left exactly once and makes each
    tensor once, and an operation on a name gets the very coefficients of
    the value its declaration stores."""
    ws = dsl.load(GOOD_HEADER + "lie_algebra g { dim 2 }\nvectorfield v on M = D(x)\n"
                  "vectorfield u on M = v - z*v\n"
                  "action a { algebra g chart M generators = [v, u] orbit_dim 1 }\n"
                  "form f on M = K(z)*d(x)\nform h on M = f + x*f\nform k on M = h^f - f^d(y)\n"
                  "form q on M = x/(y + K(z))^2*d(z) - D(x^2/y, y)*d(y)\n"
                  "chain c on M = 2\nchain e on M = c^u^v + 3*u^v\n", "w.lch")
    stores = [getattr(ws, store) for _, _, store in dsl._TENSOR_DECLS.values()]
    pending = [dict.__getitem__(store, name) for store in stores for name in store]
    ran, names, made = [], [], []
    for decl in pending:
        tape = decl.tape
        for k, (fn, at, a, b) in enumerate(tape):
            if fn is not None:
                def spy(*values, fn=fn, key=(id(decl), k), refs=(a, b), tape=tape):
                    ran.append(key)
                    names.extend((tape[r][2], v) for r, v in zip(refs, values)
                                 if type(r) is int and tape[r][0] is None)
                    return fn(*values)
                tape[k] = (spy, at, a, b)
    make = linalg.AltTensor._of.__func__
    monkeypatch.setattr(linalg.AltTensor, "_of", classmethod(
        lambda cls, *args: made.append(make(cls, *args)) or made[-1]))
    for kind, name in [*reversed(ws.order), *ws.order]:
        if kind in dsl._TENSOR_DECLS:
            getattr(ws, dsl._TENSOR_DECLS[kind][2])[name]
        elif kind == "action":
            ws.actions[name].spec
    ops = [(id(d), k) for d in pending for k, (fn, *_) in enumerate(d.tape) if fn is not None]
    assert len(ops) > 10 and sorted(ran) == sorted(ops)
    assert sorted(map(id, made)) == sorted(id(store[name]) for store in stores for name in store)
    assert len(names) > 5 and all(value is decl.value.coeffs for decl, value in names)


@pytest.mark.parametrize("decl", [
    "vectorfield X1 on M = -y*D(x) + x*D(y)",
    "chain chi on M = 1/(x^2 + y^2 + z^2)*(x*D(y)^D(z) - y*D(x)^D(z) + z*D(x)^D(y))",
    "form omega on M = (2 - 3*z + 3*z^2)/(1 + 3*z^2 + z^4)/y*d(x)^d(z)",
    "form w on M = wedge(f, d(y) + x*d(z)) - 2*f^d(z)/K(z) + D(K(z)*x, x)*d(x)^d(y)",
    "chain c on M = -(x*D(x) - D(y))^(y*D(y)^D(z))/2 - D(x)^D(y)^D(z)",
    "form s on M = x^2 + y*f0 - 1/K(z)"])
def test_a_declaration_makes_one_tensor(decl, monkeypatch):
    """Building one declared field, form or chain makes exactly one AltTensor,
    counted on `_fill`, which every constructor runs: the walk keeps
    coefficient maps and only the declaration is a tensor.  The names it
    reads are built first."""
    text = (GOOD_HEADER + "form f on M = K(z)*d(x) + y*d(z)\nform f0 on M = x - 1\n"
            + decl + "\n")
    ws = dsl.load(text, "w.lch")
    kind, name = ws.order[-1]
    store = dsl._TENSOR_DECLS[kind][2]
    ws.forms["f"], ws.forms["f0"]
    made, fill = [], linalg.AltTensor._fill
    monkeypatch.setattr(linalg.AltTensor, "_fill",
                        lambda self, *args: made.append(self) or fill(self, *args))
    value = getattr(ws, store)[name]
    assert len(made) == 1 and made[0] is value
    monkeypatch.undo()
    assert value == getattr(dsl.parse(text), store)[name]


def test_concurrent_first_reads_store_equal_values():
    """Threads reading one loaded workspace in different orders, with
    frequent switches, all get the values parse gives."""
    import random
    import sys
    import threading
    text = GOOD_HEADER + "form f0 on M = K(z)*d(x)\n" + "".join(
        f"form f{i} on M = f{i - 1} + x*f{i // 2}\n" for i in range(1, 200))
    expected = dsl.parse(text).forms
    ws, results = dsl.load(text), []

    def read(seed):
        names = list(expected)
        random.Random(seed).shuffle(names)
        results.append({name: ws.forms[name] for name in names})
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [dict(expected)] * 8


def test_load_keeps_no_walk_alive(monkeypatch):
    """The builders `load` leaves hold the text, not the walk and its token
    list: with the cycle collector off, the walk is freed as load returns."""
    import gc
    import weakref
    walks = []
    init = dsl._Parser.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        walks.append(weakref.ref(self))
    monkeypatch.setattr(dsl._Parser, "__init__", spy)
    text = (GOOD_HEADER + "lie_algebra g { dim 1 }\nvectorfield v on M = D(x)\n"
            "action a { algebra g chart M generators = [v] orbit_dim 1 }\n"
            "form f on M = K(z)/x*d(y)\nform h on M = 2 + x\nform k on M = f - y*f\n"
            "point P on M = (1, 2, 3)\ncheck semibasic(a, k)\n")
    gc.disable()
    try:
        ws = dsl.load(text, "w.lch")
        assert walks[0]() is None
    finally:
        gc.enable()
    ws.actions["a"].spec
    for name in ws.forms:
        ws.forms[name]
    assert ws == dsl.parse(text)

def test_load_defers_only_value_errors():
    """A zero divisor, and a power and a sum over the work limit, are
    reported when the declaration is read, with parse's message and span;
    an error of kind or degree is reported by the walk itself."""
    for rhs, message in (("x/(y - y)*d(x)", "3:16: division by zero"),
                         ("(x + y + 1)^3000*d(x)", "3:31: the work limit is reached"),
                         ("(x - x)^-1", "4:1: negative power of zero"),
                         ("(x + y + 1)^120/(x^2 + y + 1)"
                          " + 1/(x + y^2 + 2)/(x + y^3 + 3)/(x^2 + y^3 + 5)",
                          "4:1: the work limit is reached: 140272 term products")):
        text = GOOD_HEADER + f"form f on M = {rhs}\nform g on M = 2*f\n"
        with pytest.raises(dsl.ParseError, match=message):
            dsl.parse(text, "w.lch")
        parsed = _outcome(lambda: dsl.parse(text, "w.lch"))
        ws = dsl.load(text, "w.lch")
        assert ws.order[-2:] == [("form", "f"), ("form", "g")]
        for name in ("g", "f"):   # g reads f; f fails again on its own read
            assert _outcome(lambda: ws.forms[name]) == parsed
    with pytest.raises(dsl.ArityMismatch, match="cannot add degrees 1 and 2"):
        dsl.load(GOOD_HEADER + "form f on M = (x - x)^-1*d(x) + d(x)^d(y)", "w.lch")


def test_empty_span_gives_trivial_subgroup():
    text = """lie_algebra so3 {
  dim 3
  bracket [1,2] = e3
  bracket [1,3] = -e2
  bracket [2,3] = e1
}
subgroup triv of so3 { span = [] }
"""
    ws = dsl.parse(text)
    assert ws.subgroups["triv"].spec.basis == ()
    rendered = dsl.render(ws)
    assert dsl.parse(rendered) == ws


@pytest.mark.parametrize("decl,rendered", [
    ("vectorfield v on M = 0*D(y)", "vectorfield v on M = 0*D(x)"),
    ("chain c on M = 0*D(x)", "chain c on M = 0*D(x)"),
    ("chain c on M = D(x)^D(y) + D(y)^D(x)", "chain c on M = 0*D(x)^D(y)"),
    ("chain c on M = 0*D(z)^D(y)^D(x)", "chain c on M = 0*D(x)^D(y)^D(z)"),
    ("form f on M = d(z) - d(z)", "form f on M = 0*d(x)"),
    ("form f on M = 0*d(x)^d(z)", "form f on M = 0*d(x)^d(y)"),
    ("form f on M = x*d(x)^d(y)^d(z) - x*d(x)^d(y)^d(z)", "form f on M = 0*d(x)^d(y)^d(z)"),
    ("form f on M = x - x", "form f on M = 0"),
])
def test_zero_tensors_round_trip(decl, rendered):
    ws = dsl.parse(GOOD_HEADER + decl)
    assert dsl.render(ws).splitlines()[-1] == rendered
    assert dsl.parse(dsl.render(ws)) == ws


def _workspace_texts(st):
    """Workspace texts: one or two charts of 1-3 coordinates, a function
    symbol, a Lie algebra with subgroups (spans out of order, component
    matrices), an action, forms, chains and vector fields that are sums of
    0-3 terms with rational coefficients (zero allowed), quotients and
    derivatives of the function symbol, and rational points."""

    def rational(draw):
        num, den = draw(st.integers(-4, 4)), draw(st.integers(1, 3))
        return str(num) if den == 1 else f"{num}/{den}"

    def basis(atom, coords):
        return "^".join(f"{atom}({c})" for c in coords)

    def tensor(draw, atom, coords, degree, scalars):
        terms = []
        for _ in range(draw(st.integers(0, 3))):
            factors = [rational(draw), *draw(st.lists(st.sampled_from(scalars), max_size=2))]
            if degree:
                factors.append(basis(atom, draw(st.permutations(coords))[:degree]))
            terms.append("*".join(factors))
        return " + ".join(terms) or ("0*" + basis(atom, coords[:degree]) if degree else "0")

    @st.composite
    def workspaces(draw):
        lines = []
        charts = {"M": draw(st.permutations(["x", "y", "z"]))[:draw(st.integers(1, 3))]}
        if draw(st.booleans()):   # its own coordinates, or M's
            charts["N"] = draw(st.sampled_from([["u", "w"][:draw(st.integers(1, 2))],
                                                charts["M"]]))
        for name, coords in charts.items():
            lines.append(f"chart {name} {{ coords = [{', '.join(coords)}] }}")
        k = charts["M"][-1]
        lines.append(f"function K({k})")
        scalars = {name: [*coords, f"{coords[0]}^2", f"({coords[-1]} + 1)", f"1/({coords[0]} - 2)"]
                   for name, coords in charts.items()}
        scalars["M"] += [f"K({k})", f"D(K({k}),{k})", f"1/K({k})"]
        dim = draw(st.integers(1, 3))
        brackets = "".join(f" bracket [{i},{j}] = {rational(draw)}*e{draw(st.integers(1, dim))}"
                           for i in range(1, dim + 1) for j in range(i + 1, dim + 1))
        lines.append(f"lie_algebra g {{ dim {dim}{brackets} }}")
        for s in range(draw(st.integers(0, 2))):
            span = draw(st.permutations(range(1, dim + 1)))[:draw(st.integers(0, dim))]
            components = "".join(
                " component [" + ",".join(
                    "[" + ",".join(rational(draw) for _ in range(dim)) + "]"
                    for _ in range(dim)) + "]"
                for _ in range(draw(st.integers(0, 2))))
            lines.append(f"subgroup s{s} of g {{ span = [{', '.join(map(str, span))}]"
                         f"{components} }}")
        coords = charts["M"]
        for i in range(dim):
            lines.append(f"vectorfield X{i} on M = {tensor(draw, 'D', coords, 1, scalars['M'])}")
        lines.append(f"action a {{ algebra g chart M generators = "
                     f"[{', '.join(f'X{i}' for i in range(dim))}] "
                     f"orbit_dim {draw(st.integers(1, min(dim, len(coords))))} }}")
        for i in range(draw(st.integers(0, 4))):
            chart = draw(st.sampled_from(sorted(charts)))
            coords = charts[chart]
            kind = draw(st.sampled_from(["form", "chain", "vectorfield"]))
            degree = 1 if kind == "vectorfield" else draw(st.integers(0, len(coords)))
            atom = "d" if kind == "form" else "D"
            lines.append(f"{kind} t{i} on {chart} = "
                         f"{tensor(draw, atom, coords, degree, scalars[chart])}")
        for i in range(draw(st.integers(0, 2))):
            chart = draw(st.sampled_from(sorted(charts)))
            values = ", ".join(rational(draw) for _ in charts[chart])
            lines.append(f"point P{i} on {chart} = ({values})")
        return "\n".join(lines) + "\n"

    return workspaces()


def test_render_round_trips_on_generated_workspaces():
    """parse(render(ws)) == ws, zero tensors of every degree included, and
    each field, form and chain is rendered on the chart it is declared on."""
    hypothesis = pytest.importorskip("hypothesis")

    def heads(text):
        return [line.split(" = ")[0] for line in text.splitlines()
                if line.split(" ")[0] in dsl._TENSOR_DECLS]

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(_workspace_texts(hypothesis.strategies))
    def check(text):
        ws = dsl.parse(text)
        rendered = dsl.render(ws)
        assert dsl.parse(rendered, "<render>") == ws
        assert dsl.render(dsl.parse(rendered)) == rendered
        assert heads(rendered) == heads(text)
    check()


def test_forward_reference_rejected():
    text = "chart M { coords = [x] }\nform f on M = g + x\nform g on M = x\n"
    with pytest.raises(dsl.UnknownReference) as info:
        dsl.parse(text)
    assert info.value.span.line == 2


def test_tensor_dsl_rendering():
    M = cc.Chart(("x", "y"))
    K = sf.function("K", ("y",))
    chi = cc.MultiVectorField(M, 1, {(0,): K * sf.coordinate("y") ** 2})
    assert dsl.tensor_dsl(chi) == "y^2*K(y)*D(x)"
    form = cc.DiffForm(M, 2, {(0, 1): sf.rational(-1)})
    assert dsl.tensor_dsl(form) == "-d(x)^d(y)"
    assert dsl.tensor_dsl(cc.DiffForm.zero(M, 1)) == "0"
    zero_form = cc.DiffForm(M, 0, {(): sf.rational(1, 3)})
    assert dsl.tensor_dsl(zero_form) == "1/3"


def test_altform_dsl_rendering():
    from liecochain.lie_cohomology import AltForm
    from fractions import Fraction
    rep = AltForm(3, 2, {(0, 1): Fraction(1)})
    assert dsl.altform_dsl(rep) == "a1^a2"
    mixed = AltForm(3, 1, {(0,): Fraction(-2), (2,): Fraction(1, 2)})
    assert dsl.altform_dsl(mixed) == "-2*a1 + 1/2*a3"
    # the walker of chart tensors, in both styles
    assert dsl.render_tensor(mixed, sf.UNICODE) == "-2·α¹ + 1/2·α³"
    assert dsl.render_tensor(AltForm(3, 3, {(0, 1, 2): Fraction(-1)}), sf.UNICODE) == "-α¹∧α²∧α³"
    assert [dsl.altform_dsl(AltForm(3, 0, {(): c})) for c in (0, Fraction(-1, 2))] == ["0", "-1/2"]
