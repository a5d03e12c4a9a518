import hashlib
import random
from fractions import Fraction

import pytest

from liecochain import chart_calculus as cc
from liecochain import cli, dsl
from liecochain import scalar_field as sf

from genutil import eval_at, proportionality, random_scalar
import reference as ref

x, y, z = sf.coordinate("x"), sf.coordinate("y"), sf.coordinate("z")
K = sf.function("K", ("z",))


def test_commutativity_cancellation():
    assert (x * y - y * x).is_zero()


def test_like_term_collection():
    e = K * y ** 2 + K * y ** 2
    assert sf.equals(e, sf.rational(2) * K * y ** 2)
    assert sf.dsl_str(e) == "2*y^2*K(z)"


def test_fraction_kept_unreduced():
    e = (y ** 2 - 1) / (y - 1)
    # cross-multiplication oracle: (y^2-1) - (y+1)(y-1) == 0
    assert ((y ** 2 - 1) - (y + 1) * (y - 1)).is_zero()
    assert sf.equals(e, y + 1)
    assert e != y + 1  # structurally a fraction, not the reduced polynomial
    assert e.den == (((y - 1).num, 1),)  # the single factor y - 1, exponent 1


def test_numerator_proportional_to_a_factor_cancels():
    # 2x + 1 is kept as the monic factor x + 1/2
    assert (6 * x + 3) / (2 * x + 1) == 3
    assert ((6 * x + 3) * y) / ((2 * x + 1) * y ** 2) == 3 / y


def test_division_by_zero_expr():
    with pytest.raises(sf.DivisionByZeroExpr):
        x / (y - y)
    with pytest.raises(sf.DivisionByZeroExpr):
        proportionality(x, sf.ZERO)


def test_partial_leibniz():
    assert sf.equals(sf.partial(K * y ** 2, "y"), 2 * K * y)


def test_partial_formal_prime():
    d = sf.partial(K * y ** 2, "z")
    prime = sf.FunctionSymbol("K", ("z",), (1,))
    assert ref.view(d)[0][0][0][1] == ((prime, 1),)
    assert sf.dsl_str(d) == "y^2*D(K(z),z)"


def test_partial_constant():
    assert sf.partial(sf.rational(5), "x").is_zero()


def test_partial_unknown_coordinate():
    # the chart, not `partial`, decides which names are coordinates
    with pytest.raises(sf.UnknownCoordinate):
        cc.Chart(("x", "y")).index("w")


def test_is_zero_and_equals():
    assert sf.is_zero(x - x)
    assert sf.equals((y ** 2 - 1) / (y - 1), y + 1)
    assert not sf.is_zero(sf.partial(K, "z"))


def test_eval_at():
    assert eval_at(x * y + 3, {"x": 1, "y": 2}) == 5
    with pytest.raises(sf.PoleAtPoint, match=r"^denominator vanishes at x = 0, y = -1/2$"):
        eval_at(1 / x, {"x": 0, "y": Fraction(-1, 2)})
    with pytest.raises(sf.UnresolvedFunctionSymbol):
        eval_at(K, {"z": 1})
    with pytest.raises(sf.UnknownCoordinate):
        eval_at(x * y, {"x": 1})


def test_eval_exact_rationals():
    e = (x ** 2 - y) / (x + 1)
    assert eval_at(e, {"x": Fraction(1, 2), "y": Fraction(1, 3)}) == \
        (Fraction(1, 4) - Fraction(1, 3)) / Fraction(3, 2)


def test_proportionality():
    assert sf.equals(proportionality(2 * K * y ** 2, K * y ** 2), 2)
    assert proportionality(sf.ZERO, y).is_zero()
    lam = proportionality(sf.partial(K, "z") * y ** 2, K * y ** 2)
    assert sf.equals(lam, sf.partial(K, "z") / K)
    assert sf.equals(lam * K * y ** 2, sf.partial(K, "z") * y ** 2)


def test_partial_chain_adds_one_factor_per_derivative():
    # four quotient rules on 1/r^8 raise one factor's exponent from 4 to 8;
    # an expanded denominator would square four times, to (r^8)^16
    ws = dsl.parse("chart M { coords = [x, y, z] }\nform w on M = 1/(x^2 + y^2 + z^2)^4\n")
    e = ws.forms["w"].coefficient(())
    r2 = x ** 2 + y ** 2 + z ** 2
    assert e.den == ((r2.num, 4),)
    for c in "xyzx":
        e = sf.partial(e, c)
    assert e.den == ((r2.num, 8),)
    assert len(e.num) == 3
    assert sf.equals(e, (-960 * y * z * (r2 - 14 * x ** 2)) / r2 ** 8)


def test_common_denominator_is_metered():
    """Bringing fractions to a common denominator charges the work meter
    with the products it forms, and is refused past MAX_WORK: in sums,
    `equals` and `linear_relations` alike.  (x + y + 1)^60 over one factor,
    refused by the former estimate of 51,060, takes 35,962."""
    other = 1 / (x + y ** 2 + 2) / (x + y ** 3 + 3) / (x ** 2 + y ** 3 + 5)
    large = (x + y + 1) ** 60 / (x ** 2 + y + 1)  # 1891 terms, times a 19-term cofactor
    huge = (x + y + 1) ** 120 / (x ** 2 + y + 1)  # 7381 terms
    point = {"x": 2, "y": 3}
    total = large + other
    assert sf._work == 35_962
    assert total.eval_at(point) == large.eval_at(point) + other.eval_at(point)
    assert not sf.equals(large, other)
    for op in (lambda e, f: e + f, sf.equals, lambda e, f: sf.linear_relations([[e], [f]])):
        with pytest.raises(sf.WorkLimit, match="term products counted, over the limit of 100000"):
            op(huge, other)


def test_quotient_rule_is_metered():
    """The quotient rule charges the products and partials it forms:
    (x + y + 1)^40 over three moving factors, refused by the former
    estimate of 45,387, takes 31,897; the 80th power is over the limit."""
    inv = 1 / (x ** 2 + y + 1) / (x + y ** 2 + 2) / (x ** 2 + y ** 3 + 5)
    point = {"x": 2, "y": 3}
    d = 1 / inv
    for n in (30, 40):
        num = (x + y + 1) ** n
        want = (num.partial("x").eval_at(point) * d.eval_at(point)
                - num.eval_at(point) * d.partial("x").eval_at(point)) / d.eval_at(point) ** 2
        assert sf.partial(num * inv, "x").eval_at(point) == want
    assert sf._work == 31_897
    with pytest.raises(sf.WorkLimit, match="over the limit of 100000"):
        sf.partial((x + y + 1) ** 80 * inv, "x")


def test_quotient_rule_representation_over_several_moving_factors():
    """The first partials and two mixed second partials of a fraction whose
    denominator has the monomial x*z and two multi-term factors, all moving
    under d/dx, render byte for byte as pinned."""
    e = (x * y + K) * (1 / (x ** 2 + y ** 2 + 1)) * (1 / (x + y + 2) ** 2) / (x * z)
    assert sf.dsl_str(e.partial("z")) == (
        "(-K(z) + z*D(K(z),z) - x*y)/(x*z^2)/(1 + x^2 + y^2)"
        "/(4 + 4*x + 4*y + 2*x*y + x^2 + y^2)")
    shown = [sf.dsl_str(e.partial(c)) for c in "xyz"]
    shown += [sf.dsl_str(e.partial("x").partial(c)) for c in "yz"]
    assert [len(s) for s in shown] == [378, 292, 87, 1062, 684]
    assert hashlib.sha256("\n".join(shown).encode()).hexdigest() == \
        "75cfb1cb7388131db7eac70dae9e04789c12cb25e538d88e5367e93f950d4d44"


def test_power_work_limit():
    """A power past the work limit is refused while it is formed, the
    fast-growing binomial coefficients charged by their size; a monomial's
    power in closed form is refused past MAX_EXPONENT."""
    base = x + y + 1
    assert len((base ** 30).num) == 496
    for big, n in ((base, 3000), (x + 1, 10 ** 7)):
        with pytest.raises(sf.WorkLimit, match="over the limit of 100000"):
            big ** n
    assert x ** sf.MAX_EXPONENT == _x_to(sf.MAX_EXPONENT)
    with pytest.raises(sf.WorkLimit, match="exponent 1000001 of a monomial"):
        x ** (sf.MAX_EXPONENT + 1)
    # exponents of denominator factors only multiply
    assert (1 / base) ** 3000 == sf.ScalarExpr(ref.view(sf.ONE)[0], ((ref.view(base)[0], 3000),))


def test_power_term_products(monkeypatch):
    """Binomial expansion raises (x + y + 1) to the 30th power in under 1,000
    term products, counted as len(a) * len(b) over `_mul_terms`; 30
    successive products took 14,877."""
    products, mul_terms = [], sf._mul_terms

    def counted(a, b):
        products.append(len(a) * len(b))
        return mul_terms(a, b)
    monkeypatch.setattr(sf, "_mul_terms", counted)
    assert len(((x + y + 1) ** 30).num) == 496
    assert sum(products) <= 1_000


def test_power_negative_and_zero():
    assert sf.equals(x ** 0, 1)
    assert sf.equals(x ** -2 * x ** 2, 1)
    with pytest.raises(sf.DivisionByZeroExpr):
        sf.ZERO ** -1


def test_normalize_idempotent_randomized():
    rng = random.Random(7)
    funcs = (("K", ("z",)), ("a", ("x",)))
    for _ in range(100):
        e = random_scalar(rng, ("x", "y", "z"), funcs)
        assert sf.normalize(e) == e


def test_partial_commutes_randomized():
    rng = random.Random(11)
    funcs = (("K", ("z",)), ("g", ("x", "y")))
    for _ in range(100):
        e = random_scalar(rng, ("x", "y", "z"), funcs)
        c1, c2 = rng.choice("xyz"), rng.choice("xyz")
        assert sf.equals(sf.partial(sf.partial(e, c1), c2),
                         sf.partial(sf.partial(e, c2), c1))


def test_equals_is_equivalence_and_respects_partial():
    rng = random.Random(13)
    for _ in range(60):
        e = random_scalar(rng, ("x", "y"), (("a", ("x",)),))
        f = random_scalar(rng, ("x", "y"), (("a", ("x",)),))
        den = sf.ONE + sf.coordinate("x") ** 2
        e_disguised = (e * den) / den
        assert sf.equals(e, e)
        assert sf.equals(e, e_disguised)
        assert sf.equals(e_disguised, e)
        assert sf.equals(sf.partial(e_disguised, "x"), sf.partial(e, "x"))
        if sf.equals(e, f):
            assert sf.equals(f, e)


def test_ring_laws_randomized():
    rng = random.Random(17)
    funcs = (("K", ("z",)),)
    for _ in range(60):
        a = random_scalar(rng, ("x", "z"), funcs)
        b = random_scalar(rng, ("x", "z"), funcs)
        c = random_scalar(rng, ("x", "z"), funcs)
        assert sf.equals((a + b) + c, a + (b + c))
        assert sf.equals((a * b) * c, a * (b * c))
        assert sf.equals(a * (b + c), a * b + a * c)
        assert sf.equals(a + b, b + a)
        assert sf.equals(a * b, b * a)


def test_leibniz_rule_randomized():
    rng = random.Random(19)
    funcs = (("K", ("z",)), ("a", ("x",)))
    for _ in range(60):
        a = random_scalar(rng, ("x", "z"), funcs)
        b = random_scalar(rng, ("x", "z"), funcs)
        coord = rng.choice(("x", "z"))
        assert sf.equals(sf.partial(a * b, coord),
                         sf.partial(a, coord) * b + a * sf.partial(b, coord))


def test_linear_relations():
    # 1/x and 1/y clear to y and x, which have no relation
    assert sf.linear_relations([[1 / x], [1 / y]]) == []
    # denominator-disguised multiples stay dependent after clearing
    f1, f2 = (y + 1) / (x + 1), (2 * y + 2) / (x + 1)
    assert sf.linear_relations([[f1], [f2]]) == [[Fraction(-2), Fraction(1)]]
    # vectors of length 2: a relation holds in every entry, each cleared on
    # its own, or it is none
    u = [x / 3 + y / 2, sf.rational(-5, 7) / (x + 1)]
    v = [2 * x + 3 * y, sf.rational(-30, 7) / (x + 1)]
    assert sf.linear_relations([u, v]) == [[Fraction(-6), Fraction(1)]]
    assert sf.linear_relations([u, [v[0], v[1] + 1]]) == []
    # a zero vector is a relation of its own; ints are read as constants
    assert sf.linear_relations([u, [sf.ZERO, 0]]) == [[Fraction(0), Fraction(1)]]
    assert sf.linear_relations([[1, x], [3, 3 * x], [0, 1 / x]]) == [
        [Fraction(-3), Fraction(1), Fraction(0)]]


def test_dsl_rendering_deterministic():
    e = K * y ** 2 - x / (y + 1)
    assert sf.dsl_str(e) == sf.dsl_str(sf.normalize(e))
    assert sf.dsl_str(sf.ZERO) == "0"
    assert sf.dsl_str(sf.rational(-3, 4)) == "-3/4"


def test_pretty_primes():
    d2 = sf.partial(sf.partial(K, "z"), "z")
    assert "′′" in sf.pretty(d2)
    g = sf.function("g", ("x", "y"))
    assert "∂" in sf.pretty(sf.partial(g, "x"))


# Each display rule, pinned: (workspace syntax in, Unicode display, workspace
# syntax out).  Superscript exponents, factored denominators, one to four
# primes, mixed partials, and a one-term numerator over a factor, which the
# display wraps as (x)/(y) and the workspace syntax writes as x/(y).
RENDERINGS = [
    ('0', '0', '0'),
    ('-3/4', '-3/4', '-3/4'),
    ('x', 'x', 'x'),
    ('-x', '-x', '-x'),
    ('x^2*y^3 - 3*x + 1', '1 - 3·x + x²·y³', '1 - 3*x + x^2*y^3'),
    ('2/3*x*y^10 - z', '-z + 2/3·x·y¹⁰', '-z + 2/3*x*y^10'),
    ('1/(x^2 + y^2)^4', '(1)/(x² + y²)⁴', '1/(x^2 + y^2)^4'),
    ('(x + 1)/(y*z)', '(1 + x)/(y·z)', '(1 + x)/(y*z)'),
    ('x/y', '(x)/(y)', 'x/(y)'),
    ('-x/(y + 1)', '(-x)/(1 + y)', '-x/(1 + y)'),
    ('x*y/(x + y)^2/(y - z)', '(-x·y)/(x + y)²/(-y + z)', '-x*y/(x + y)^2/(-y + z)'),
    ('f(x)^3', 'f(x)³', 'f(x)^3'),
    ('D(f(x),x)', 'f′(x)', 'D(f(x),x)'),
    ('D(D(f(x),x),x)^2', 'f′′(x)²', 'D(D(f(x),x),x)^2'),
    ('D(D(D(f(x),x),x),x)', 'f′′′(x)', 'D(D(D(f(x),x),x),x)'),
    ('D(D(D(D(f(x),x),x),x),x)', '∂⁴f/∂x⁴(x)', 'D(D(D(D(f(x),x),x),x),x)'),
    ('D(D(K(x,y),x),y)', '∂²K/∂x∂y(x,y)', 'D(D(K(x,y),x),y)'),
    ('D(D(K(x,y),x),x)', '∂²K/∂x²(x,y)', 'D(D(K(x,y),x),x)'),
    ('-1/2*D(K(x,y),y)*x^2', '-1/2·x²·∂K/∂y(x,y)', '-1/2*x^2*D(K(x,y),y)'),
    ('K(x,y)/(1 + x^2)', '(K(x,y))/(1 + x²)', 'K(x,y)/(1 + x^2)'),
    ('3*D(f(x),x)/(f(x))^11', '(3·f′(x))/(f(x)¹¹)', '3*D(f(x),x)/(f(x)^11)'),
    # the lead term that makes a factor monic is the last in degree order
    # (x^2), not in lexicographic order (y)
    ('1/(2*x^2 + 3*y)', '(1/2)/(3/2·y + x²)', '1/2/(3/2*y + x^2)'),
    ('(y + x^2)/(3*y - 2*x^2)/z', '(-1/2·y - 1/2·x²)/(z)/(-3/2·y + x²)',
     '(-1/2*y - 1/2*x^2)/(z)/(-3/2*y + x^2)'),
]


@pytest.mark.parametrize("text,shown,plain", RENDERINGS, ids=[r[0] for r in RENDERINGS])
def test_rendering_styles(text, shown, plain):
    ws = dsl.parse("chart M { coords = [x, y, z] }\nfunction f(x)\nfunction K(x, y)\n"
                   f"form w on M = {text}\n")
    e = ws.forms["w"].coefficient(())
    assert sf.pretty(e) == shown
    assert str(e) == shown
    assert sf.dsl_str(e) == plain


# -- packed exponent fields widen and never wrap -------------------------------


def _sympy_of(e, sympy):
    """e as a sympy expression, built from its term tuples."""
    def poly(p):
        total = sympy.Integer(0)
        for (mono, syms), c in p:
            t = sympy.Rational(c.numerator, c.denominator)
            for name, k in mono:
                t *= sympy.Symbol(name) ** k
            for sym, k in syms:
                f = sympy.Function(sym.name)(*map(sympy.Symbol, sym.args))
                orders = [(sympy.Symbol(a), o) for a, o in zip(sym.args, sym.orders) if o]
                t *= (sympy.Derivative(f, *orders) if orders else f) ** k
            total += t
        return total
    num, den = ref.view(e)
    out = poly(num)
    for f, k in den:
        out /= poly(f) ** k
    return out


def _x_to(n):
    """x^n built from its term tuple, without `**`."""
    return sf.ScalarExpr(((((("x", n),), ()), Fraction(1)),))


def test_exponent_field_widens_for_a_product():
    e = x ** 40000 * x ** 40000
    assert e == x ** 80000 == _x_to(80000)
    assert ref.view(e)[0] == ref._p_mul(ref.view(x ** 40000)[0], ref.view(x ** 40000)[0])
    d = sf.partial(e, "x")
    assert d == 80000 * _x_to(79999)
    assert ref.view(d)[0] == ref._p_partial(ref.view(e)[0], "x") == \
        ((((("x", 79999),), ()), Fraction(80000)),)
    sympy = pytest.importorskip("sympy")
    X = sympy.Symbol("x")
    assert sympy.expand(_sympy_of(d, sympy) - sympy.diff(X ** 40000 * X ** 40000, X)) == 0


@pytest.mark.parametrize("n", [63, 64, 127, 128, 255, 256])
def test_full_exponent_field_does_not_carry_into_the_next(n):
    # x's field sits below y's; x^n * x^n must not leave a carry in y's field
    a, b = x ** n * y + 1, x ** n * z - y
    e = a * b
    assert ref.view(e)[0] == ref._p_mul(ref.view(a)[0], ref.view(b)[0])
    assert ref.view(e)[0][-1] == (((("x", 2 * n), ("y", 1), ("z", 1)), ()), Fraction(1))
    assert sf.equals(sf.partial(e, "y"), x ** n * b - a)


def test_product_over_forty_coordinates():
    names = [f"c{i}" for i in range(40)]
    e, want = sf.ONE, ref._P_ONE
    for i, name in enumerate(names):
        f = sf.coordinate(name) ** (i % 7 + 1)
        e, want = e * f, ref._p_mul(want, ref.view(f)[0])
    g = sf.coordinate("c0") + sf.coordinate("c39") - 3
    e, want = e * g * g, ref._p_mul(ref._p_mul(want, ref.view(g)[0]), ref.view(g)[0])
    assert ref.view(e)[0] == want and len(e.num) == 6
    d = sf.partial(e, "c20")
    assert ref.view(d)[0] == ref._p_partial(want, "c20")
    point = {name: Fraction(i + 1, 3) for i, name in enumerate(names)}
    assert eval_at(d, point) == ref._p_eval(ref.view(d)[0], point)
    sympy = pytest.importorskip("sympy")
    cs = [sympy.Symbol(name) for name in names]
    product = sympy.Mul(*(c ** (i % 7 + 1) for i, c in enumerate(cs)))
    want_d = sympy.diff(product * (cs[0] + cs[39] - 3) ** 2, cs[20])
    assert sympy.expand(_sympy_of(d, sympy) - want_d) == 0


def test_twelfth_derivative_of_a_function_symbol():
    twelfth = sf.FunctionSymbol("K", ("z",), (12,))
    e, want = z ** 3 * K, ref.view(z ** 3 * K)[0]
    # K^130 needs a wider field than K^127 and its derivatives add symbols
    wide, wide_want = z ** 3 * K ** 130, ref.view(z ** 3 * K ** 130)[0]
    for _ in range(12):
        e, want = sf.partial(e, "z"), ref._p_partial(want, "z")
        wide, wide_want = sf.partial(wide, "z"), ref._p_partial(wide_want, "z")
        assert ref.view(e)[0] == want
        assert ref.view(wide)[0] == wide_want
    assert ref.view(e)[0][-1] == (((("z", 3),), ((twelfth, 1),)), Fraction(1))
    assert len(wide.num) == 205
    sympy = pytest.importorskip("sympy")
    Z = sympy.Symbol("z")
    want_e = sympy.diff(Z ** 3 * sympy.Function("K")(Z), Z, 12)
    assert sympy.expand(_sympy_of(e, sympy) - want_e) == 0


def test_term_tuples_round_trip():
    rng = random.Random(23)
    funcs = (("K", ("z",)), ("g", ("x", "y")))
    for _ in range(100):
        e = random_scalar(rng, ("x", "y", "z"), funcs) / (x ** 2 + y + 1)
        assert sf.ScalarExpr(*ref.view(e)) == e
        assert all(type(c) is Fraction for _, c in ref.view(e)[0])


def test_equal_polynomials_hash_equal():
    """A _Poly keeps its hash once computed: equal polynomials whose terms
    were built, or are stored, in different orders hash equal."""
    a = (x ** 2 + 3 * y + 1).num
    b = (1 + 3 * y + x ** 2).num
    c = sf._Poly(a.vs, a.w, a.content, dict(reversed(list(a.terms.items()))))
    assert list(c.terms) != list(a.terms)
    assert a == b == c
    assert hash(a) == hash(b) == hash(c) == hash(c)
    assert {a: "factor"}[c] == "factor"
    assert hash(sf._Poly(a.vs, a.w, a.content, {})) == hash(sf._P_ZERO)


def _fresh_workspace(tag, n=10):
    """A workspace over n coordinates and n functions whose names no other
    workspace uses, with an action so that validation and the invariance
    check differentiate and clear denominators."""
    cs = [f"{tag}c{i}" for i in range(n)]
    fs = [f"{tag}f{i}({c})" for i, c in enumerate(cs)]
    terms = [f"{fs[i]}*{cs[i - 1]}^2" for i in range(n)]
    terms[0] += f"/({cs[0]}^2 + {cs[1]}^2 + 1)"
    return "\n".join([
        f"chart M {{ coords = [{', '.join(cs)}] }}",
        *(f"function {f}" for f in fs),
        "lie_algebra u1 {\n  dim 1\n}",
        f"vectorfield v on M = {cs[0]}*D({cs[1]}) - {cs[1]}*D({cs[0]})",
        "action act { algebra u1 chart M generators = [v] orbit_dim 1 }",
        f"form w on M = {' + '.join(terms)}",
        f"point P on M = ({', '.join(str(i + 1) for i in range(n))})",
        "check validate()", ""])


def _module_containers():
    return {name: len(value) for name, value in vars(sf).items()
            if isinstance(value, (dict, list, set))}


def test_no_state_outlives_a_call(tmp_path, capsys):
    # 50 fresh coordinate names and 50 fresh function names over five calls
    before = _module_containers()
    constants = [len(p.terms) for p in (sf._P_ZERO, sf._P_ONE)]
    for tag in "pqrst":
        path = tmp_path / f"{tag}.lch"
        path.write_text(_fresh_workspace(tag))
        assert cli.main(["validate", "--input", str(path)]) == 0
        assert cli.main(["check", "invariant", "--input", str(path),
                         "--action", "act", "--object", "w"]) in (0, 1)
    assert "error" not in capsys.readouterr().err
    assert _module_containers() == before
    assert [len(p.terms) for p in (sf._P_ZERO, sf._P_ONE)] == constants


def test_a_later_generators_exponents_fit_the_checks_layout(monkeypatch):
    # z^129 as a 0-form: D(y) leaves it alone, then z^900 D(z) and z^2000
    # D(x) come after it; the layout, fixed before the first verdict, holds
    # the products of every generator
    z, widths, clear = sf.coordinate("z"), [], sf._clear

    def recorded_clear(*args):
        out = clear(*args)
        widths.append(out[1])
        return out
    monkeypatch.setattr(sf, "_clear", recorded_clear)
    verdicts = sf.operator_vanishes({(): z ** 129}, [{1: sf.ONE}, {2: z ** 900}, {0: z ** 2000}],
                                    ("x", "y", "z"), lambda n, key: ())
    assert list(verdicts) == [True, False, True]
    assert len(widths) == 1 and (1 << widths[0]) > 2000 + 128


def test_proportional():
    x, y = sf.coordinate("x"), sf.coordinate("y")
    r = x ** 2 + y ** 2
    b = {(0,): x / r, (1,): y / r}
    assert sf.proportional({(0,): x * x, (1,): x * y}, b)
    assert sf.proportional({}, b)
    assert not sf.proportional({(0,): x}, b)
    assert not sf.proportional({(0,): x, (1,): x}, b)
    assert sf.proportional({(1,): y ** 3}, {(1,): sf.ONE / r})
    with pytest.raises(sf.DivisionByZeroExpr):
        sf.proportional(b, {(0,): sf.ZERO})


# -- shortcuts of canonical operands, against the unconditional path ------------

SHORTCUT_VARIABLES = ("x", "y", sf.FunctionSymbol("K", ("z",), (0,)),
                      sf.FunctionSymbol("K", ("z",), (1,)))


def _shortcut_polys(st, min_terms=1):
    """Random canonical polynomials over coordinates and function symbols,
    each with small exponents or exponents around the field boundaries
    63/64 and 127/128."""
    @st.composite
    def polys(draw):
        exponent = st.sampled_from(draw(st.sampled_from([(0, 1, 2), (0, 1, 63, 64),
                                                         (0, 126, 127, 128, 129)])))
        term = st.tuples(st.integers(-5, 5).filter(bool),
                         st.tuples(*[exponent] * len(SHORTCUT_VARIABLES)))
        return sf.polynomial([(c, tuple((v, k) for v, k in zip(SHORTCUT_VARIABLES, mono) if k))
                              for c, mono in draw(st.lists(term, min_size=min_terms,
                                                           max_size=4))]).num
    return polys()


def _fraction_unconditional(num, mono, factors):
    """`_fraction` with its factor-proportionality test run whenever a
    factor has num's length, with no multiset test first."""
    for f, e in factors.items():
        if e and len(f) == len(num):
            content = sf._content(num)
            rest = sf._p_div_mono(num, content)
            if f.terms == rest.terms and f.vs == rest.vs and f.w == rest.w:
                factors[f] -= 1
                num = sf._monomial(content, num.content / f.content)
                break
    return sf._fraction(num, mono, factors)


def _monic(p):
    """p over its monomial content, its last term in _term_order made 1, as
    `__truediv__` makes a denominator factor."""
    f = sf._p_div_mono(p, sf._content(p))
    return sf._p_scale(f, 1 / sf._terms(f)[-1][1])


def _fields(p):
    return p.vs, p.w, p.content, p.terms


def test_product_of_canonical_polynomials_is_built_as_make_builds_it():
    """`_p_mul` equals `_make` of the same terms, in every field of the
    representation, whether its exponents fit the joined width or not."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {"fits": 0, "widens": 0}

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_shortcut_polys(st), _shortcut_polys(st),
                      st.sampled_from([Fraction(1), Fraction(-2, 3)]))
    def check(p, q, scale):
        p = sf._p_scale(p, scale)
        if not (p.vs and q.vs):
            hypothesis.reject()
        vs, w, a, b = sf._join(p, q)
        want = sf._make(vs, w, p.content * q.content, sf._mul_terms(a, b))
        assert _fields(sf._p_mul(p, q)) == _fields(want)
        seen["fits" if sf._width(sf._top(p) + sf._top(q)) <= w else "widens"] += 1
    check()
    assert min(seen.values()) >= 20, seen


def test_numerator_proportional_to_a_factor_is_still_reduced():
    """c * m * f over f^e and another factor loses one power of f, as the
    unconditional path finds.  A numerator of f's length is kept whole, as
    it finds too: f with one coefficient changed, f's coefficients moved
    among its keys (the same multiset), or a random one."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = {"reduced": 0, "kept": 0}

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(_shortcut_polys(st, 2), _shortcut_polys(st, 2), _shortcut_polys(st),
                      st.integers(1, 3))
    def check(f, g, other, e):
        if len(f) < 2 or len(g) < 2 or not other.terms:
            hypothesis.reject()
        f, g = _monic(f), _monic(g)
        if f == g:
            hypothesis.reject()
        (mono, syms), c = sf._terms(other)[0]
        m = sf._monomial(dict(mono + syms), c)
        keys, xs = list(f.terms), list(f.terms.values())
        numerators = {"proportional": xs, "changed": [xs[0] + 1] + xs[1:],
                      "moved": xs[1:] + xs[:1]}
        numerators = {kind: sf._p_mul(m, sf._make(f.vs, f.w, Fraction(1), dict(zip(keys, ys))))
                      for kind, ys in numerators.items() if all(ys)}
        if len(other) == len(f):
            numerators["random"] = other
        for kind, num in numerators.items():
            got = sf._fraction(num, {"y": 1}, {f: e, g: 1})
            want = _fraction_unconditional(num, {"y": 1}, {f: e, g: 1})
            assert (got.num, got.den) == (want.num, want.den)
            reduced = dict(got.den).get(f, 0) == e - 1
            assert reduced or kind != "proportional"
            seen["reduced" if reduced else "kept"] += 1
    check()
    assert min(seen.values()) >= 50, seen
