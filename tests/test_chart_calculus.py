import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from liecochain import chart_calculus as cc
from liecochain import scalar_field as sf

import reference as ref
from genutil import (basis_vector, evaluate_vectorfield_at, invariance_strategies, random_form,
                     random_scalar, random_vectorfield)

M3 = cc.Chart(("x", "y", "z"))
x, y, z = (sf.coordinate(c) for c in "xyz")
a = sf.function("a", ("x",))
b = sf.function("b", ("x",))
c_ = sf.function("c", ("x",))
K = sf.function("K", ("z",))


def dform(chart, degree, coeffs):
    return cc.DiffForm(chart, degree, coeffs)


def test_d_exterior_intro_two_form():
    alpha = dform(M3, 2, {(0, 1): a, (0, 2): b, (1, 2): c_})
    d = cc.d_exterior(alpha)
    assert d.degree == 3
    assert d.coeffs.keys() == {(0, 1, 2)}
    assert sf.equals(d.coefficient((0, 1, 2)), sf.partial(c_, "x"))


def test_d_of_constant_and_d_squared():
    const = cc.DiffForm(M3, 0, {(): sf.rational(5)})
    assert cc.d_exterior(const).is_zero()
    f = cc.DiffForm(M3, 0, {(): K * x * y})
    assert cc.d_exterior(cc.d_exterior(f)).is_zero()


def test_d_top_degree_overflow():
    top = dform(M3, 3, {(0, 1, 2): sf.ONE})
    with pytest.raises(cc.DegreeOverflow):
        cc.d_exterior(top)


def test_wedge_signs():
    dx = dform(M3, 1, {(0,): sf.ONE})
    dy = dform(M3, 1, {(1,): sf.ONE})
    assert dx.wedge(dy).coeffs == {(0, 1): sf.ONE}
    assert dy.wedge(dx).coefficient((0, 1)) == -sf.ONE
    mixed = (dx + dy).wedge(dx)
    assert mixed.coefficient((0, 1)) == -sf.ONE
    assert len(mixed.coeffs) == 1


def test_lie_bracket():
    ydy = cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])
    dy = basis_vector(M3, "y")
    assert cc.lie_bracket(ydy, dy) == -dy
    scale = cc.vector_field(M3, [x, y, sf.ZERO])
    dxv = basis_vector(M3, "x")
    assert cc.lie_bracket(scale, dxv) == -dxv
    assert cc.lie_bracket(basis_vector(M3, "y"), basis_vector(M3, "z")).is_zero()


def test_vector_field_is_a_degree_one_chain():
    v = cc.vector_field(M3, [y, sf.ZERO, x])
    assert v == cc.MultiVectorField(M3, 1, {(0,): y, (2,): x})
    assert v.components == (y, sf.ZERO, x)
    assert sf.equals(v.apply(x * z), y * z + x * x)
    with pytest.raises(ValueError):
        cc.vector_field(M3, [x, y])
    two = cc.MultiVectorField(M3, 2, {(0, 1): x})
    with pytest.raises(ValueError):
        two.components
    with pytest.raises(ValueError):
        two.apply(y)


def test_chart_mismatch():
    other = cc.Chart(("u", "v"))
    with pytest.raises(cc.ChartMismatch):
        cc.lie_bracket(basis_vector(M3, "x"), basis_vector(other, "u"))
    # a generator's chart is checked when its turn comes, not before
    t = dform(M3, 0, {(): x})
    verdicts = cc.lie_derivatives_vanish([basis_vector(M3, "x"), basis_vector(other, "u")], t)
    assert next(verdicts) is False
    with pytest.raises(cc.ChartMismatch):
        next(verdicts)


def test_interior_vector():
    dy_dz = dform(M3, 2, {(1, 2): sf.ONE})
    assert cc.interior_multivector(basis_vector(M3, "y"), dy_dz).coeffs == {(2,): sf.ONE}
    assert cc.interior_multivector(basis_vector(M3, "x"), dy_dz).is_zero()
    adx = cc.vector_field(M3, [a, sf.ZERO, sf.ZERO])
    dx_dy = dform(M3, 2, {(0, 1): sf.ONE})
    got = cc.interior_multivector(adx, dx_dy)
    assert got.coeffs.keys() == {(1,)} and sf.equals(got.coefficient((1,)), a)
    with pytest.raises(cc.DegreeUnderflow):
        cc.interior_multivector(adx, cc.DiffForm(M3, 0, {(): x}))


def test_interior_multivector_intro_values():
    A = sf.function("A", ("x",))
    nu = dform(M3, 3, {(0, 1, 2): A})
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    got = cc.interior_multivector(chi, nu)
    assert got.coeffs.keys() == {(0,)} and sf.equals(got.coefficient((0,)), A)

    alpha = dform(M3, 2, {(0, 1): a, (0, 2): b, (1, 2): c_})
    paired = cc.interior_multivector(chi, alpha)
    assert paired.degree == 0 and sf.equals(paired.coefficient(()), c_)

    dx_dy = dform(M3, 2, {(0, 1): sf.ONE})
    chi_xy = cc.wedge_vectorfields([basis_vector(M3, "x"), basis_vector(M3, "y")])
    assert sf.equals(cc.interior_multivector(chi_xy, dx_dy).coefficient(()), 1)


def test_lie_derivative_form():
    alpha = dform(M3, 2, {(0, 1): a})
    assert cc.lie_derivative_form(basis_vector(M3, "y"), alpha).is_zero()
    xdx = cc.vector_field(M3, [x, sf.ZERO, sf.ZERO])
    dx = dform(M3, 1, {(0,): sf.ONE})
    assert cc.lie_derivative_form(xdx, dx) == dx


def test_lie_derivative_form_leibniz_randomized():
    rng = random.Random(23)
    funcs = (("K", ("z",)), ("a", ("x",)))
    for _ in range(40):
        X = random_vectorfield(rng, M3, funcs, polynomial=True)
        omega = random_form(rng, M3, rng.randint(1, 2), funcs, polynomial=True)
        f = random_scalar(rng, M3.coordinates, funcs, allow_fraction=False)
        lhs = cc.lie_derivative_form(X, omega.scaled(f))
        rhs = omega.scaled(X.apply(f)) + cc.lie_derivative_form(X, omega).scaled(f)
        assert (lhs - rhs).is_zero()


def test_lie_derivative_multivector_known_cases():
    chi = cc.MultiVectorField(M3, 2, {(0, 1): K * y ** 2})
    ydy = cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])
    assert cc.lie_derivative_multivector(ydy, chi) == chi

    N = cc.Chart(("x", "y"))
    Ky = sf.function("K", ("y",))
    ay = sf.function("a", ("y",))
    chain = cc.MultiVectorField(N, 1, {(0,): Ky})
    field = cc.vector_field(N, [ay, sf.ZERO])
    assert cc.lie_derivative_multivector(field, chain).is_zero()

    frame = cc.wedge_vectorfields([basis_vector(M3, "x"), basis_vector(M3, "y")])
    assert cc.lie_derivative_multivector(basis_vector(M3, "x"), frame).is_zero()


def test_evaluate_and_jacobian():
    P2 = cc.Chart(("x", "y"))
    rot = cc.vector_field(P2, [-sf.coordinate("y"), sf.coordinate("x")])
    assert evaluate_vectorfield_at(rot, (1, 0)) == [0, 1]
    assert evaluate_vectorfield_at(basis_vector(M3, "y"), (5, 5, 5)) == [0, 1, 0]


def test_d_squared_randomized():
    rng = random.Random(29)
    funcs = (("K", ("z",)), ("g", ("x", "y")))
    for _ in range(60):
        n = rng.randint(2, 4)
        chart = cc.Chart(tuple("xyzw"[:n]))
        k = rng.randint(0, n - 2)
        omega = random_form(rng, chart, k, funcs)
        assert cc.d_exterior(cc.d_exterior(omega)).is_zero()


def test_antiderivation_randomized():
    rng = random.Random(31)
    funcs = (("K", ("z",)),)
    for _ in range(60):
        n = rng.randint(2, 4)
        chart = cc.Chart(tuple("xyzw"[:n]))
        ka = rng.randint(0, n - 1)
        kb = rng.randint(0, n - 1 - ka)
        if ka + kb >= n:
            continue
        alpha = random_form(rng, chart, ka, funcs)
        beta = random_form(rng, chart, kb, funcs)
        lhs = cc.d_exterior(alpha.wedge(beta))
        rhs = cc.d_exterior(alpha).wedge(beta)
        term = alpha.wedge(cc.d_exterior(beta))
        if ka % 2:
            term = -term
        assert (lhs - (rhs + term)).is_zero()


def test_commutator_identities_randomized():
    rng = random.Random(37)
    funcs = (("a", ("x",)),)
    for _ in range(40):
        X = random_vectorfield(rng, M3, funcs, polynomial=True)
        Y = random_vectorfield(rng, M3, funcs, polynomial=True)
        omega = random_form(rng, M3, rng.randint(1, 2), funcs, polynomial=True)
        # [L_X, i_Y] = i_[X,Y]
        lhs = (cc.interior_multivector(Y, cc.lie_derivative_form(X, omega))
               - cc.lie_derivative_form(X, cc.interior_multivector(Y, omega)))
        rhs = -cc.interior_multivector(cc.lie_bracket(X, Y), omega)
        assert (lhs - rhs).is_zero()
        # L_[X,Y] = L_X L_Y - L_Y L_X
        lhs2 = cc.lie_derivative_form(cc.lie_bracket(X, Y), omega)
        rhs2 = (cc.lie_derivative_form(X, cc.lie_derivative_form(Y, omega))
                - cc.lie_derivative_form(Y, cc.lie_derivative_form(X, omega)))
        assert (lhs2 - rhs2).is_zero()


def test_jacobi_randomized():
    rng = random.Random(41)
    for _ in range(40):
        X = random_vectorfield(rng, M3, polynomial=True)
        Y = random_vectorfield(rng, M3, polynomial=True)
        Z = random_vectorfield(rng, M3, polynomial=True)
        total = (cc.lie_bracket(cc.lie_bracket(X, Y), Z)
                 + cc.lie_bracket(cc.lie_bracket(Y, Z), X)
                 + cc.lie_bracket(cc.lie_bracket(Z, X), Y))
        assert total.is_zero()


def test_jacobi_with_fraction_components():
    yexp = sf.coordinate("y")
    X = cc.vector_field(M3, [1 / (1 + yexp ** 2), sf.ZERO, sf.ZERO])
    Y = cc.vector_field(M3, [sf.ZERO, x * yexp, sf.ZERO])
    Z = cc.vector_field(M3, [yexp, sf.ZERO, x])
    total = (cc.lie_bracket(cc.lie_bracket(X, Y), Z)
             + cc.lie_bracket(cc.lie_bracket(Y, Z), X)
             + cc.lie_bracket(cc.lie_bracket(Z, X), Y))
    assert total.is_zero()


def test_contraction_matches_iterated_interior():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(2, 4)
        chart = cc.Chart(tuple("xyzw"[:n]))
        q = rng.randint(1, min(3, n))
        fields = [random_vectorfield(rng, chart) for _ in range(q)]
        if any(f.is_zero() for f in fields):
            continue
        chi = cc.wedge_vectorfields(fields)
        k = rng.randint(q, n)
        omega = random_form(rng, chart, k)
        via_multi = cc.interior_multivector(chi, omega)
        via_iter = omega
        for f in fields:
            via_iter = ref.interior_vector(f, via_iter)
        assert (via_multi - via_iter).is_zero()


def test_lie_bracket_matches_component_oracle():
    """The bracket as the Lie derivative of a degree-1 chain equals the
    component formula, on fields with function symbols and factored
    denominators."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    g = sf.function("g", ("x", "y"))
    atoms = st.sampled_from([x, y, z, a, K, g, sf.partial(K, "z"), sf.partial(g, "y")])
    terms = st.builds(lambda c, factors: math.prod(factors, start=sf.rational(c)),
                      st.integers(-3, 3), st.lists(atoms, max_size=2))
    factors = st.sampled_from([sf.ONE + x ** 2, y + z, z, K + 1, (y - a) ** 2])
    scalars = st.builds(lambda ts, den: sum(ts, sf.ZERO) / math.prod(den, start=sf.ONE),
                        st.lists(terms, max_size=2), st.lists(factors, max_size=2))
    fields = st.lists(scalars, min_size=3, max_size=3).map(lambda cs: cc.vector_field(M3, cs))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(fields, fields)
    def check(u, v):
        assert (cc.lie_bracket(u, v) - ref.lie_bracket(u, v)).is_zero()
    check()


def test_full_pairing_matches_determinant_oracle():
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(2, 4)
        chart = cc.Chart(tuple("xyzw"[:n]))
        q = rng.randint(1, min(3, n))
        fields = [random_vectorfield(rng, chart, polynomial=True) for _ in range(q)]
        chi = cc.wedge_vectorfields(fields)
        alpha = random_form(rng, chart, q)
        point = {c: Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                 for c in chart.coordinates}
        try:
            paired = cc.interior_multivector(chi, alpha).coefficient(()).eval_at(point)
            rows = [[comp.eval_at(point) for comp in f.components] for f in fields]
            expected = Fraction(0)
            for idx in combinations(range(n), q):
                sub = [[row[j] for j in idx] for row in rows]
                expected += alpha.coefficient(idx).eval_at(point) * _det(sub)
        except (sf.PoleAtPoint, sf.UnresolvedFunctionSymbol):
            continue
        assert paired == expected


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * _det(minor)
        total += term if j % 2 == 0 else -term
    return total


# -- the decision of L_X t = 0 on the cleared numerator --------------------------


def test_decision_matches_the_exact_kernel():
    """lie_derivatives_vanish(xs, t) is L_X t = 0 for each X as the exact
    kernel finds it, one layout serving several generators: on random forms
    and chains with monomial, multi-factor and K(z) denominators under
    polynomial and rational fields, and on tensors invariant by
    construction, where it decides "zero" through both of its branches; and
    along generators that each bring a variable or an exponent that t's own
    clearing lacks."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    gen = invariance_strategies(st)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(gen.tensors, st.lists(gen.fields, min_size=1, max_size=3))
    def random_tensors(t, xs):
        assert list(cc.lie_derivatives_vanish(xs, t)) \
            == [cc._lie_derivative(x_, t).is_zero() for x_ in xs]

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(gen.invariants)
    def invariant_tensors(case):
        generators, t = case
        for g in generators:
            assert cc._lie_derivative(g, t).is_zero()
        assert all(cc.lie_derivatives_vanish(generators, t))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(gen.layouts)
    def layouts(case):
        generators, t = case
        assert list(cc.lie_derivatives_vanish(generators, t)) \
            == [cc._lie_derivative(g, t).is_zero() for g in generators]
    random_tensors()
    invariant_tensors()
    layouts()


def _oversized_sum(n):
    """The 0-form sum of f_i(c_i) c_{i-1}^2 / (c_i^2 + c_{i-1}^2 + 1) over n
    coordinates, and the rotation c0 D(c1) - c1 D(c0)."""
    chart = cc.Chart(tuple(f"c{i}" for i in range(n)))
    cs = [sf.coordinate(c) for c in chart.coordinates]
    total = sum((sf.function(f"f{i}", (f"c{i}",)) * cs[i - 1] ** 2
                 / (cs[i] ** 2 + cs[i - 1] ** 2 + 1) for i in range(n)), sf.ZERO)
    v = cc.vector_field(chart, [-cs[1], cs[0]] + [sf.ZERO] * (n - 2))
    return v, cc.DiffForm(chart, 0, {(): total})


def test_oversized_sum_is_refused_under_a_command_meter():
    """Outside a command the decision on the sum over eight coordinates is
    metered on its own and refused, while the exact kernel's partials, each
    metered on its own, answer.  Under one meter, as in a command of
    `cli.main`, both are refused."""
    v, w = _oversized_sum(8)
    with pytest.raises(sf.WorkLimit, match="over the limit of 100000"):
        next(cc.lie_derivatives_vanish([v], w))
    assert not w.coefficient(()).partial("c0").is_zero() and sf._work == 91_939
    assert not cc._lie_derivative(v, w).is_zero()
    for run in (lambda: cc._lie_derivative(v, w), lambda: next(cc.lie_derivatives_vanish([v], w))):
        sf.hold_meter(True)
        try:
            with pytest.raises(sf.WorkLimit):
                run()
        finally:
            sf.hold_meter(False)


def test_decision_and_kernel_agree_over_twelve_moving_factors():
    # (x + 1) over the twelve factors x + y_i and x - y_i: the quotient rule
    # by x, which the former estimate refused, takes 9,340 term products, and
    # the decision, F = prod(x^2 - y_i^2) having 64 terms, 9,353
    chart = cc.Chart(("x",) + tuple(f"y{i}" for i in range(6)))
    x = sf.coordinate("x")
    e = x + 1
    for name in chart.coordinates[1:]:
        e = e / (x + sf.coordinate(name)) / (x - sf.coordinate(name))
    t, v = cc.DiffForm(chart, 0, {(): e}), basis_vector(chart, "x")
    assert not e.partial("x").is_zero() and sf._work == 9_340
    assert next(cc.lie_derivatives_vanish([v], t)) is False and sf._work == 9_353
    assert not cc._lie_derivative(v, t).is_zero()


def test_decision_on_long_factors_needs_no_kernel(monkeypatch):
    # x Dx moves f = 1 + x + ... + x^199, and f is the cleared numerator of
    # h^-1 du: F L_X P and g P, over the former sum estimate, are formed and
    # decide the verdict without the exact kernel
    chart = cc.Chart(("x", "u"))
    xc, u = sf.coordinate("x"), sf.coordinate("u")
    f = sum((xc ** k for k in range(200)), sf.ZERO)
    h = sum((u ** k for k in range(150)), sf.ZERO)
    t = cc.DiffForm(chart, 1, {(0,): sf.ONE / f, (1,): sf.ONE / h})
    euler = cc.vector_field(chart, [xc, sf.ZERO])
    kernel, calls = cc._lie_derivative, []
    monkeypatch.setattr(cc, "_lie_derivative", lambda *args: calls.append(args) or kernel(*args))
    assert not next(cc.lie_derivatives_vanish([euler], t))
    assert not calls and not kernel(euler, t).is_zero()
