"""Randomized exact property suites, parametrized by case count so the
acceptance gate can run them at full size.  Every check is an exact zero
test; a single failing case raises with the seed baked into the message."""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

from liecochain import chart_calculus as cc
from liecochain import lie_cohomology as lc
from liecochain import linalg

import reference as ref
from genutil import (random_altform, random_form, random_lie_algebra,
                     random_multivector, random_vectorfield, transport_algebra)

FUNCS = (("K", ("z",)), ("a", ("x",)), ("g", ("x", "y")))


def _charts(rng):
    n = rng.randint(2, 4)
    return cc.Chart(tuple("xyzw"[:n]))


def suite_dd_zero_ce(cases, seed=101):
    rng = random.Random(seed)
    for i in range(cases):
        alg = random_lie_algebra(rng, 5)
        assert not lc.validate_lie_algebra(alg), f"case {i}: transported algebra broke Jacobi"
        p = alg.dim
        if p < 2:
            continue
        alpha = random_altform(rng, p, rng.randint(0, p - 2))
        dd = lc.ce_differential(alg, lc.ce_differential(alg, alpha))
        assert dd.is_zero(), f"case {i}: d(d(alpha)) != 0 on the algebra complex"


def suite_dd_zero_chart(cases, seed=103):
    rng = random.Random(seed)
    for i in range(cases):
        chart = _charts(rng)
        omega = random_form(rng, chart, rng.randint(0, chart.dim - 2), FUNCS)
        dd = cc.d_exterior(cc.d_exterior(omega))
        assert dd.is_zero(), f"case {i}: d(d(omega)) != 0 on the chart complex"


def suite_cartan_ce(cases, seed=107):
    rng = random.Random(seed)
    for i in range(cases):
        alg = random_lie_algebra(rng, 5)
        p = alg.dim
        r = rng.randint(0, p)
        alpha = random_altform(rng, p, r)
        v = [Fraction(rng.randint(-2, 2)) for _ in range(p)]
        lhs = lc.infinitesimal_action(alg, v, alpha)
        rhs = lc.AltForm(p, r, {})
        if r < p:
            rhs = rhs + lc.interior(v, lc.ce_differential(alg, alpha))
        if r > 0:
            rhs = rhs + lc.ce_differential(alg, lc.interior(v, alpha))
        assert lhs == rhs, f"case {i}: Cartan formula failed on the algebra complex"


def _lie_derivative_cartan(x, omega):
    """Independent oracle: Cartan's formula L_X = i_X d + d i_X, from the
    exterior derivative and the interior product; X(f) on 0-forms."""
    chart = omega.chart
    out = cc.DiffForm.zero(chart, omega.degree)
    if omega.degree < chart.dim:
        out = out + cc.interior_multivector(x, cc.d_exterior(omega))
    if omega.degree > 0:
        out = out + cc.d_exterior(cc.interior_multivector(x, omega))
    return out


def suite_cartan_chart(cases, seed=109):
    """The Lie derivative of a form agrees with Cartan's formula, on
    polynomial and on rational coefficients."""
    rng = random.Random(seed)
    for i in range(cases):
        chart = _charts(rng)
        for polynomial in (True, False):
            x = random_vectorfield(rng, chart, FUNCS, polynomial=polynomial)
            omega = random_form(rng, chart, rng.randint(0, chart.dim), FUNCS,
                                polynomial=polynomial)
            difference = cc.lie_derivative_form(x, omega) - _lie_derivative_cartan(x, omega)
            assert difference.is_zero(), \
                f"case {i} (polynomial={polynomial}): L_X w differs from i_X dw + d i_X w"


def suite_antiderivation_chart(cases, seed=113):
    rng = random.Random(seed)
    for i in range(cases):
        chart = _charts(rng)
        n = chart.dim
        ka = rng.randint(0, n - 1)
        kb = rng.randint(0, n - 1 - ka)
        alpha = random_form(rng, chart, ka, FUNCS, polynomial=True)
        beta = random_form(rng, chart, kb, FUNCS, polynomial=True)
        lhs = cc.d_exterior(alpha.wedge(beta))
        term = alpha.wedge(cc.d_exterior(beta))
        if ka % 2:
            term = -term
        rhs = cc.d_exterior(alpha).wedge(beta) + term
        assert (lhs - rhs).is_zero(), f"case {i}: antiderivation law failed (chart)"


def suite_antiderivation_ce(cases, seed=127):
    rng = random.Random(seed)
    for i in range(cases):
        alg = random_lie_algebra(rng, 5)
        p = alg.dim
        ra = rng.randint(0, p - 1)
        rb = rng.randint(0, p - 1 - ra)
        alpha = random_altform(rng, p, ra)
        beta = random_altform(rng, p, rb)
        lhs = lc.ce_differential(alg, alpha.wedge(beta))
        term = alpha.wedge(lc.ce_differential(alg, beta))
        if ra % 2:
            term = term.scaled(-1)
        rhs = lc.ce_differential(alg, alpha).wedge(beta) + term
        assert lhs == rhs, f"case {i}: antiderivation law failed (algebra)"


def suite_interior_commutator(cases, seed=131):
    rng = random.Random(seed)
    for i in range(cases):
        chart = _charts(rng)
        x = random_vectorfield(rng, chart, polynomial=True)
        y = random_vectorfield(rng, chart, polynomial=True)
        omega = random_form(rng, chart, rng.randint(1, chart.dim), polynomial=True)
        lhs = (cc.lie_derivative_form(x, cc.interior_multivector(y, omega))
               - cc.interior_multivector(y, cc.lie_derivative_form(x, omega)))
        rhs = cc.interior_multivector(cc.lie_bracket(x, y), omega)
        assert (lhs - rhs).is_zero(), f"case {i}: [L_X, i_Y] != i_[X,Y]"


def suite_jacobi_bracket(cases, seed=137):
    rng = random.Random(seed)
    for i in range(cases):
        chart = _charts(rng)
        x = random_vectorfield(rng, chart, polynomial=True)
        y = random_vectorfield(rng, chart, polynomial=True)
        z = random_vectorfield(rng, chart, polynomial=True)
        total = (cc.lie_bracket(cc.lie_bracket(x, y), z)
                 + cc.lie_bracket(cc.lie_bracket(y, z), x)
                 + cc.lie_bracket(cc.lie_bracket(z, x), y))
        assert total.is_zero(), f"case {i}: vector field Jacobi identity failed"


def suite_abelian_binomial(cases, seed=139):
    rng = random.Random(seed)
    trivial = lc.SubgroupSpec.trivial()
    for i in range(cases):
        p = rng.randint(1, 5)
        alg = transport_algebra(lc.LieAlgebra(p), ref.identity(p))
        r = rng.randint(0, p)
        res = lc.relative_cohomology(alg, trivial, r)
        # brute-force oracle: ranks of the full differential matrices
        expected = comb(p, r) - _d_rank(alg, r) - _d_rank(alg, r - 1)
        assert expected == comb(p, r), f"case {i}: abelian differential not zero"
        assert res.dimension == expected, \
            f"case {i}: H^{r} of an abelian algebra is not binomial({p},{r})"


def _d_rank(alg, r):
    """Rank of d on full degree-r forms by direct matrix construction."""
    p = alg.dim
    if r < 0 or r >= p:
        return 0
    rows_idx = list(combinations(range(p), r + 1))
    cols_idx = list(combinations(range(p), r))
    matrix = []
    for row_t in rows_idx:
        row = []
        for col_t in cols_idx:
            alpha = lc.AltForm(p, r, {col_t: Fraction(1)})
            row.append(lc.ce_differential(alg, alpha).coeffs.get(row_t, Fraction(0)))
        matrix.append(row)
    return linalg.rank(matrix) if matrix and matrix[0] else 0
