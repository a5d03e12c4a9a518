"""Oracle tests: the fraction-free elimination against Gauss-Jordan in
Fractions (and sympy), the assembled CE operators against the operators
evaluated form by form from their definitions, the integer relative complex
against relative cohomology in Fractions, the integer subgroup checks against
the checks in Fractions, pinned representatives, the
contraction signs of basis monomials against inversion counts, scalar
arithmetic on factored denominators against expanded denominators (and
sympy), the value and partials of a scalar at a point against sympy's
`diff` and `subs`, the one-pass tokenizer against the line-by-line one, the
dimensions of the fixed spaces at a point against sympy's ranks, and the
linear relations among generator fields against sympy's `linsolve`."""

import math
import operator
import random
from pathlib import Path
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

import reference as ref
from genutil import (random_altform, random_invertible, random_lie_algebra,
                     random_rational, random_scalar, random_so3_automorphism,
                     rational_rotation, so, subgroup_unchecked, transport_algebra)
from liecochain import action_analysis as aa
from liecochain import chart_calculus as cc
from liecochain import dsl, linalg
from liecochain import lie_cohomology as lc
from liecochain import scalar_field as sf

SO3 = lc.LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
O2 = lc.SubgroupSpec.from_vectors([[0, 0, 1]], [[[-1, 0, 0], [0, 1, 0], [0, 0, -1]]])
TRIVIAL = lc.SubgroupSpec.trivial()


# -- elimination ---------------------------------------------------------------

def random_matrix(rng):
    """Rational matrix of a random shape, with zero rows and columns and
    rows copied from combinations of others, so that it is often singular."""
    n_rows, n_cols = rng.randint(0, 6), rng.randint(0, 7)
    density = rng.choice([0.2, 0.5, 1.0])
    m = [[random_rational(rng, 5) if rng.random() < density else Fraction(0)
          for _ in range(n_cols)] for _ in range(n_rows)]
    if n_rows >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(n_rows), 2)
        c = random_rational(rng)
        m[b] = [x + c * y for x, y in zip(m[b], m[a])]
    if n_rows and rng.random() < 0.3:
        m[rng.randrange(n_rows)] = [Fraction(0)] * n_cols
    if n_cols and rng.random() < 0.3:
        j = rng.randrange(n_cols)
        for row in m:
            row[j] = Fraction(0)
    return m


def square_matrix(rng):
    n = rng.randint(0, 5)
    m = [[random_rational(rng, 4) if rng.random() < 0.7 else Fraction(0)
          for _ in range(n)] for _ in range(n)]
    if n >= 2 and rng.random() < 0.3:
        m[1] = [2 * x for x in m[0]]
    return m


def sparse_rows(m):
    return [{c: x for c, x in enumerate(row) if x} for row in m]


def echelon_as_rref(rows, n_rows, n_cols):
    """`Echelon.rows` as Gauss-Jordan's (rows, pivots): dense, pivots in
    column order, zero rows below."""
    pivots = sorted(rows)
    dense = [[rows[c].get(j, Fraction(0)) for j in range(n_cols)] for c in pivots]
    return dense + [[Fraction(0)] * n_cols] * (n_rows - len(pivots)), pivots


def test_echelon_rank_nullspace_match_gauss_jordan():
    rng = random.Random(23)
    for _ in range(400):
        m = random_matrix(rng)
        n_cols = len(m[0]) if m else rng.randint(0, 3)
        sparse = sparse_rows(m)
        for rows in (m, sparse):
            assert echelon_as_rref(linalg.Echelon(rows).rows, len(m), n_cols) == ref.rref(m)
            assert linalg.rank(rows) == ref.rank(m)
            assert linalg.nullspace(rows, range(n_cols)) == ref.nullspace(m or [[0] * n_cols])
        # the integer kernel: primitive, positive in its free column (its last
        # key), and the nullspace vector times that entry
        kernel = linalg.kernel(sparse, range(n_cols))
        for k, v in zip(kernel, linalg.nullspace(sparse, range(n_cols)), strict=True):
            free = next(reversed(k))
            assert all(type(x) is int for x in k.values())
            assert math.gcd(*k.values()) == 1 and k[free] > 0 and v[free] == 1
            assert k == {c: x * k[free] for c, x in enumerate(v) if x}


def test_integer_inverse_matches_gauss_jordan():
    """N / s = m^-1 for (N, s) = `_integer_inverse(m)`, s the lcm of the
    denominators of m^-1."""
    rng = random.Random(29)
    singular = 0
    for _ in range(300):
        m = square_matrix(rng)
        expected = ref.inverse(m)
        if expected is None:
            singular += 1
            with pytest.raises(linalg.SingularMatrix):
                linalg._integer_inverse(m)
        else:
            n, s = linalg._integer_inverse(m)
            assert all(type(x) is int for row in n for x in row)
            assert [[Fraction(x, s) for x in row] for row in n] == expected
            assert s == math.lcm(*(x.denominator for row in expected for x in row))
    assert 20 < singular < 280


def test_echelon_matches_gauss_jordan_dense_and_sparse():
    """A dense and a sparse row give the same sparse row back."""
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        ech, sparse, expected = linalg.Echelon(), linalg.Echelon(), ref.Echelon()
        for _ in range(rng.randint(1, 8)):
            v = random_matrix_row(rng, n, expected)
            want = expected.insert(v)
            want = None if want is None else {c: x for c, x in enumerate(want) if x}
            assert ech.insert(v) == want
            assert sparse.insert({c: x for c, x in enumerate(v) if x}) == want
            assert ech.rows == sparse.rows == {c: {j: x for j, x in enumerate(row) if x}
                                               for c, row in expected.rows.items()}
            w = random_matrix_row(rng, n, expected)
            assert ech.contains(w) == all(x == 0 for x in expected.reduce(w))


def random_matrix_row(rng, n, space):
    """A random row, or one from the space held so far."""
    if space.rows and rng.random() < 0.3:
        v = [Fraction(0)] * n
        for row in space.rows.values():
            c = random_rational(rng)
            v = [x + c * y for x, y in zip(v, row)]
        return v
    return [random_rational(rng, 4) if rng.random() < 0.6 else Fraction(0) for _ in range(n)]


def test_echelon_rows_match_sympy_rref():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    for _ in range(150):
        m = random_matrix(rng)
        if not m or not m[0]:
            continue
        expected, pivots = sympy.Matrix(m).rref()
        rows, got_pivots = echelon_as_rref(linalg.Echelon(m).rows, len(m), len(m[0]))
        assert got_pivots == list(pivots)
        assert rows == [[Fraction(int(x.p), int(x.q)) for x in expected.row(i)]
                        for i in range(expected.rows)]


# -- fixed spaces at a point ---------------------------------------------------

def test_fixed_space_dimensions_match_sympy_ranks():
    """The isotropy basis is a basis of sympy's kernel of G^T, and with
    sympy's basis: dim T = n - rank J and
    dim(T meet V) = dim T + rank G - rank[basis of T; G] in sympy, for J the
    stacked Jacobians of the isotropy fields and G the generators' values,
    on generators at rational points where many of them vanish, some
    components over a linear denominator that is nonzero there."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 3))
        point = draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=n, max_size=n))
        # a component is a list of terms (coefficient, exponents) in the
        # shifted coordinates x_i - point_i, half of them linear, so that
        # the Jacobians are sparse; a generator that does not vanish at the
        # point has values in {-1, 0, 1}, often parallel or in their kernels
        linear = st.sampled_from([tuple(int(i == j) for j in range(n)) for i in range(n)])
        exponents = st.one_of(linear, st.tuples(*[st.integers(0, 2)] * n))
        terms = st.lists(st.tuples(st.integers(-1, 1), exponents), max_size=3)
        values = st.one_of(st.tuples(*[st.integers(-1, 1)] * n), st.just((0,) * n))
        # a denominator c + s * (x_j - point_j) is c at the point
        den = st.one_of(st.none(), st.tuples(st.sampled_from([1, 2, -1]),
                                             st.integers(0, n - 1), st.sampled_from([-1, 1, 2])))
        gens = draw(st.lists(st.tuples(values, st.lists(st.tuples(terms, den),
                                                        min_size=n, max_size=n)),
                             min_size=1, max_size=3))
        return n, point, [[([(c, (0,) * n)] + [t for t in comp if any(t[1])], d)
                           for c, (comp, d) in zip(value, comps)] for value, comps in gens]

    @hypothesis.settings(max_examples=120, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        n, point, gens = case
        chart = cc.Chart(("x", "y", "z")[:n])
        syms = sympy.symbols(chart.coordinates)
        at = {s: sympy.Rational(a.numerator, a.denominator) for s, a in zip(syms, point)}
        fields, sym_fields = [], []
        for comps in gens:
            exprs, sym_exprs = [], []
            for comp, den in comps:
                e, u = sf.ZERO, sympy.Integer(0)
                for c, mono in comp:
                    t, w = sf.rational(c), sympy.Integer(c)
                    for name, sym, a, k in zip(chart.coordinates, syms, point, mono):
                        t = t * (sf.coordinate(name) - sf.rational(a)) ** k
                        w = w * (sym - at[sym]) ** k
                    e, u = e + t, u + w
                if den:
                    c, j, s = den
                    e = e / (c + s * (sf.coordinate(chart.coordinates[j]) - sf.rational(point[j])))
                    u = u / (c + s * (syms[j] - at[syms[j]]))
                exprs.append(e)
                sym_exprs.append(u)
            fields.append(cc.vector_field(chart, exprs))
            sym_fields.append(sympy.Matrix(sym_exprs))
        action = aa.ActionSpec(chart, lc.LieAlgebra(len(gens)), tuple(fields), 1)

        g = sympy.Matrix([list(f.subs(at)) for f in sym_fields])
        isotropy = g.T.nullspace()
        jacobians = [f.jacobian(syms).subs(at) for f in sym_fields]
        j = sympy.Matrix.vstack(sympy.zeros(0, n), *[
            sum((xi[i] * jac for i, jac in enumerate(jacobians)), sympy.zeros(n, n))
            for xi in isotropy])
        dim_t = n - j.rank()
        tangent = j.nullspace() if isotropy else [sympy.eye(n).col(i) for i in range(n)]
        stacked = sympy.Matrix.vstack(g, *[v.T for v in tangent])
        dim_tv = dim_t + g.rank() - stacked.rank()

        basis, tangent_dim, vertical_dim = aa.fixed_space_at(action, point)
        assert len(basis) == len(aa.isotropy_algebra_at(action, point)) == len(isotropy)
        assert all((g.T * sympy.Matrix(xi)).is_zero_matrix for xi in basis)
        assert (tangent_dim, vertical_dim) == (dim_t, dim_tv)
    check()


# -- linear relations among generators -------------------------------------------

def test_generator_kernel_matches_sympy_linsolve():
    """On p fields over an abelian algebra, each a rational combination of
    a few drawn fields or drawn itself, with components that are fractions
    of polynomials in x, y, z and the function symbols K(z), K'(z) and
    h(x, y): every relation xi the kernel returns has sum_j xi_j v_j[i]
    equal to 0 in every component i, the relations are independent, and
    there are as many as the dimension of the solutions that sympy's
    `linsolve` finds for constant c_j with sum_j c_j v_j identically 0.
    sympy sees each function symbol as an indeterminate of its own, as the
    kernel does."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    chart = cc.Chart(("x", "y", "z"))
    gens = sympy.symbols("x y z K Kz h")
    K, h = sf.function("K", ("z",)), sf.function("h", ("x", "y"))
    # (scalar, the same in sympy) for each atom and each denominator
    atoms = list(zip([sf.coordinate(c) for c in "xyz"] + [K, sf.partial(K, "z"), h], gens))
    x, y, z, k, _, _ = gens
    dens = [(sf.ONE, sympy.Integer(1)), (sf.coordinate("x"), x), (K + 1, k + 1), (K + sf.coordinate("z"), k + z),
            ((sf.coordinate("x") ** 2 + 1) * (sf.coordinate("y") + sf.coordinate("z")),
             (x ** 2 + 1) * (y + z))]
    terms = st.tuples(st.integers(-3, 3), st.lists(st.sampled_from(atoms), max_size=2))
    scalars = st.tuples(st.lists(terms, min_size=1, max_size=3), st.sampled_from(dens))
    vectors = st.lists(st.one_of(st.just(None), scalars), min_size=3, max_size=3)
    weights = st.lists(st.fractions(-2, 2, max_denominator=3), min_size=3, max_size=3)

    def scalar(drawn):
        """The drawn scalar as (ScalarExpr, sympy expression); None is 0."""
        if drawn is None:
            return sf.ZERO, sympy.Integer(0)
        ts, (d, sym_d) = drawn
        e = sum((math.prod((a for a, _ in t), start=sf.rational(c)) for c, t in ts), sf.ZERO)
        u = sum(sympy.Integer(c) * math.prod(s for _, s in t) for c, t in ts)
        return e / d, u / sym_d

    @st.composite
    def cases(draw):
        base = [[scalar(c) for c in draw(vectors)] for _ in range(draw(st.integers(1, 3)))]
        planted = []
        for _ in range(draw(st.integers(0, 4 - len(base)))):
            qs = draw(weights)[:len(base)]
            planted.append([(sum((q * v[i][0] for q, v in zip(qs, base)), sf.ZERO),
                             sum(sympy.Rational(q.numerator, q.denominator) * v[i][1]
                                 for q, v in zip(qs, base))) for i in range(3)])
        return draw(st.permutations(base + planted))

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(vecs):
        p = len(vecs)
        fields = tuple(cc.vector_field(chart, [e for e, _ in v]) for v in vecs)
        kernel = aa.generator_kernel(aa.ActionSpec(chart, lc.LieAlgebra(p), fields, 1))
        for xi in kernel:
            for i in range(3):
                assert sf.equals(sum((c * f.components[i] for c, f in zip(xi, fields)), sf.ZERO),
                                 0)
        assert linalg.rank(kernel) == len(kernel)
        cs = sympy.symbols(f"c0:{p}")
        eqs = []
        for i in range(3):
            num = sympy.numer(sympy.together(sum(c * v[i][1] for c, v in zip(cs, vecs))))
            eqs += [e for e in sympy.Poly(sympy.expand(num), *gens).coeffs() if e != 0]
        if eqs:
            solution, = sympy.linsolve(eqs, cs)
            free = set().union(*(sympy.sympify(s).free_symbols for s in solution)) & set(cs)
        else:
            free = cs
        assert len(kernel) == len(free)
    check()


# -- assembled operators ---------------------------------------------------------

def monomial(t):
    return {t: Fraction(1)}


def assert_integers(image):
    assert all(type(x) is int for x in image.values())


def adapted_basis(vectors, p):
    """(B, pivots): the columns of B are the adapted basis of the span of
    the vectors, found by Gauss-Jordan in Fractions: at each pivot column
    of the reduced echelon form its row, scaled to a primitive integer
    vector, and elsewhere the unit vector."""
    rows, pivots = ref.rref(vectors) if vectors else ([], [])
    b = ref.identity(p)
    for row, c in zip(rows, pivots):
        lam = math.lcm(*(x.denominator for x in row))
        for j in range(p):
            b[j][c] = lam * row[j]
    return b, pivots


def assert_assembly_matches(alg, sub):
    """On g/k: in the adapted basis f = B e (`adapted_basis`) and its dual
    basis b, the integer images of each horizontal monomial b^t, t among
    the free columns, are the images from the per-form definitions on the
    algebra moved to f, times one nonzero constant per map and degree: d
    times the bracket scale for the action of each f_c, c a pivot column,
    and (d s)^r for M - 1, when B^-1 = L / d and M^-1 = N / s, s the lcm of
    its denominators.  They have no interior image.  The constraint rows
    are those images as a multiset, on C(p - k, r) columns; the relative
    forms, written back in a, are the Fraction path's; a form satisfies the
    constraints exactly when the Fraction path finds no image; and every
    image of d is the reference's."""
    p = alg.dim
    vectors = [list(v) for v in sub.basis]
    matrices = [[list(row) for row in m] for m in sub.component_reps]
    brackets, scale = alg.integer_brackets, alg.scale
    assert scale == math.lcm(*(c.denominator for rhs in alg.brackets.values()
                               for c in rhs.values()))
    assert {ijk: Fraction(c, scale) for ijk, c in brackets.items()} == \
        {(i, j, k): c for (i, j), rhs in alg.brackets.items() for k, c in rhs.items()}
    assert_integers(brackets)
    b, pivots = adapted_basis(vectors, p)
    b_inv = ref.inverse(b)
    d = math.lcm(*(x.denominator for row in b_inv for x in row))
    moved = transport_algebra(alg, b)
    units = [[Fraction(int(i == c)) for i in range(p)] for c in sorted(pivots)]
    moved_matrices = [ref.matmul(ref.matmul(b_inv, m), b) for m in matrices]
    inverse_lcms = [math.lcm(*(x.denominator for row in ref.inverse(m) for x in row))
                    for m in matrices]
    free = [f for f in range(p) if f not in pivots]
    constraints = lc._Constraints(alg, sub, lc._primitive_basis(sub)[1])
    assert constraints.free == free and constraints.pivots == set(pivots)
    assert (constraints.to_adapted is None) == (b == ref.identity(p))
    for table in constraints.tables:
        assert_integers({(k, j): x for k, row in table.items() for j, x in row.items()})
    for n, s in constraints.inverses:
        assert_integers({(i, j): x for i, row in n.items() for j, x in row.items()})
        assert type(s) is int
    dual = lc._dual_table(brackets)
    for r in range(p + 1):
        factors = [d * scale] * len(units) + [(d * s) ** r for s in inverse_lcms]
        columns = list(combinations(free, r))
        expected_rows = Counter()
        for t in combinations(range(p), r):
            if r < p:
                image = lc._d_image(dual, t)
                assert_integers(image)
                assert {u: Fraction(x, scale) for u, x in image.items()} == \
                    ref.ce_differential(alg.brackets, p, monomial(t), r)
        for t in columns:
            images = ref.relative_constraints(moved.brackets, p, units, moved_matrices,
                                              monomial(t), r)
            if r:
                assert not any(images[:len(units)])
                images = images[len(units):]
            images = [{u: f * x for u, x in image.items()} for f, image in zip(factors, images)]
            assert_integers(constraints.images(t))
            assert constraints.images(t) == {(n, u): x for n, image in enumerate(images)
                                             for u, x in image.items()}
            for n, image in enumerate(images):
                for u, x in image.items():
                    expected_rows[n, u, t] = x
        by_target = {}
        for (n, u, t), x in expected_rows.items():
            by_target.setdefault((n, u), {})[t] = x
        rows, got_columns = constraints.rows(r)
        assert got_columns == columns and len(columns) == math.comb(p - len(pivots), r)
        assert (Counter(tuple(sorted(row.items())) for row in rows)
                == Counter(tuple(sorted(row.items())) for row in by_target.values()))
        forms = constraints.forms(r)
        assert [{t: Fraction(x, v[fc]) for t, x in v.items()}
                for v in forms for fc in [next(reversed(v))]] == \
            ref.relative_forms(alg.brackets, p, vectors, matrices, r)
        for v in forms + [{t: 1} for t in combinations(range(p), r)]:
            assert constraints.hold(v) == (
                not any(ref.relative_constraints(alg.brackets, p, vectors, matrices, v, r)))


def assert_per_form_matches(rng, alg, sub):
    p = alg.dim
    for _ in range(3):
        r = rng.randint(0, p)
        alpha = random_altform(rng, p, r)
        if r < p:
            assert lc.ce_differential(alg, alpha).coeffs == \
                ref.ce_differential(alg.brackets, p, alpha.coeffs, r)
        for v in sub.basis:
            if r:
                assert lc.interior(v, alpha).coeffs == ref.interior(v, alpha.coeffs, p, r)
            assert lc.infinitesimal_action(alg, v, alpha).coeffs == \
                ref.infinitesimal_action(alg.brackets, p, v, alpha.coeffs, r)
        for m in sub.component_reps:
            assert lc.coadjoint_matrix_action(m, alpha).coeffs == \
                ref.coadjoint_matrix_action(m, alpha.coeffs, p, r)


def test_assembled_operators_on_random_algebras():
    rng = random.Random(41)
    for _ in range(25):
        alg = random_lie_algebra(rng, 4)
        p = alg.dim
        # the maps need no subalgebra: any vectors and invertible matrices do,
        # unit vectors (B = 1) or not
        vectors = [[random_rational(rng) for _ in range(p)] for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.3:
            vectors = [[int(i == c) for i in range(p)]
                       for c in rng.sample(range(p), min(p, len(vectors)))]
        matrices = [random_invertible(rng, p) for _ in range(rng.randint(0, 1))]
        sub = lc.SubgroupSpec.from_vectors(vectors, matrices)
        assert_assembly_matches(alg, sub)
        assert_per_form_matches(rng, alg, sub)


def test_assembled_operators_on_so3_conjugates():
    rng = random.Random(43)
    for _ in range(20):
        moved = lc.conjugate_subgroup(SO3, O2, random_so3_automorphism(rng))
        assert_assembly_matches(SO3, moved)
        assert_per_form_matches(rng, SO3, moved)
        # RP^2 = SO(3)/O(2), whichever conjugate of O(2)
        assert [lc.relative_cohomology(SO3, moved, r).dimension for r in range(4)] == [1, 0, 0, 0]


# -- contraction signs of basis monomials --------------------------------------------

def test_basis_contraction_signs_match_inversion_count():
    """On every chart of dimension at most 5 and every pair of basis
    monomials: contracting d(I) by D(J), and a^I by e_j for j in J in turn,
    gives the inversion-count sign of J followed by I without J, times the
    monomial on I without J, when J is inside I, and zero otherwise."""
    for n in range(1, 6):
        chart = cc.Chart(tuple("xyzuv"[:n]))
        unit = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
        for k in range(n + 1):
            for big in combinations(range(n), k):
                form = cc.DiffForm(chart, k, {big: sf.ONE})
                alpha = lc.AltForm(n, k, {big: 1})
                for q in range(k + 1):
                    for small in combinations(range(n), q):
                        chain = cc.MultiVectorField(chart, q, {small: sf.ONE})
                        got = cc.interior_multivector(chain, form).coeffs
                        if not set(small) <= set(big):
                            assert got == {}
                            continue
                        rest = tuple(i for i in big if i not in small)
                        sign = ref.inversion_sign(small + rest)
                        assert got == {rest: sf.rational(sign)}
                        contracted = alpha
                        for j in small:
                            contracted = lc.interior(unit[j], contracted)
                        assert contracted.coeffs == {rest: sign}


# -- pinned representatives ---------------------------------------------------------

def _transported_so4_circle():
    m = [[Fraction(int(i == j)) + (Fraction(1, 2) if j == i + 1 else 0)
          - (Fraction(2, 3) if (i, j) == (5, 0) else 0) for j in range(6)] for i in range(6)]
    v = linalg.matvec(ref.inverse(m), [Fraction(1)] + [Fraction(0)] * 5)
    return transport_algebra(so(4), m), lc.SubgroupSpec.from_vectors([v])


PINNED = [
    ("so4/circle H2", lambda: (so(4), lc.SubgroupSpec.from_vectors([[1, 0, 0, 0, 0, 0]])), 2,
     ["a2^a4 + a3^a5"]),
    ("so5 H2", lambda: (so(5), TRIVIAL), 2, []),
    ("so5 H3", lambda: (so(5), TRIVIAL), 3,
     ["a1^a2^a5 + a1^a3^a6 + a1^a4^a7 + a2^a3^a8 + a2^a4^a9 + a3^a4^a10 + a5^a6^a8"
      " + a5^a7^a9 + a6^a7^a10 + a8^a9^a10"]),
    ("so3/O2 H1", lambda: (SO3, O2), 1, []),
    ("so3/O2 H2", lambda: (SO3, O2), 2, []),
    ("aff1 H1", lambda: (lc.LieAlgebra(2, {(0, 1): {1: -1}}), TRIVIAL), 1, ["a1"]),
    ("so4 H3", lambda: (so(4), TRIVIAL), 3,
     ["a3^a5^a6", "a1^a2^a4 + a1^a3^a5 + a2^a3^a6 + a4^a5^a6"]),
    ("transported so4/circle H2", _transported_so4_circle, 2,
     ["a2^a4 + 1/2*a2^a5 + 1/2*a3^a4 + 5/4*a3^a5 + 1/2*a3^a6 + 1/2*a4^a5 + 1/4*a4^a6"]),
]


@pytest.mark.parametrize("name,make,degree,expected", PINNED, ids=[p[0] for p in PINNED])
def test_pinned_representatives(name, make, degree, expected):
    alg, sub = make()
    res = lc.relative_cohomology(alg, sub, degree)
    assert [dsl.altform_dsl(r) for r in res.representatives] == expected


# -- the integer complex against the Fraction path ---------------------------------

def _so_signs(n, signs):
    """Ad of diag(signs) on so(n): E_ab goes to signs[a] * signs[b] * E_ab."""
    return [signs[a] * signs[b] for a, b in combinations(range(n), 2)]


# name -> (algebra, the basis vectors that span a subgroup, diagonal of an
# automorphism that keeps their span: a component).  Besides circles, and
# O(2) on so(3), so(4) gives S^3 = SO(4)/SO(3) and S^2 x S^2 =
# SO(4)/(SO(2) x SO(2)); the other pairs of `test_homogeneous_spaces` take
# the Fraction path 14 s (CP^2) to minutes (so(5) and up) per example.
COMPLEX_CASES = {
    "so3": (so(3), (0,), _so_signs(3, (1, -1, -1))),
    "so4": (so(4), (0,), _so_signs(4, (1, -1, -1, 1))),
    "so4/so3": (so(4), (0, 1, 3), _so_signs(4, (1, -1, -1, 1))),
    "so4/torus": (so(4), (0, 5), _so_signs(4, (1, -1, -1, 1))),
    "h3": (lc.LieAlgebra(3, {(0, 1): {2: 1}}), (2,), [1, -1, -1]),
    "aff1": (lc.LieAlgebra(2, {(0, 1): {1: -1}}), (1,), [1, -1]),
    **{f"ab{k}": (lc.LieAlgebra(k), (0,), [-1] + [1] * (k - 1)) for k in (1, 2, 3, 4)},
}
ENTRIES = [Fraction(1, 2), Fraction(-3, 5), Fraction(2), Fraction(-1), Fraction(3, 4),
           Fraction(-5, 3), Fraction(1), Fraction(2, 7)]


def moved_case(name, kind, rng, broken=False):
    """The algebra and its trivial subgroup, the connected one of its span,
    or that with its component (kind "trivial", "span" or "component"), in
    the basis f_i = P e_i for a seeded rational P: non-unit diagonal entries
    and up to 2 dim more anywhere.  `broken` puts in the component diag(1,
    .., 1, 2) instead, which keeps the span and, unless the algebra is
    abelian, is no automorphism."""
    alg, span, signs = COMPLEX_CASES[name]
    n = alg.dim
    while True:
        p = [[rng.choice(ENTRIES) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, 2 * n)):
            p[rng.randrange(n)][rng.randrange(n)] = rng.choice(ENTRIES)
        p_inv = ref.inverse(p)
        if p_inv is not None:
            break
    vectors = [[Fraction(int(i == k)) for i in range(n)] for k in span if kind != "trivial"]
    diagonals = [signs] if kind == "component" else []
    if broken:
        diagonals = [[1] * (n - 1) + [2]]
    matrices = [[[Fraction(d[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
                for d in diagonals]
    sub = lc.SubgroupSpec.from_vectors(
        [linalg.matvec(p_inv, v) for v in vectors],
        [ref.matmul(ref.matmul(p_inv, m), p) for m in matrices])
    return transport_algebra(alg, p), sub


def assert_complex_matches_reference(alg, sub, valid=True):
    """Every degree: the cohomology, the relative dimensions and the
    representatives equal the Fraction path's exactly, and the public
    relative bases its pivot-normalised relative forms; or both paths find
    that d leaves the relative forms.  `valid` says whether the subgroup
    passes validation; one that does not is let past it."""
    vectors = [list(v) for v in sub.basis]
    matrices = [[list(row) for row in m] for m in sub.component_reps]
    raised = 0
    for r in range(alg.dim + 1):
        with subgroup_unchecked():
            assert [b.coeffs for b in lc.relative_basis(alg, sub, r)] == \
                ref.relative_forms(alg.brackets, alg.dim, vectors, matrices, r)
        try:
            want = ref.relative_cohomology(alg.brackets, alg.dim, vectors, matrices, r)
        except ref.RelativeComplexNotClosed:
            with subgroup_unchecked(), pytest.raises(lc.RelativeComplexNotClosed):
                lc.relative_cohomology(alg, sub, r)
            raised += 1
            continue
        if valid:
            got = lc.relative_cohomology(alg, sub, r)
        else:
            with subgroup_unchecked():
                got = lc.relative_cohomology(alg, sub, r)
        assert (got.dimension, got.relative_dims,
                [rep.coeffs for rep in got.representatives]) == want
    return raised


def test_integer_complex_matches_fraction_path():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(sorted(COMPLEX_CASES)),
                      st.sampled_from(["trivial", "span", "component"]),
                      st.booleans(), st.integers(0, 2 ** 32 - 1))
    def check(name, kind, broken, seed):
        alg, sub = moved_case(name, kind, random.Random(seed), broken)
        valid = not lc.validate_subgroup(alg, sub)
        assert valid or broken
        assert_complex_matches_reference(alg, sub, valid)

    check()


def test_both_paths_find_the_complex_not_closed():
    # diag(1, 1, 2) fixes a 2-dimensional space of 1-forms on so(3) but is no
    # automorphism, in the standard basis and in moved ones
    rng = random.Random(47)
    for _ in range(5):
        alg, sub = moved_case("so3", "trivial", rng, broken=True)
        assert lc.validate_subgroup(alg, sub)
        assert assert_complex_matches_reference(alg, sub, valid=False) >= 1


# -- subgroup validation against the Fraction checks -------------------------------

DEFECTS = ["singular", "dependent", "not closed", "moves the span"]


def with_defect(rng, n, sub, defect):
    """The subgroup with one defect put in: a singular component matrix, a
    vector dependent on the others, random vectors (whose span is seldom
    closed) or a random invertible component (which seldom keeps the span)."""
    vectors = [list(v) for v in sub.basis]
    matrices = [[list(row) for row in m] for m in sub.component_reps]
    if defect == "singular":
        m = random_invertible(rng, n)
        m[-1] = [random_rational(rng) * x for x in m[0]] if n > 1 else [Fraction(0)]
        matrices.insert(rng.randint(0, len(matrices)), m)
    elif defect == "dependent":
        c = random_rational(rng)
        vectors.append([c * x for x in vectors[0]] if vectors else [Fraction(0)] * n)
    elif defect == "not closed":
        vectors += [[random_rational(rng) for _ in range(n)] for _ in range(rng.randint(1, 2))]
    else:
        matrices.append(random_invertible(rng, n))
    return lc.SubgroupSpec.from_vectors(vectors, matrices)


def assert_validation_matches_reference(alg, sub):
    vectors = [list(v) for v in sub.basis]
    matrices = [[list(row) for row in m] for m in sub.component_reps]
    assert lc.validate_subgroup(alg, sub) == \
        ref.validate_subgroup(alg.brackets, alg.dim, vectors, matrices)
    for m in matrices:
        if ref.inverse(m) is not None:
            assert lc.is_automorphism(alg, m) == ref.is_automorphism(alg.brackets, alg.dim, m)


def test_subgroup_validation_matches_the_fraction_checks():
    """The same problem strings in the same order as the checks in
    Fractions, on the moved cases (broken or not) and on subgroups with a
    defect put in."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(sorted(COMPLEX_CASES)),
                      st.sampled_from(["trivial", "span", "component"]), st.booleans(),
                      st.sampled_from([None] + DEFECTS), st.integers(0, 2 ** 32 - 1))
    def check(name, kind, broken, defect, seed):
        rng = random.Random(seed)
        alg, sub = moved_case(name, kind, rng, broken)
        if defect:
            sub = with_defect(rng, alg.dim, sub, defect)
        assert_validation_matches_reference(alg, sub)

    check()
    # rotations of so(3) preserve brackets, and the line e_2 when it is their axis
    rng = random.Random(53)
    for axis in (0, 1, 2):
        turned = lc.SubgroupSpec.from_vectors([[0, 0, 1]], [rational_rotation(rng, axis)])
        assert_validation_matches_reference(so(3), turned)
        assert lc.validate_subgroup(so(3), turned) == (
            [] if axis == 2 else ["component matrix 0 does not preserve the subalgebra"])


# -- scalar arithmetic on factored denominators ------------------------------------

COORDS = ("x", "y", "z")
FUNCS = (("K", ("z",)), ("a", ("x",)))
BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def random_tree(rng, funcs, depth=3):
    """A random expression tree over random_scalar leaves (+ - * /, partial
    derivatives and small powers) with its value.  A division by zero
    becomes a product, a negative power of zero a square."""
    if depth == 0 or rng.random() < 0.2:
        leaf = random_scalar(rng, COORDS, funcs)
        return ("leaf", leaf), leaf
    op = rng.choice(["+", "-", "*", "/", "d", "d", "^"])
    a, va = random_tree(rng, funcs, depth - 1)
    if op == "d":
        c = rng.choice(COORDS)
        return ("d", a, c), sf.partial(va, c)
    if op == "^":
        n = rng.choice([-1, 0, 2, 3])
        if n < 0 and va.is_zero():
            n = 2
        return ("^", a, n), va ** n
    b, vb = random_tree(rng, funcs, depth - 1)
    if op == "/" and vb.is_zero():
        op = "*"
    return (op, a, b), BINARY[op](va, vb)


def evaluate(tree, leaf, partial):
    op = tree[0]
    if op == "leaf":
        return leaf(tree[1])
    if op == "d":
        return partial(evaluate(tree[1], leaf, partial), tree[2])
    if op == "^":
        return evaluate(tree[1], leaf, partial) ** tree[2]
    return BINARY[op](evaluate(tree[1], leaf, partial), evaluate(tree[2], leaf, partial))


def random_trees(seed, count, funcs):
    rng = random.Random(seed)
    return [random_tree(rng, funcs) for _ in range(count)]


def old_value(tree):
    return evaluate(tree, ref.ExpandedFraction.of, lambda e, c: e.partial(c))


def test_factored_matches_expanded_denominators():
    for tree, new in random_trees(41, 150, FUNCS):
        old = old_value(tree)
        assert sf.equals(new, old.expr())
        assert old.equals(ref.ExpandedFraction.of(new))


def test_factored_matches_expanded_denominators_at_points():
    rng = random.Random(43)
    compared = 0
    for tree, new in random_trees(47, 150, ()):
        old = old_value(tree)
        for _ in range(3):
            point = {c: random_rational(rng, 7) for c in COORDS}
            try:
                want = old.eval_at(point)
                got = new.eval_at(point)
            except (ZeroDivisionError, sf.PoleAtPoint):
                continue
            assert got == want
            compared += 1
    assert compared > 300


def _sympy_text(e):
    return sf.dsl_str(e).replace("^", "**")


def test_factored_denominators_against_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    names = {c: sympy.Symbol(c) for c in COORDS}
    for tree, new in random_trees(53, 40, ()):
        want = evaluate(tree, lambda e: sympy.sympify(_sympy_text(e), locals=names),
                        lambda e, c: sympy.diff(e, names[c]))
        got = sympy.sympify(_sympy_text(new), locals=names)
        assert sympy.cancel(got - want) == 0


# The most term products, by the bound n * t * C(n + t - 1, t - 1) of raising
# a t-term numerator by n successive products, that one drawn power may
# take: the n-fold products of the reference dominate the run.
POWER_TEST_WORK = 5_000
POWER_VARIABLES = ("x", "y", sf.FunctionSymbol("K", ("z",), (0,)),
                   sf.FunctionSymbol("K", ("z",), (1,)))


def test_power_matches_repeated_products():
    """e ** n equals `reference.power_by_products(e, n)`, an n-fold product
    of `*`, by == and by its text, for n in -4..12.  The bases have function
    symbols, rational contents and factored denominators, and include zero,
    binomials (a rest of one term), and sums and quotients over one factor
    whose exponents differ by 2 or more; each base is checked against the
    same operations on expanded denominators first."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    term = st.tuples(st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 4])),
                     st.tuples(*[st.integers(0, 2)] * 4))
    seen = Counter()

    def poly(draw, min_terms=0):
        """A random polynomial of at least min_terms terms, with its
        expanded-denominator mirror."""
        p = sf.polynomial([(c, tuple((v, k) for v, k in zip(POWER_VARIABLES, mono) if k))
                           for c, mono in draw(st.lists(term, min_size=min_terms, max_size=3))])
        if len(p.num) < min_terms:
            hypothesis.reject()
        return p, ref.ExpandedFraction(ref.view(p)[0])

    @st.composite
    def bases(draw):
        shape = draw(st.sampled_from(["poly", "fraction", "sum", "quotient"]))
        e, mirror = poly(draw)
        if shape == "fraction":
            for _ in range(draw(st.integers(1, 2))):
                f, mf = poly(draw, 1)
                k = draw(st.integers(1, 3))
                e, mirror = e / f ** k, mirror / mf ** k
        elif shape != "poly":
            f, mf = poly(draw, 2)
            i = draw(st.integers(0, 2))
            j = i + draw(st.integers(2, 3))
            b, mb = poly(draw, 1)
            if shape == "sum":
                if draw(st.booleans()):
                    i, j = j, i
                e, mirror = e / f ** i + b / f ** j, mirror / mf ** i + mb / mf ** j
            else:
                e, mirror = e / f ** i / (b / f ** j), mirror / mf ** i / (mb / mf ** j)
        assert mirror.equals(ref.ExpandedFraction.of(e))
        return shape, e

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(bases(), st.integers(-4, 12))
    def check(base, n):
        shape, e = base
        if e.is_zero() and n < 0:
            with pytest.raises(sf.DivisionByZeroExpr):
                ref.power_by_products(e, n)
            with pytest.raises(sf.DivisionByZeroExpr):
                e ** n
            seen["zero"] += 1
            return
        t = len((e if n >= 0 else sf.ONE / e).num)
        if t and abs(n) * t * math.comb(abs(n) + t - 1, t - 1) > POWER_TEST_WORK:
            hypothesis.reject()
        got = e ** n
        want = ref.power_by_products(e, n)
        assert got == want
        assert sf.dsl_str(got) == sf.dsl_str(want)
        seen[shape] += 1
        seen["zero"] += e.is_zero()
        seen["binomial"] += len(e.num) == 2 and n > 1
        seen["negative"] += n < 0
        seen["symbols"] += any(v.__class__ is sf.FunctionSymbol for v in e.num.vs)
    check()
    assert min(seen[k] for k in ("poly", "fraction", "sum", "quotient", "zero", "binomial",
                                 "negative", "symbols")) >= 5, seen


def _outcome(call):
    """A call's value, or the class and message of the scalar error it raises."""
    try:
        return call()
    except sf.ScalarError as exc:
        return type(exc), str(exc)


def point_jet(e, point):
    """The value of e at the point and its partials by x, y and z there, as
    one jet, which equals the value and the symbolic partials evaluated."""
    value, grad = e.jet_at(point, COORDS)
    try:
        symbolic = [sf.partial(e, c).eval_at(point) for c in COORDS]
    except sf.WorkLimit:   # over the work limit; sympy still checks the jet
        symbolic = grad
    assert (value, grad) == (e.eval_at(point), symbolic)
    return value, tuple(grad)


def test_point_jets_match_sympy():
    """At seeded rational points, the value and the partials of a random
    fraction with factored denominators equal sympy's `diff` and `subs` of
    its text.  Where `eval_at` raises (a point on a denominator factor, a
    function symbol, a coordinate without a value), the jet raises the same
    error with the same message."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    names = {c: sympy.Symbol(c) for c in COORDS}
    value = st.fractions(-2, 2, max_denominator=3)
    terms = st.lists(st.tuples(st.integers(-3, 3), st.tuples(*[st.integers(0, 2)] * 3)),
                     min_size=1, max_size=4)
    seen = Counter()

    def poly(draw, point):
        """A random polynomial; often shifted to vanish at the point, often
        times a function symbol."""
        p = sf.polynomial([(c, tuple((v, k) for v, k in zip(COORDS, mono) if k))
                           for c, mono in draw(terms)])
        if draw(st.booleans()) and p.eval_at(point) != 0:
            p = p - p.eval_at(point)
        if draw(st.integers(0, 5)) == 0:
            p = p * sf.function(*draw(st.sampled_from(FUNCS)))
        return p

    @st.composite
    def cases(draw):
        point = dict(zip(COORDS, draw(st.tuples(value, value, value))))
        e = sf.ZERO
        for _ in range(draw(st.integers(1, 2))):
            den = sf.ONE
            for _ in range(draw(st.integers(0, 2))):
                if not (f := poly(draw, point)).is_zero():
                    den = den * f ** draw(st.integers(1, 3))
            try:
                e = e + poly(draw, point) / den
            except sf.WorkLimit:   # a common denominator over the work limit
                hypothesis.reject()
        if draw(st.integers(0, 7)) == 0:
            del point["z"]
        return e, point

    @hypothesis.settings(max_examples=200, deadline=None, database=None)
    @hypothesis.given(cases())
    def check(case):
        e, point = case
        want = _outcome(lambda: e.eval_at(point))
        got = _outcome(lambda: point_jet(e, point))
        if isinstance(want, tuple):
            seen[want[0].__name__] += 1
            assert got == want
            return
        seen["value"] += 1
        u = sympy.sympify(_sympy_text(e), locals=names)
        at = {names[c]: sympy.Rational(a.numerator, a.denominator) for c, a in point.items()}
        expected = (u.subs(at),) + tuple(sympy.diff(u, names[c]).subs(at) for c in COORDS)
        assert got[0] == want
        assert [sympy.Rational(x.numerator, x.denominator) for x in (got[0],) + got[1]] == \
            list(expected)
    check()
    assert min(seen[k] for k in ("value", "PoleAtPoint", "UnresolvedFunctionSymbol",
                                 "UnknownCoordinate")) >= 3, seen


def test_dsl_round_trip_is_structural():
    head = "chart M { coords = [x, y, z] }\nfunction K(z)\nfunction a(x)\n"
    for _, e in random_trees(59, 100, FUNCS):
        ws = dsl.parse(head + f"form w on M = {sf.dsl_str(e)}\n")
        assert ws.forms["w"].coefficient(()) == e


# -- tokenizer ------------------------------------------------------------------

FIXTURES = Path(__file__).parent / "fixtures"


def _scan(text):
    """`dsl._tokenize` as (kind, text, line, column) tuples up to the first
    EOF token (""), each placed by `dsl._Source.span`, or the error message
    and span."""
    try:
        tokens = dsl._tokenize(text, "ws.lch")
    except dsl.ParseError as exc:
        return str(exc), exc.span
    end = tokens.index("")
    assert tokens[end:end + 2] == ["", ""] and not any(tokens[end:])
    source = dsl._Source(text, "ws.lch")

    def kind(t):
        return ("eof" if not t else "int" if t.isdigit() else "name" if t.isidentifier()
                else "op")
    spans = [source.span(i) for i in range(end + 1)]
    assert all(s.length == max(len(t), 1) for s, t in zip(spans, tokens))
    return [(kind(t), t, s.line, s.column) for t, s in zip(tokens, spans)]


def _scan_reference(text):
    try:
        return ref.tokenize(text, "ws.lch")
    except dsl.ParseError as exc:
        return str(exc), exc.span


TOKENIZER_EDGE_CASES = [
    "", "\n", "\n\n  \n", "# only a comment", "# one\n# two\n", "x # tail\ny",
    "chart M {\r\n  coords = [x, y]\r\n}\r\n", "\tform w on M = d(x)\t\n",
    "a1_b2 12x x12 _", "1/2*x^-3", "x\r", "  \t  ", "é", "x = 1 é", "a\nb\n  .",
    "x\x0cy", "x\x0by", "x\u2028y", "D(x)^D(y) # é\n;", "chain c on M = D(x)\n\n\n",
]


@pytest.mark.parametrize("text", TOKENIZER_EDGE_CASES + [
    (FIXTURES / name).read_text() for name in sorted(p.name for p in FIXTURES.glob("*.lch"))])
def test_tokenizer_matches_reference(text):
    assert _scan(text) == _scan_reference(text)


def test_tokenizer_matches_reference_on_random_text():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    fragments = ["chart", "M", "D(x)", "d(y)", "x1", "_a", "12", "e2", " ", "\t", "\r",
                 "\n", "\r\n", "# note ", "#", "{", "}", "[", "]", "=", ",", "^", "-",
                 "/", "*", "+", ".", ";", "é", "\x0b", "\u2028", "'"]
    texts = st.one_of(
        st.text(alphabet="abxyzKDd_0129{}[]()=,+-*/^ \t\r\n#.;@é\x0b\x0c\u2028'",
                max_size=60),
        st.lists(st.sampled_from(fragments), max_size=40).map("".join))

    @hypothesis.settings(max_examples=500, deadline=None, database=None)
    @hypothesis.given(texts)
    def check(text):
        assert _scan(text) == _scan_reference(text)
    check()


# -- the reader against a fold of scalar and chart operations -------------------
#
# A random workspace on M = (x, y, z) is written two ways: as text, and as a
# fold of public `scalar_field` and `chart_calculus` operations over the same
# trees, operands left to right.  Every compound expression is written inside
# parentheses, so each operation that can fail on a value is reported either
# at its '/' or at the ')' right after its last operand.

READER_M = cc.Chart(COORDS)
READER_CLASSES = {"form": cc.DiffForm, "chain": cc.MultiVectorField}


class _Fails(Exception):
    """The fold failed at the operation whose report token is at `offset`."""

    def __init__(self, offset):
        super().__init__(offset)
        self.offset = offset


def reader_workspaces(st):
    """Lists of declarations (keyword, name, tree); a tree is a tuple
    (operation, operands...), typed as it is drawn.  The first two
    declarations are a form and a chain of degree 0 from scalar trees, and
    later ones read earlier ones by name."""
    scalar_leaves = [st.integers(0, 3).map(lambda n: ("int", n)),
                     st.sampled_from(COORDS).map(lambda c: ("coord", c)), st.just(("K",))]

    def expr(draw, kind, degree, names, depth):
        """A tree of this kind ("scalar", "form" or "chain") and degree."""
        if kind == "scalar":
            leaves = scalar_leaves
            ops = ["neg", "add", "sub", "mul", "div", "divpow", "pow", "pow", "big", "partial"]
        else:
            named = [n for n, k, g in names if (k, g) == (kind, degree)]
            leaves = [st.sampled_from(named).map(lambda n: ("name", n))] if named else []
            if degree == 1:
                leaves.append(st.sampled_from(COORDS).map(lambda c: ("basis", kind, c)))
            ops = ["neg", "add", "sub", "mul", "div", "divpow"]
            ops += ["wedge", "wedgecall"] if degree else ["lift"]
        if leaves and (depth == 0 or draw(st.integers(0, 3)) == 0):
            return draw(st.one_of(*leaves))
        op = draw(st.sampled_from(ops)) if depth else "wedge"
        sub = max(depth - 1, 0)
        if op == "neg":
            return ("neg", expr(draw, kind, degree, names, sub))
        if op in ("add", "sub"):
            return (op, expr(draw, kind, degree, names, sub), expr(draw, kind, degree, names, sub))
        if op in ("lift", "mul"):   # a scalar and a tensor, in either order
            pair = [expr(draw, "scalar", 0, names, sub), expr(draw, kind, degree, names, sub)]
            op = draw(st.sampled_from(["add", "sub"])) if op == "lift" else op
            return (op, *draw(st.permutations(pair)))
        if op in ("div", "divpow"):
            out = (op, expr(draw, kind, degree, names, sub), expr(draw, "scalar", 0, names, sub))
            return out + ((draw(st.sampled_from([-2, -1, 2, 3])),) if op == "divpow" else ())
        if op == "pow":
            return ("pow", expr(draw, kind, 0, names, sub), draw(st.integers(-2, 3)))
        if op == "big":   # over the work limit unless the base has one term or none
            return ("pow", ("add", expr(draw, kind, 0, names, sub), ("coord", "y")), 3000)
        if op == "partial":
            return ("partial", expr(draw, kind, 0, names, sub), draw(st.sampled_from(COORDS)))
        left = draw(st.integers(0, degree)) if depth else 1
        return (op, expr(draw, kind, left, names, sub),
                expr(draw, kind, degree - left, names, sub))

    @st.composite
    def workspaces(draw):
        names, decls = [], []
        for i in range(draw(st.integers(2, 5))):
            kind = ("form", "chain")[i] if i < 2 else draw(st.sampled_from(["form", "chain"]))
            degree = draw(st.integers(0, 2)) if i >= 2 else 0
            tree = expr(draw, kind if i >= 2 else "scalar", degree, names,
                        draw(st.integers(1, 3)))
            decls.append((kind, f"{kind[0]}{i}", tree))
            names.append((f"{kind[0]}{i}", kind, degree))
        return decls

    return workspaces()


def reader_text(decls):
    """The workspace text of the declarations, and the offset of the report
    token of each tree that can fail, by id."""
    out, marks = ["chart M { coords = [x, y, z] }\nfunction K(z)\n"], {}

    def put(s):
        out.append(s)
        return sum(map(len, out)) - len(s)

    def emit(t):
        op = t[0]
        if op == "int":
            put(str(t[1]))
        elif op == "coord":
            put(t[1])
        elif op == "K":
            put("K(z)")
        elif op == "basis":
            put(("d" if t[1] == "form" else "D") + f"({t[2]})")
        elif op == "name":
            put(t[1])
        else:
            put("(")
            if op == "neg":
                put("-")
                emit(t[1])
            elif op in ("add", "sub", "mul", "wedge"):
                emit(t[1])
                put({"add": " + ", "sub": " - ", "mul": "*", "wedge": "^"}[op])
                emit(t[2])
            elif op in ("div", "divpow"):
                emit(t[1])
                marks[id(t), "/"] = put("/")
                emit(t[2])
                if op == "divpow":
                    put(f"^{t[3]}")
            elif op == "pow":
                emit(t[1])
                put(f"^{t[2]}")
            elif op == "partial":
                put("D(")
                emit(t[1])
                put(f", {t[2]})")
            elif op == "wedgecall":
                put("wedge(")
                emit(t[1])
                put(", ")
                emit(t[2])
                put(")")
            marks[id(t)] = put(")")

    for kind, name, tree in decls:
        put(f"{kind} {name} on M = ")
        emit(tree)
        put("\n")
    return "".join(out), marks


def reader_fold(decls, marks):
    """{name: value} of each declaration, folded from public operations;
    _Fails at the first operation that fails, in text order."""
    values = {}

    def lift(v, cls):
        return cls(READER_M, 0, {(): v}) if isinstance(v, sf.ScalarExpr) else v

    def at(t, key, fn, *args):
        try:
            return fn(*args)
        except sf.ScalarError:
            raise _Fails(marks[key]) from None

    def fold(t):
        op = t[0]
        if op == "int":
            return sf.rational(t[1])
        if op == "coord":
            return sf.coordinate(t[1])
        if op == "K":
            return sf.function("K", ("z",))
        if op == "basis":
            return READER_CLASSES[t[1]](READER_M, 1, {(COORDS.index(t[2]),): sf.ONE})
        if op == "name":
            return values[t[1]]
        if op == "neg":
            return -fold(t[1])
        if op in ("pow", "partial"):
            a = fold(t[1])
            return at(t, id(t), operator.pow if op == "pow" else sf.partial, a, t[2])
        a, b = fold(t[1]), fold(t[2]) if op not in ("div", "divpow") else None
        if op in ("div", "divpow"):
            b = at(t, (id(t), "/"), operator.truediv, sf.ONE, fold(t[2]))
            if op == "divpow":
                b = at(t, id(t), operator.pow, b, t[3])
            op = "mul"
        if op in ("add", "sub"):
            kinds = {type(v) for v in (a, b)} - {sf.ScalarExpr}
            if kinds:
                cls, = kinds
                a, b = lift(a, cls), lift(b, cls)
            return at(t, id(t), operator.add if op == "add" else operator.sub, a, b)
        if op == "mul":
            if isinstance(a, sf.ScalarExpr) and isinstance(b, sf.ScalarExpr):
                return a * b
            s, v = (a, b) if isinstance(a, sf.ScalarExpr) else (b, a)
            return v.scaled(s)
        return at(t, id(t), lambda u, v: u.wedge(v), a, b)

    for kind, name, tree in decls:
        values[name] = lift(fold(tree), READER_CLASSES[kind])
    return values


def test_reader_matches_a_fold_of_public_operations():
    """`dsl.parse` gives each declaration the value of the fold of its tree,
    or, where the fold fails on a value (a zero divisor, a negative power of
    zero, a power over the work limit), raises at the same span."""
    hypothesis = pytest.importorskip("hypothesis")
    seen = Counter()

    @hypothesis.settings(max_examples=300, deadline=None, database=None)
    @hypothesis.given(reader_workspaces(hypothesis.strategies))
    def check(decls):
        text, marks = reader_text(decls)
        try:
            want = reader_fold(decls, marks)
        except _Fails as fail:
            with pytest.raises(dsl.ParseError) as caught:
                dsl.parse(text, "w.lch")
            line = text.count("\n", 0, fail.offset) + 1
            column = fail.offset - text.rfind("\n", 0, fail.offset)
            assert (caught.value.span.line, caught.value.span.column) == (line, column), text
            seen["fails"] += 1
            return
        ws = dsl.parse(text, "w.lch")
        for kind, name, _ in decls:
            assert getattr(ws, kind + "s")[name] == want[name], (text, name)
        seen["values"] += 1
    check()
    assert seen["fails"] > 20 and seen["values"] > 100, seen
