"""Seeded random generators for property suites: expressions, tensors,
Lie algebras (valid by construction: known tables transported along random
invertible basis changes), and rational automorphisms; and small
constructors and checks that only the tests use."""

from fractions import Fraction
from itertools import combinations
from math import prod
from types import SimpleNamespace
from unittest import mock

import reference as ref
from liecochain import action_analysis as aa
from liecochain import chart_calculus as cc
from liecochain import lie_cohomology as lc
from liecochain import linalg
from liecochain import scalar_field as sf
from liecochain.lie_cohomology import AltForm, LieAlgebra


# -- constructors and checks only the tests use -------------------------------


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def basis_vector(chart, name):
    comps = [sf.ZERO] * chart.dim
    comps[chart.index(name)] = sf.ONE
    return cc.vector_field(chart, comps)


def evaluate_vectorfield_at(x, point):
    pt = x.chart.point_map(point)
    return [c.eval_at(pt) for c in x.components]


def basis_covector(dim, i):
    return AltForm(dim, 1, {(i,): Fraction(1)})


class AltMultiVec(AltForm):
    """Constant alternating q-vector on the algebra."""

    kind = "multivector"


def pairing(alpha, chi):
    """Full contraction of an r-form with an r-vector."""
    if alpha.degree != chi.degree or alpha.dim != chi.dim:
        raise ValueError("pairing needs equal degrees on the same algebra")
    return sum((c * alpha.coefficient(idx) for idx, c in chi.coeffs.items()), Fraction(0))


def satisfies_relative_constraints(algebra, sub, alpha):
    """alpha is annihilated by and invariant under the subalgebra, and fixed
    by every component matrix: the defining conditions of a relative form."""
    for v in sub.basis:
        if alpha.degree and not lc.interior(list(v), alpha).is_zero():
            return False
        if not lc.infinitesimal_action(algebra, list(v), alpha).is_zero():
            return False
    return all(lc.coadjoint_matrix_action(m, alpha) == alpha for m in sub.component_reps)


def subgroup_unchecked():
    """Within the `with` block, `relative_basis` and `relative_cohomology`
    skip subgroup validation, so inconsistent data reaches the check that
    d keeps the relative forms."""
    return mock.patch.object(lc, "_require_valid_subgroup", lambda *args: None)


class HomomorphismViolation(aa.ActionError):
    pass


class RankDeficit(aa.ActionError):
    pass


def require_valid_action(action, sample_points=()):
    """Raise on the first bracket violation, then on the first rank failure."""
    for i, j, residual in aa.bracket_violations(action):
        raise HomomorphismViolation(
            f"generators {i + 1}, {j + 1} do not realize the bracket; "
            f"residual components {[str(c) for c in residual.components]}")
    for point, r in aa.rank_failures(action, sample_points):
        raise RankDeficit(f"generator rank {r} != {action.orbit_dim} at {point}")


def eval_at(e, point):
    return sf.normalize(e).eval_at(point)


def proportionality(e1, e2):
    """The factor lambda with e1 = lambda * e2, as an exact fraction."""
    e2 = sf.normalize(e2)
    if e2.is_zero():
        raise sf.DivisionByZeroExpr("proportionality against the zero expression")
    return sf.normalize(e1) / e2


def random_rational(rng, span=3):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_scalar(rng, coords, funcs=(), terms=2, allow_fraction=True):
    """Small random differential-polynomial fraction."""
    def random_term():
        e = sf.rational(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2)):
            e = e * sf.coordinate(rng.choice(coords)) ** rng.randint(1, 2)
        if funcs and rng.random() < 0.5:
            name, args = rng.choice(funcs)
            f = sf.function(name, args)
            for _ in range(rng.randint(0, 1)):
                f = sf.partial(f, rng.choice(args))
            e = e * f
        return e

    out = sf.ZERO
    for _ in range(rng.randint(1, terms)):
        out = out + random_term()
    if allow_fraction and rng.random() < 0.25:
        den = sf.ONE + sf.coordinate(rng.choice(coords)) ** 2
        out = out / den
    return out


def random_form(rng, chart, degree, funcs=(), terms=2, polynomial=False):
    coeffs = {}
    tuples = list(combinations(range(chart.dim), degree))
    for idx in rng.sample(tuples, min(len(tuples), rng.randint(1, 2))):
        coeffs[idx] = random_scalar(rng, chart.coordinates, funcs, terms,
                                    allow_fraction=not polynomial)
    return cc.DiffForm(chart, degree, coeffs)


def random_multivector(rng, chart, degree, funcs=(), terms=2, polynomial=False):
    coeffs = {}
    tuples = list(combinations(range(chart.dim), degree))
    for idx in rng.sample(tuples, min(len(tuples), rng.randint(1, 2))):
        coeffs[idx] = random_scalar(rng, chart.coordinates, funcs, terms,
                                    allow_fraction=not polynomial)
    return cc.MultiVectorField(chart, degree, coeffs)


def random_vectorfield(rng, chart, funcs=(), polynomial=False):
    comps = []
    for _ in range(chart.dim):
        if rng.random() < 0.3:
            comps.append(sf.ZERO)
        else:
            comps.append(random_scalar(rng, chart.coordinates, funcs,
                                       allow_fraction=not polynomial))
    return cc.vector_field(chart, comps)


def random_altform(rng, dim, degree):
    coeffs = {}
    tuples = list(combinations(range(dim), degree))
    for idx in rng.sample(tuples, min(len(tuples), rng.randint(1, 3))):
        c = random_rational(rng)
        if c:
            coeffs[idx] = c
    return AltForm(dim, degree, coeffs)


def random_invertible(rng, n, span=2):
    while True:
        m = [[Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)]
        if ref.inverse(m) is not None:
            return m


_TEMPLATES = {
    1: [{}],
    2: [{}, {(0, 1): {1: -1}}],
    3: [{}, {(0, 1): {2: 1}},                                   # Heisenberg
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},      # so(3)
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}],     # sl(2)
    4: [{}, {(0, 1): {2: 1}}, {(0, 1): {1: -1}, (2, 3): {3: -1}}],
    5: [{}, {(0, 1): {2: 1}, (3, 4): {}},
        {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}],
}


# -- matrix Lie algebras --------------------------------------------------------
#
# A matrix with Gaussian-rational entries is a sparse map {(row, column):
# (re, im)}; a real matrix Lie algebra is a list of such matrices, its basis,
# with a function reading a matrix of their span back as coordinates.

_ZERO = (Fraction(0), Fraction(0))


def gaussian_mul(x, y):
    """The product of two sparse Gaussian-rational matrices."""
    rows = {}
    for (k, j), v in y.items():
        rows.setdefault(k, []).append((j, v))
    out = {}
    for (i, k), (a, b) in x.items():
        for j, (c, d) in rows.get(k, ()):
            re, im = out.get((i, j), _ZERO)
            out[i, j] = (re + a * c - b * d, im + a * d + b * c)
    return {key: v for key, v in out.items() if v != _ZERO}


def _commutator(x, y):
    out = dict(gaussian_mul(x, y))
    for key, (re, im) in gaussian_mul(y, x).items():
        a, b = out.get(key, _ZERO)
        out[key] = (a - re, b - im)
    return {key: v for key, v in out.items() if v != _ZERO}


def _entry(x, i, j, part=0):
    return x.get((i, j), _ZERO)[part]


def so_matrices(n):
    """so(n) on the basis E_ab = e_a e_b^T - e_b e_a^T, pairs a < b in order."""
    pairs = list(combinations(range(n), 2))
    one = (Fraction(1), Fraction(0))
    return ([{(a, b): one, (b, a): (-one[0], one[1])} for a, b in pairs],
            lambda x: [_entry(x, a, b) for a, b in pairs])


def su3_matrices():
    """su(3) on the basis E_jk - E_kj, then i(E_jk + E_kj), for the pairs
    j < k in order, then i(E_00 - E_11) and i(E_11 - E_22): its structure
    constants are integers."""
    pairs = list(combinations(range(3), 2))
    one, minus, i, minus_i = ((Fraction(a), Fraction(b)) for a, b in
                              ((1, 0), (-1, 0), (0, 1), (0, -1)))
    mats = [{(j, k): one, (k, j): minus} for j, k in pairs]
    mats += [{(j, k): i, (k, j): i} for j, k in pairs]
    mats += [{(j, j): i, (j + 1, j + 1): minus_i} for j in range(2)]
    return mats, lambda x: ([_entry(x, j, k) for j, k in pairs]
                            + [_entry(x, j, k, 1) for j, k in pairs]
                            + [_entry(x, 0, 0, 1), -_entry(x, 2, 2, 1)])


def matrix_algebra(mats, coordinates):
    """The LieAlgebra of the basis, its brackets the commutators."""
    brackets = {}
    for i, j in combinations(range(len(mats)), 2):
        rhs = coordinates(_commutator(mats[i], mats[j]))
        if any(rhs):
            brackets[(i, j)] = {k: c for k, c in enumerate(rhs) if c}
    return LieAlgebra(len(mats), brackets)


def adjoint(mats, coordinates, g, g_inv):
    """The matrix of Ad g: X -> g X g^-1 on the basis, column j the image of
    basis matrix j."""
    cols = [coordinates(gaussian_mul(gaussian_mul(g, x), g_inv)) for x in mats]
    return [list(row) for row in zip(*cols)]


def real_matrix(m):
    """A dense rational matrix as a sparse Gaussian-rational one."""
    return {(i, j): (Fraction(x), Fraction(0)) for i, row in enumerate(m)
            for j, x in enumerate(row) if x}


def random_rotation(rng, n):
    """A rational orthogonal n x n matrix and its transpose, sparse: random
    plane rotations (at `rational_rotation`'s angles), a permutation and a
    sign."""
    g = ref.identity(n)
    for _ in range(rng.randint(1, 3)):
        t = random_rational(rng, 2)
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        a, b = rng.sample(range(n), 2)
        r = ref.identity(n)
        r[a][a], r[a][b], r[b][a], r[b][b] = c, -s, s, c
        g = ref.matmul(g, r)
    perm = rng.sample(range(n), n)
    g, sign = [g[i] for i in perm], rng.choice((-1, 1))
    g[0] = [sign * x for x in g[0]]
    return real_matrix(g), real_matrix(list(zip(*g)))


def so(n):
    """so(n) on the basis E_ab = e_a e_b^T - e_b e_a^T, pairs a < b in order."""
    return matrix_algebra(*so_matrices(n))


def transport_algebra(algebra, matrix):
    """Structure constants in the basis f_i = matrix * e_i (columns)."""
    n = algebra.dim
    inv = ref.inverse(matrix)
    cols = [[matrix[r][c] for r in range(n)] for c in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = algebra.bracket(cols[i], cols[j])
            x = linalg.matvec(inv, w)
            rhs = {k: x[k] for k in range(n) if x[k] != 0}
            if rhs:
                brackets[(i, j)] = rhs
    return LieAlgebra(n, brackets)


def random_lie_algebra(rng, max_dim=5):
    p = rng.randint(1, max_dim)
    table = rng.choice(_TEMPLATES[p])
    base = LieAlgebra(p, {k: dict(v) for k, v in table.items() if v})
    return transport_algebra(base, random_invertible(rng, p))


def rational_rotation(rng, axis):
    """Rational point on the circle: cos, sin = (1-t^2, 2t)/(1+t^2)."""
    t = random_rational(rng, 2)
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    a, b = [i for i in range(3) if i != axis]
    m[a][a], m[a][b], m[b][a], m[b][b] = c, -s, s, c
    return m


def random_so3_automorphism(rng):
    cyc = [[Fraction(0), Fraction(0), Fraction(1)],
           [Fraction(1), Fraction(0), Fraction(0)],
           [Fraction(0), Fraction(1), Fraction(0)]]
    flip = [[Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(-1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(-1)]]
    out = ref.identity(3)
    for _ in range(rng.randint(1, 4)):
        piece = rng.choice(["rot", "cyc", "flip"])
        if piece == "rot":
            out = ref.matmul(out, rational_rotation(rng, rng.randrange(3)))
        elif piece == "cyc":
            out = ref.matmul(out, cyc)
        else:
            out = ref.matmul(out, flip)
    return out


def random_solv2_automorphism(rng):
    beta = random_rational(rng)
    delta = Fraction(0)
    while delta == 0:
        delta = random_rational(rng)
    return [[Fraction(1), Fraction(0)], [beta, delta]]


# -- hypothesis strategies for the decision of L_X t = 0 ----------------------


def invariance_strategies(st):
    """Strategies on the chart (x, y, z): `tensors`, forms and chains of
    degree 0-3 whose coefficients have no, monomial, multi-factor or K(z)
    denominators, function symbols of one and two arguments and exponents
    too wide for the narrowest packed field; `fields`, polynomial and
    rational vector fields, with the same atoms; `invariants`, (generators,
    tensor) pairs invariant by construction: r^2m sigma, r^2m vol and f(r^2)
    E under so(3), where sigma = x dy^dz - y dx^dz + z dx^dy and E = x Dx +
    y Dy + z Dz, g(z) y^2 Dx^Dy, g(z)/y dx^dz, g(z)/y^2 dx^dy under solv2,
    whose x Dx + y Dy moves y, and forms of degree k whose coefficients are
    homogeneous of degree -k over multi-term factors, under E, which moves
    every factor; `layouts`, (generators, tensor) pairs with a tensor in x
    and a(x) alone, a first generator that leaves it alone, and generators
    that bring, each after the one before, coordinates, function symbols and
    exponents that neither the tensor nor an earlier generator has; and
    `pairs`, (a, b) tensors of one kind and degree, b nonzero, a unrelated
    to b or a multiple of it, exactly or up to one changed coefficient."""
    chart = cc.Chart(("x", "y", "z"))
    x, y, z = (sf.coordinate(c) for c in "xyz")
    K, a = sf.function("K", ("z",)), sf.function("a", ("x",))
    h = sf.function("h", ("x", "y"))
    r2 = x ** 2 + y ** 2 + z ** 2
    atoms = st.sampled_from([x, y, z, K, a, sf.partial(K, "z"), h, sf.partial(h, "y"),
                             z ** 130])
    terms = st.builds(lambda c, fs: prod(fs, start=sf.rational(c)),
                      st.integers(-3, 3), st.lists(atoms, max_size=2))
    polys = st.lists(terms, min_size=1, max_size=3).map(lambda ts: sum(ts, sf.ZERO))
    dens = st.sampled_from([sf.ONE, x, y * z, K, x ** 2 + 1, (x ** 2 + 1) * (y + z),
                            K + 1, (K + z) ** 2, r2])
    scalars = st.builds(lambda p, d: p / d, polys, dens)

    def tensor(draw):
        kind = draw(st.sampled_from([cc.DiffForm, cc.MultiVectorField]))
        degree = draw(st.integers(0, 3))
        tuples = list(combinations(range(3), degree))
        idxs = draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=3, unique=True))
        return kind(chart, degree, {idx: draw(scalars) for idx in idxs})

    def field(draw):
        comps = st.one_of(st.just(sf.ZERO), polys, scalars if draw(st.booleans()) else polys)
        return cc.vector_field(chart, [draw(comps) for _ in range(3)])

    rot = (cc.vector_field(chart, [sf.ZERO, -z, y]), cc.vector_field(chart, [z, sf.ZERO, -x]),
           cc.vector_field(chart, [y, -x, sf.ZERO]))
    solv2 = (cc.vector_field(chart, [x, y, sf.ZERO]), basis_vector(chart, "x"))
    sigma = {(1, 2): x, (0, 2): -y, (0, 1): z}
    euler = {(0,): x, (1,): y, (2,): z}

    def scaled(coeffs, f):
        return {idx: c * f for idx, c in coeffs.items()}

    r_powers = st.integers(-2, 2).map(lambda m: r2 ** m)
    r_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
        lambda cs: sum((c * r2 ** i for i, c in enumerate(cs)), sf.ONE)).filter(
        lambda p: not p.is_zero())
    of_r2 = st.builds(lambda p, q: p / q, r_polys, r_polys)
    of_z = st.builds(lambda p, d: p / d,
                     st.sampled_from([sf.ONE, K, z * K + 1, sf.partial(K, "z")]),
                     st.sampled_from([sf.ONE, K, K + 1, z ** 2 + 1, (z + K) ** 2]))
    invariants = st.one_of(
        st.builds(lambda f: (rot, cc.DiffForm(chart, 2, scaled(sigma, f))), r_powers),
        st.builds(lambda f: (rot, cc.DiffForm(chart, 3, {(0, 1, 2): f})), r_powers),
        st.builds(lambda f: (rot, cc.MultiVectorField(chart, 1, scaled(euler, f))), of_r2),
        st.builds(lambda g: (solv2, cc.MultiVectorField(chart, 2, {(0, 1): g * y ** 2})), of_z),
        st.builds(lambda g: (solv2, cc.DiffForm(chart, 2, {(0, 2): g / y})), of_z),
        st.builds(lambda g: (solv2, cc.DiffForm(chart, 2, {(0, 1): g / y ** 2})), of_z))
    hom_dens = {1: [x ** 2 + y * z, (x + y) * (y - z)],
                2: [(x ** 2 + y * z) * (x + z), (x + 2 * y) ** 3]}

    def homogeneous_form(draw):
        k = draw(st.integers(1, 2))
        idxs = draw(st.lists(st.sampled_from(list(combinations(range(3), k))), min_size=1,
                             max_size=3, unique=True))
        coeffs = {idx: draw(st.sampled_from([x, y - 2 * z, x + y + z]))
                  / draw(st.sampled_from(hom_dens[k])) for idx in idxs}
        return (cc.vector_field(chart, [x, y, z]),), cc.DiffForm(chart, k, coeffs)

    invariants = st.one_of(invariants, st.composite(homogeneous_form)())
    in_x = st.builds(lambda p, d: p / d,
                     st.sampled_from([sf.ONE, x, a, x ** 2 - 3, a * x + 1]),
                     st.sampled_from([sf.ONE, x, x ** 2 + 1, a + 1]))
    # the first two leave every tensor in x and a(x) alone; z^256 and z^300
    # need fields wider than a layout for such a tensor has
    later = [cc.vector_field(chart, [sf.ZERO, K, sf.ZERO]),
             cc.vector_field(chart, [sf.ZERO, z ** 300, K * z]),
             cc.vector_field(chart, [y, sf.ZERO, sf.ZERO]),
             cc.vector_field(chart, [z ** 256 - K, sf.ZERO, sf.ONE]),
             cc.vector_field(chart, [h * x, sf.partial(h, "x"), sf.ZERO])]

    def layout_case(draw):
        kind = draw(st.sampled_from([cc.DiffForm, cc.MultiVectorField]))
        degree = draw(st.integers(0, 1))
        t = kind(chart, degree, {(0,) * degree: draw(in_x)})
        first = draw(st.sampled_from("xyz" if t.coefficient((0,) * degree) == 1 else "yz"))
        rest = draw(st.lists(st.sampled_from(later), min_size=1, max_size=3, unique_by=id))
        return (basis_vector(chart, first), *rest), t

    def pair(draw):
        b = draw(st.composite(tensor)().filter(lambda t: not t.is_zero()))
        how = draw(st.sampled_from(["other", "multiple", "changed"]))
        if how == "other":
            tuples = list(combinations(range(3), b.degree))
            idxs = draw(st.lists(st.sampled_from(tuples), min_size=1, max_size=3, unique=True))
            return type(b)(chart, b.degree, {idx: draw(scalars) for idx in idxs}), b
        a = b.scaled(draw(scalars.filter(lambda f: not f.is_zero())))
        if how == "changed":
            idx = draw(st.sampled_from(sorted(a.coeffs)))
            a = type(a)(chart, a.degree, {**a.coeffs, idx: a.coeffs[idx] + draw(scalars)})
        return a, b

    fields = st.one_of(st.composite(field)(),
                       st.sampled_from([basis_vector(chart, c) for c in "xyz"]))
    return SimpleNamespace(tensors=st.composite(tensor)(), fields=fields, invariants=invariants,
                           layouts=st.composite(layout_case)(), pairs=st.composite(pair)())
