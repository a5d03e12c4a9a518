"""Exterior algebra over a finite-dimensional Lie algebra and the relative
Chevalley-Eilenberg complex.

A Lie algebra is given by structure constants; a subgroup by a subalgebra
basis plus one adjoint matrix per extra connected component.  Relative
cohomology is computed degreewise by exact kernel/image linear algebra, the
identity component acting infinitesimally and extra components through their
matrices.  The subgroup is validated, and the differential and the relative
constraints are assembled from the bracket table as the images of basis
monomials, once per degree, all in integers: an algebra keeps its structure
constants scaled by the lcm of their denominators, subalgebra vectors are
primitive and component matrices and inverses integral, which changes no
span, rank, kernel or image.  The rows go to `linalg` as sparse integer
rows; the relative forms and the kernel of d are primitive integer vectors
(`linalg.kernel`).  Fractions appear only in the representatives, and the
public per-form operators divide by the scale once at the end.

Differential convention, on basis tuples x_0..x_r:
    (d a)(x_0,...,x_r) = sum_{i<j} (-1)^{i+j} a([x_i,x_j], ..no x_i, x_j..)
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

from . import linalg
from .linalg import (SingularMatrix, _accumulate, _contract, _integer_inverse, _integer_matrix,
                     _integer_row, _primitive, _Record, _replace_sign)


class CohomologyError(Exception):
    pass


class DegreeOverflow(CohomologyError):
    pass


class NotAutomorphism(CohomologyError):
    pass


class InvalidSubgroup(CohomologyError):
    pass


class RelativeComplexNotClosed(CohomologyError):
    pass


class LieAlgebra:
    """Structure constants c[i][j][k] for [e_i, e_j] = sum_k c_k e_k, i < j.

    Brackets are stored sparsely for 0-based i < j; antisymmetry and
    self-brackets are implicit.  `integer_brackets` holds them as one map
    {(i, j, k): c * scale} of ints, `scale` the lcm of the denominators.
    """

    def __init__(self, dim, brackets=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dim = dim
        table = {}
        for (i, j), rhs in (brackets or {}).items():
            if not 0 <= i < j < dim:
                raise ValueError(f"bracket indices must satisfy 0 <= i < j < dim, got {(i, j)}")
            rhs = {k: Fraction(c) for k, c in rhs.items() if c != 0}
            for k in rhs:
                if not 0 <= k < dim:
                    raise ValueError(f"bracket target {k} out of range")
            if rhs:
                table[(i, j)] = rhs
        self.brackets = table
        self.integer_brackets, self.scale = _integer_row(
            {(i, j, k): c for (i, j), rhs in table.items() for k, c in rhs.items()})

    def bracket(self, u, v):
        """[u, v] for dense rational coordinate vectors."""
        return [Fraction(x, self.scale) for x in _bracket(self.integer_brackets, u, v)]

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.brackets == other.brackets)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={self.brackets!r})"


class SubgroupSpec:
    """A subgroup: subalgebra basis vectors plus the adjoint matrix of one
    representative per non-identity connected component.  Never changed
    once made; compared and hashed by both."""

    __slots__ = ("basis", "component_reps")

    def __init__(self, basis=(), component_reps=()):
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "component_reps", component_reps)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to SubgroupSpec.{name}")

    def __eq__(self, other):
        return other.__class__ is SubgroupSpec and (
            self.basis, self.component_reps) == (other.basis, other.component_reps)

    def __hash__(self):
        return hash((self.basis, self.component_reps))

    @staticmethod
    def trivial():
        return SubgroupSpec()

    @staticmethod
    def from_vectors(vectors, component_reps=()):
        basis = tuple(tuple(Fraction(x) for x in v) for v in vectors)
        reps = tuple(tuple(tuple(Fraction(x) for x in row) for row in m) for m in component_reps)
        return SubgroupSpec(basis, reps)


def validate_lie_algebra(algebra):
    """The violations of the Jacobi identity, as (i, j, k, residual vector),
    on the basis triples where it can fail: those with a term
    [[e_i, e_j], e_k] whose inner bracket has a component e_m with a
    declared bracket [e_m, e_k].  They are visited in sorted order; each
    residual is summed in integers from `integer_brackets`, scale^2 times
    the true one, and divided only when it is reported.  An empty list
    means the identity holds."""
    rows = {}       # (a, b) -> {c: scaled coefficient of e_c in [e_a, e_b]}, a != b
    for (i, j, k), c in algebra.integer_brackets.items():
        rows.setdefault((i, j), {})[k] = c
        rows.setdefault((j, i), {})[k] = -c
    partners = {}   # m -> every k with a declared bracket [e_m, e_k]
    for m, k in rows:
        partners.setdefault(m, set()).add(k)
    triples = {tuple(sorted((i, j, k))) for (i, j), rhs in algebra.brackets.items()
               for m in rhs for k in partners.get(m, ()) if k != i and k != j}
    violations, square = [], algebra.scale ** 2
    for i, j, k in sorted(triples):
        res = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, x in rows.get((a, b), {}).items():
                for n, y in rows.get((m, c), {}).items():
                    res[n] = res.get(n, 0) + x * y
        if any(res.values()):
            violations.append((i, j, k, [Fraction(res.get(n, 0), square)
                                         for n in range(algebra.dim)]))
    return violations


def _bracket(brackets, u, v):
    """scale * [u, v] from the integer bracket table, as a dense list."""
    out = [0] * len(u)
    for (i, j, k), c in brackets.items():
        if x := u[i] * v[j] - u[j] * v[i]:
            out[k] += x * c
    return out


def is_automorphism(algebra, matrix):
    """Does the matrix preserve brackets: [Mu, Mv] = M[u, v] on the basis?
    In integers, for M = A / l: [A e_i, A e_j] = l A [e_i, e_j]."""
    if size := _wrong_size(matrix, algebra.dim):
        raise NotAutomorphism(f"matrix is {size}")
    a, scale = _integer_matrix(matrix)
    n, table, cols = len(a), algebra.integer_brackets, list(zip(*a))
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    return all(_bracket(table, cols[i], cols[j])
               == [scale * x for x in linalg.matvec(a, _bracket(table, unit[i], unit[j]))]
               for i, j in combinations(range(n), 2))


def _wrong_size(m, n):
    """'RxC, not nxn' for a matrix m of R rows of C entries that is not n x n
    (a ragged m lists each row length in C); None if it is n x n."""
    shape = f"{len(m)}x{'/'.join(str(w) for w in sorted({len(row) for row in m}) or [0])}"
    return None if shape == f"{n}x{n}" else f"{shape}, not {n}x{n}"


def _size_problems(n, sub):
    """A violation string for each vector and matrix of sub not of size n."""
    problems = [f"subalgebra vector {i} has {len(v)} entries, not {n}"
                for i, v in enumerate(sub.basis) if len(v) != n]
    return problems + [f"component matrix {i} is {size}"
                       for i, m in enumerate(sub.component_reps) if (size := _wrong_size(m, n))]


def validate_subgroup(algebra, sub):
    """Violation strings for an invalid SubgroupSpec; empty list when valid.
    Vectors and matrices of the wrong size are the only problems reported
    when there are any.  In integers: primitive vectors, integer multiples
    of the matrices and the integer bracket table change no span, rank or
    bracket direction."""
    n = algebra.dim
    if problems := _size_problems(n, sub):
        return problems
    basis = [_primitive_vector(v) for v in sub.basis]
    span = linalg.Echelon(basis)
    if len(span) != len(basis):
        problems.append("subalgebra basis vectors are linearly dependent")
    for a, b in combinations(range(len(basis)), 2):
        if not span.contains(_bracket(algebra.integer_brackets, basis[a], basis[b])):
            problems.append(f"subalgebra not closed under bracket at pair ({a}, {b})")
    for m_idx, m in enumerate(sub.component_reps):
        a, _ = _integer_matrix(m)
        if linalg.rank(a) < n:
            problems.append(f"component matrix {m_idx} is singular")
            continue
        if not is_automorphism(algebra, m):
            problems.append(f"component matrix {m_idx} does not preserve brackets")
        for v in basis:
            if not span.contains(linalg.matvec(a, v)):
                problems.append(f"component matrix {m_idx} does not preserve the subalgebra")
    return problems


class AltForm(linalg.AltTensor):
    """Alternating r-form on the algebra, rational coefficients on the
    dual-basis wedges a^{i1} ^ ... ^ a^{ir}; its space is the algebra's
    dimension."""

    kind, ring, noun = "form", linalg.RATIONALS, "algebra"
    DegreeOverflow = DegreeOverflow


# -- the complex on basis monomials ------------------------------------------
#
# Each linear map of the complex is given by the image of every basis
# monomial a^t = a^{t1} ^ ... ^ a^{tr}, read off the bracket table, as a
# sparse {index tuple: coefficient} map.  A map acts on a form by summing
# the images of its monomials; its matrix has the images as columns.

# Largest cochain space C(p, r) a cohomology computation may build: far
# above so(5) (C(10, 5) = 252) and refused at once beyond.
MAX_COCHAINS = 10_000


def _check_size(p, *degrees):
    for r in degrees:
        if 0 <= r <= p and comb(p, r) > MAX_COCHAINS:
            raise DegreeOverflow(
                f"degree {r} on a {p}-dimensional algebra has C({p}, {r}) = {comb(p, r)} "
                f"basis forms, over the limit of {MAX_COCHAINS}")


def _apply(coeffs, image):
    """sum of c * image(t) over the items t: c of coeffs, zeros dropped."""
    out = {}
    for t, c in coeffs.items():
        for u, x in image(t).items():
            out[u] = out.get(u, 0) + c * x
    return {u: x for u, x in out.items() if x}


def _dual_table(brackets):
    """k -> [(i, j, c)]: the brackets [e_i, e_j] (i < j) with e_k-component c."""
    dual = {}
    for (i, j, k), c in brackets.items():
        dual.setdefault(k, []).append((i, j, c))
    return dual


def _replaced(t, terms):
    """{sorted tuple: sum} over the terms (m, new, c): c times a^t with its
    slot m replaced by the increasing tuple new, signed; zeros dropped."""
    out = {}
    for m, new, c in terms:
        if s := _replace_sign(t, m, new):
            sign, u = s
            out[u] = out.get(u, 0) + (c if sign > 0 else -c)
    return {u: x for u, x in out.items() if x}


def _d_image(dual, t):
    """d a^t = sum over slots m of (-1)^m a^{t1} ^ .. (d a^{tm}) .. ^ a^{tr}, with
    d a^k = -sum_{i<j} c^k_ij a^i ^ a^j in the slot of a^k."""
    return _replaced(t, ((m, (i, j), c if m & 1 else -c)
                         for m, k in enumerate(t) for i, j, c in dual.get(k, ())))


def _interior_image(v, t):
    """i_v a^t = sum over k in t of s v_k a^rest, where a^t = s a^k ^ a^rest."""
    return {rest: v[k] if sign > 0 else -v[k]
            for k in t if v[k] for sign, rest in [_contract(t, (k,))]}


def _coadjoint_table(brackets, v):
    """k -> {j: -[v, e_j]_k}, so that v.a^k = sum_j of these times a^j."""
    table = {}
    for (i, j, k), c in brackets.items():
        row = table.setdefault(k, {})
        if v[i]:
            row[j] = row.get(j, 0) - v[i] * c
        if v[j]:
            row[i] = row.get(i, 0) + v[j] * c
    return table


def _action_image(table, t):
    """v.a^t: v acts on each slot in turn."""
    return _replaced(t, ((m, (j,), c) for m, k in enumerate(t)
                         for j, c in table.get(k, {}).items()))


def _pullback_image(minv, t):
    """M.a^t = (a^{t1} o M^-1) ^ ... ^ (a^{tr} o M^-1), the factors, rows of
    M^-1, wedged on in turn."""
    out = {(): 1}
    for i in t:
        out = _accumulate((u + (j,), c * x) for u, c in out.items()
                          for j, x in enumerate(minv[i]) if x)
        out = {u: x for u, x in out.items() if x}
    return out


def _primitive_vector(v):
    """A nonzero multiple of v as a dense primitive integer vector."""
    row = _integer_row(v)[0]
    row = _primitive(row, min(row)) if row else row
    return [row.get(i, 0) for i in range(len(v))]


class _Constraints:
    """The conditions cutting the relative forms out of the cochains, as
    maps on basis monomials: the interior product and the coadjoint action
    of each subalgebra vector, and M - 1 for each component matrix M.  Each
    map is scaled to integers: the vectors are primitive, the bracket table
    is the algebra's integer table, and for M^-1 = N / s the map is N - s^r
    in degree r.  A trivial subgroup has no conditions and no images."""

    def __init__(self, algebra, sub):
        self.dim = algebra.dim
        self.vectors = [_primitive_vector(v) for v in sub.basis]
        self.tables = [_coadjoint_table(algebra.integer_brackets, v) for v in self.vectors]
        self.inverses = [_integer_inverse(m) for m in sub.component_reps]
        self.trivial = not (self.vectors or self.inverses)
        self._images = {}

    def images(self, t):
        """The images of a^t under the maps, numbered in a fixed order, as one
        sparse map {(number, monomial): coefficient}; built once per t."""
        images = self._images.get(t)
        if images is None:
            maps = [_interior_image(v, t) for v in self.vectors] if t else []
            maps += [_action_image(table, t) for table in self.tables]
            for minv, s in self.inverses:
                image = _pullback_image(minv, t)
                image[t] = image.get(t, 0) - s ** len(t)
                maps.append(image)
            images = {(n, u): x for n, image in enumerate(maps) for u, x in image.items() if x}
            self._images[t] = images
        return images

    def rows(self, degree):
        """The constraint matrix on the monomials of the degree, as sparse
        rows, and those monomials in order: the columns."""
        tuples = list(combinations(range(self.dim), degree))
        rows = {}
        for t in () if self.trivial else tuples:
            for key, x in self.images(t).items():
                rows.setdefault(key, {})[t] = x
        return list(rows.values()), tuples

    def hold(self, coeffs):
        """Does the form with these coefficients satisfy every condition?"""
        return self.trivial or not _apply(coeffs, self.images)


def ce_differential(algebra, alpha):
    """Chevalley-Eilenberg differential of an alternating form."""
    if alpha.degree >= algebra.dim:
        raise DegreeOverflow("differential of a top-degree form")
    dual = _dual_table(algebra.integer_brackets)
    form = AltForm(algebra.dim, alpha.degree + 1,
                   _apply(alpha.coeffs, lambda t: _d_image(dual, t)))
    return form if algebra.scale == 1 else form.scaled(Fraction(1, algebra.scale))


def interior(v, alpha):
    """First-slot contraction by a coordinate vector of the algebra."""
    if alpha.degree < 1:
        raise DegreeOverflow("interior product of a 0-form")
    return AltForm(alpha.dim, alpha.degree - 1,
                   _apply(alpha.coeffs, lambda t: _interior_image(v, t)))


def infinitesimal_action(algebra, v, alpha):
    """Coadjoint action (v.a)(x_1..x_r) = -sum_i a(x_1,..,[v,x_i],..,x_r)."""
    table = _coadjoint_table(algebra.integer_brackets, v)
    form = AltForm(algebra.dim, alpha.degree,
                   _apply(alpha.coeffs, lambda t: _action_image(table, t)))
    return form if algebra.scale == 1 else form.scaled(Fraction(1, algebra.scale))


def coadjoint_matrix_action(matrix, alpha):
    """(M.a)(v_1..v_r) = a(M^-1 v_1, ..., M^-1 v_r), for M^-1 = N / s: the
    pullback by N, divided once by s^r."""
    if size := _wrong_size(matrix, alpha.dim):
        raise NotAutomorphism(f"matrix is {size}")
    minv, s = _integer_inverse(matrix)
    form = AltForm(alpha.dim, alpha.degree,
                   _apply(alpha.coeffs, lambda t: _pullback_image(minv, t)))
    return form if s == 1 else form.scaled(Fraction(1, s ** alpha.degree))


def _require_valid_subgroup(algebra, sub):
    problems = validate_subgroup(algebra, sub)
    if problems:
        raise InvalidSubgroup("; ".join(problems))


def relative_basis(algebra, sub, degree):
    """Deterministic basis of the relative forms in the given degree:
    annihilated by the subalgebra, infinitesimally invariant under it, and
    fixed by every component matrix."""
    _check_size(algebra.dim, degree)
    _require_valid_subgroup(algebra, sub)
    rows, tuples = _Constraints(algebra, sub).rows(degree)
    return [AltForm(algebra.dim, degree, dict(zip(tuples, v)))
            for v in linalg.nullspace(rows, tuples)]


class CohomologyResult(_Record):
    def __init__(self, dimension, representatives, relative_dims):
        self.dimension = dimension
        self.representatives = representatives
        self.relative_dims = relative_dims  # degree -> dim of the relative space, r - 1 and r


def relative_cohomology(algebra, sub, degree):
    """Relative cohomology in one degree by exact kernel/image computation
    on the relative forms of degrees r - 1 and r."""
    p = algebra.dim
    if not 0 <= degree <= p:
        raise DegreeOverflow(f"degree {degree} out of range 0..{p}")
    _check_size(p, degree - 1, degree, degree + 1)
    _require_valid_subgroup(algebra, sub)
    constraints = _Constraints(algebra, sub)
    basis = linalg.kernel(*constraints.rows(degree))
    below = linalg.kernel(*constraints.rows(degree - 1)) if degree >= 1 else []
    dual = _dual_table(algebra.integer_brackets)
    d_image = cache(lambda t: _d_image(dual, t))

    def differential(b):
        """d b from the images of its monomials, each built once; d b must
        satisfy the constraints one degree up."""
        db = _apply(b, d_image)
        if not constraints.hold(db):
            raise RelativeComplexNotClosed(
                "differential left the relative subcomplex; subgroup data is inconsistent")
        return db

    if degree < p:
        # kernel of d on the relative space, in coordinates on the basis
        rows = {}
        for i, b in enumerate(basis):
            for u, x in differential(b).items():
                rows.setdefault(u, {})[i] = x
        coords = linalg.kernel(list(rows.values()), range(len(basis)))
        kernel = [_apply(c, basis.__getitem__) for c in coords]
    else:
        kernel = basis

    quotient = linalg.Echelon([differential(b) for b in below])
    dimension = len(kernel) - len(quotient)
    reps = [AltForm(p, degree, r) for r in map(quotient.insert, kernel) if r is not None]
    assert dimension == len(reps)

    dims = {r: len(forms) for r, forms in [(degree - 1, below), (degree, basis)] if r >= 0}
    return CohomologyResult(dimension, reps, dims)


def conjugate_subgroup(algebra, sub, auto):
    """Transport a subgroup along a bracket-preserving invertible matrix A:
    vectors v to A v, components M to A M A^-1, whose column j is
    A M N e_j / s for A^-1 = N / s."""
    if problems := _size_problems(algebra.dim, sub):
        raise InvalidSubgroup("; ".join(problems))
    auto = [list(row) for row in auto]
    if size := _wrong_size(auto, algebra.dim):
        raise NotAutomorphism(f"conjugating matrix is {size}")
    try:
        inv, s = _integer_inverse(auto)
    except SingularMatrix:
        raise NotAutomorphism("conjugating matrix is singular") from None
    if not is_automorphism(algebra, auto):
        raise NotAutomorphism("conjugating matrix does not preserve brackets")
    basis = tuple(tuple(linalg.matvec(auto, list(v))) for v in sub.basis)
    reps = tuple(tuple(zip(*([Fraction(x, s) for x in linalg.matvec(auto, linalg.matvec(m, col))]
                             for col in zip(*inv))))
                 for m in sub.component_reps)
    return SubgroupSpec(basis, reps)
