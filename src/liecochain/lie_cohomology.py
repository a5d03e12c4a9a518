"""Exterior algebra over a finite-dimensional Lie algebra and the relative
Chevalley-Eilenberg complex.

A Lie algebra is given by structure constants; a subgroup by a subalgebra
basis plus one adjoint matrix per extra connected component.  Relative
cohomology is computed degreewise by exact kernel/image linear algebra, the
identity component acting infinitesimally and extra components through their
matrices.  The differential and the relative constraints are assembled from
the bracket table as the images of basis monomials, once per degree, and
handed to `linalg` as sparse rows.

Differential convention, on basis tuples x_0..x_r:
    (d a)(x_0,...,x_r) = sum_{i<j} (-1)^{i+j} a([x_i,x_j], ..no x_i, x_j..)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb

from . import linalg
from .linalg import SingularMatrix, _accumulate, _contract


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
    self-brackets are implicit.
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

    def bracket_basis(self, i, j):
        """[e_i, e_j] as a sparse {k: coefficient} map, any i, j."""
        if i == j:
            return {}
        if i < j:
            return dict(self.brackets.get((i, j), {}))
        return {k: -c for k, c in self.brackets.get((j, i), {}).items()}

    def bracket(self, u, v):
        """[u, v] for dense rational coordinate vectors."""
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            if u[i] == 0:
                continue
            for j in range(self.dim):
                if v[j] == 0:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    out[k] += u[i] * v[j] * c
        return out

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.brackets == other.brackets)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={self.brackets!r})"


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup: subalgebra basis vectors plus the adjoint matrix of one
    representative per non-identity connected component."""

    basis: tuple = ()
    component_reps: tuple = ()

    @staticmethod
    def trivial():
        return SubgroupSpec()

    @staticmethod
    def from_vectors(vectors, component_reps=()):
        basis = tuple(tuple(Fraction(x) for x in v) for v in vectors)
        reps = tuple(tuple(tuple(Fraction(x) for x in row) for row in m) for m in component_reps)
        return SubgroupSpec(basis, reps)


@dataclass
class JacobiReport:
    ok: bool
    violations: list = field(default_factory=list)  # (i, j, k, residual vector)


def validate_lie_algebra(algebra):
    """Check the Jacobi identity on all basis triples."""
    violations = []
    n = algebra.dim
    e = linalg.identity(n)
    for i, j, k in combinations(range(n), 3):
        res = [sum(t) for t in zip(
            algebra.bracket(algebra.bracket(e[i], e[j]), e[k]),
            algebra.bracket(algebra.bracket(e[j], e[k]), e[i]),
            algebra.bracket(algebra.bracket(e[k], e[i]), e[j]))]
        if any(x != 0 for x in res):
            violations.append((i, j, k, res))
    return JacobiReport(not violations, violations)


def is_automorphism(algebra, matrix):
    """Does the matrix preserve brackets: [Mu, Mv] = M[u, v] on the basis?"""
    n = algebra.dim
    cols = [[matrix[r][c] for r in range(n)] for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = algebra.bracket(cols[i], cols[j])
            rhs_sparse = algebra.bracket_basis(i, j)
            rhs = [Fraction(0)] * n
            for k, c in rhs_sparse.items():
                for r in range(n):
                    rhs[r] += c * matrix[r][k]
            if lhs != rhs:
                return False
    return True


def validate_subgroup(algebra, sub):
    """Violation strings for an invalid SubgroupSpec; empty list when valid."""
    problems = []
    n = algebra.dim
    basis = [list(v) for v in sub.basis]
    if basis and linalg.rank(basis) != len(basis):
        problems.append("subalgebra basis vectors are linearly dependent")
    span = linalg.Echelon()
    for v in basis:
        span.insert(v)
    for a in range(len(basis)):
        for b in range(a + 1, len(basis)):
            if not span.contains(algebra.bracket(basis[a], basis[b])):
                problems.append(f"subalgebra not closed under bracket at pair ({a}, {b})")
    for m_idx, m in enumerate(sub.component_reps):
        m = [list(row) for row in m]
        try:
            linalg.inverse(m)
        except SingularMatrix:
            problems.append(f"component matrix {m_idx} is singular")
            continue
        if not is_automorphism(algebra, m):
            problems.append(f"component matrix {m_idx} does not preserve brackets")
        for v in basis:
            if not span.contains(linalg.matvec(m, v)):
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


def _dual_table(algebra):
    """k -> [(i, j, c)]: the brackets [e_i, e_j] (i < j) with e_k-component c."""
    dual = {}
    for (i, j), rhs in algebra.brackets.items():
        for k, c in rhs.items():
            dual.setdefault(k, []).append((i, j, c))
    return dual


def _d_image(dual, t):
    """d a^t = sum over slots m of (-1)^m a^{t1} ^ .. (d a^{tm}) .. ^ a^{tr}, with
    d a^k = -sum_{i<j} c^k_ij a^i ^ a^j: (-1)^m moves a^i before the m factors."""
    out = _accumulate(((i,) + t[:m] + (j,) + t[m + 1:], -c)
                      for m, k in enumerate(t) for i, j, c in dual.get(k, ()))
    return {u: x for u, x in out.items() if x}


def _interior_image(v, t):
    """i_v a^t = sum over k in t of s v_k a^rest, where a^t = s a^k ^ a^rest."""
    return {rest: v[k] if sign > 0 else -v[k]
            for k in t if v[k] for sign, rest in [_contract(t, (k,))]}


def _coadjoint_table(algebra, v):
    """k -> {j: -[v, e_j]_k}, so that v.a^k = sum_j of these times a^j."""
    table = {}
    for (i, j), rhs in algebra.brackets.items():
        for k, c in rhs.items():
            row = table.setdefault(k, {})
            if v[i]:
                row[j] = row.get(j, 0) - v[i] * c
            if v[j]:
                row[i] = row.get(i, 0) + v[j] * c
    return table


def _action_image(table, t):
    """v.a^t: v acts on each slot in turn."""
    out = _accumulate((t[:m] + (j,) + t[m + 1:], c)
                      for m, k in enumerate(t) for j, c in table.get(k, {}).items())
    return {u: x for u, x in out.items() if x}


def _pullback_image(minv, t):
    """M.a^t = (a^{t1} o M^-1) ^ ... ^ (a^{tr} o M^-1): its coefficients are
    the minors of M^-1 on the rows t."""
    rows = [minv[i] for i in t]
    support = sorted({j for row in rows for j, x in enumerate(row) if x})
    out = {}
    for u in combinations(support, len(t)):
        x = linalg.det([[row[j] for j in u] for row in rows])
        if x:
            out[u] = x
    return out


class _Constraints:
    """The conditions cutting the relative forms out of the cochains, as
    maps on basis monomials: the interior product and the coadjoint action
    of each subalgebra vector, and M - 1 for each component matrix M."""

    def __init__(self, algebra, sub):
        self.vectors = [list(v) for v in sub.basis]
        self.tables = [_coadjoint_table(algebra, v) for v in self.vectors]
        self.inverses = [linalg.inverse([list(row) for row in m]) for m in sub.component_reps]
        self._images = {}

    def images(self, t):
        """The image of a^t under each map, in a fixed order; built once per t."""
        images = self._images.get(t)
        if images is None:
            images = [_interior_image(v, t) for v in self.vectors] if t else []
            images += [_action_image(table, t) for table in self.tables]
            for minv in self.inverses:
                image = _pullback_image(minv, t)
                image[t] = image.get(t, 0) - 1
                images.append({u: x for u, x in image.items() if x})
            self._images[t] = images
        return images

    def rows(self, tuples):
        """The constraint matrix on the monomials `tuples`, as sparse rows."""
        rows = {}
        for t in tuples:
            for n, image in enumerate(self.images(t)):
                for u, x in image.items():
                    rows.setdefault((n, u), {})[t] = x
        return list(rows.values())

    def hold(self, coeffs):
        """Does the form with these coefficients satisfy every condition?"""
        totals = {}
        for t, c in coeffs.items():
            for n, image in enumerate(self.images(t)):
                for u, x in image.items():
                    totals[n, u] = totals.get((n, u), 0) + c * x
        return not any(totals.values())


def ce_differential(algebra, alpha):
    """Chevalley-Eilenberg differential of an alternating form."""
    if alpha.degree >= algebra.dim:
        raise DegreeOverflow("differential of a top-degree form")
    dual = _dual_table(algebra)
    return AltForm(algebra.dim, alpha.degree + 1,
                   _apply(alpha.coeffs, lambda t: _d_image(dual, t)))


def interior(v, alpha):
    """First-slot contraction by a coordinate vector of the algebra."""
    if alpha.degree < 1:
        raise DegreeOverflow("interior product of a 0-form")
    return AltForm(alpha.dim, alpha.degree - 1,
                   _apply(alpha.coeffs, lambda t: _interior_image(v, t)))


def infinitesimal_action(algebra, v, alpha):
    """Coadjoint action (v.a)(x_1..x_r) = -sum_i a(x_1,..,[v,x_i],..,x_r)."""
    table = _coadjoint_table(algebra, v)
    return AltForm(algebra.dim, alpha.degree,
                   _apply(alpha.coeffs, lambda t: _action_image(table, t)))


def coadjoint_matrix_action(matrix, alpha):
    """(M.a)(v_1..v_r) = a(M^-1 v_1, ..., M^-1 v_r)."""
    minv = linalg.inverse([list(row) for row in matrix])
    return AltForm(alpha.dim, alpha.degree,
                   _apply(alpha.coeffs, lambda t: _pullback_image(minv, t)))


def _require_valid_subgroup(algebra, sub):
    problems = validate_subgroup(algebra, sub)
    if problems:
        raise InvalidSubgroup("; ".join(problems))


def relative_basis(algebra, sub, degree, validate=True):
    """Deterministic basis of the relative forms in the given degree:
    annihilated by the subalgebra, infinitesimally invariant under it, and
    fixed by every component matrix."""
    _check_size(algebra.dim, degree)
    if validate:
        _require_valid_subgroup(algebra, sub)
    tuples = list(combinations(range(algebra.dim), degree))
    rows = _Constraints(algebra, sub).rows(tuples)
    return [AltForm(algebra.dim, degree, v) for v in linalg.nullspace(rows, tuples)]


@dataclass
class CohomologyResult:
    degree: int
    dimension: int
    representatives: list
    relative_dims: dict  # degree -> dim of the relative space, for degrees r - 1 and r


def relative_cohomology(algebra, sub, degree, validate=True):
    """Relative cohomology in one degree by exact kernel/image computation
    on the relative forms of degrees r - 1 and r."""
    p = algebra.dim
    if not 0 <= degree <= p:
        raise DegreeOverflow(f"degree {degree} out of range 0..{p}")
    _check_size(p, degree - 1, degree, degree + 1)
    if validate:
        _require_valid_subgroup(algebra, sub)
    basis = relative_basis(algebra, sub, degree, validate=False)
    below = relative_basis(algebra, sub, degree - 1, validate=False) if degree >= 1 else []
    constraints = _Constraints(algebra, sub)
    dual = _dual_table(algebra)
    d_images = {}

    def differential(b):
        """d b from the images of its monomials, each built once; d b must
        satisfy the constraints one degree up."""
        for t in b.coeffs:
            if t not in d_images:
                d_images[t] = _d_image(dual, t)
        db = _apply(b.coeffs, d_images.__getitem__)
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
        coords = linalg.nullspace(list(rows.values()), range(len(basis)))
        kernel = [_apply(c, lambda i: basis[i].coeffs) for c in coords]
    else:
        kernel = [b.coeffs for b in basis]

    quotient = linalg.Echelon()
    for b in below:
        quotient.insert(differential(b))
    image_rank = len(quotient)
    reps = []
    for vec in kernel:
        reduced = quotient.insert(vec)
        if reduced is not None:
            reps.append(AltForm(p, degree, reduced))

    dims = {degree - 1: len(below)} if degree >= 1 else {}
    dims[degree] = len(basis)
    dimension = len(kernel) - image_rank
    assert dimension == len(reps)
    return CohomologyResult(degree, dimension, reps, dims)


def conjugate_subgroup(algebra, sub, auto):
    """Transport a subgroup along a bracket-preserving invertible matrix."""
    auto = [list(row) for row in auto]
    try:
        inv = linalg.inverse(auto)
    except SingularMatrix:
        raise NotAutomorphism("conjugating matrix is singular") from None
    if not is_automorphism(algebra, auto):
        raise NotAutomorphism("conjugating matrix does not preserve brackets")
    basis = tuple(tuple(linalg.matvec(auto, list(v))) for v in sub.basis)
    reps = tuple(
        tuple(tuple(row) for row in linalg.matmul(linalg.matmul(auto, [list(r) for r in m]), inv))
        for m in sub.component_reps)
    return SubgroupSpec(basis, reps)
