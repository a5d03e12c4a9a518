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

The relative cochains C^r(g, K) = (Lambda^r (g/k)*)^K are built on g/k
(Chevalley-Eilenberg 1948; Hochschild-Serre 1953), in an adapted basis: the
subalgebra vectors in reduced echelon form, and the unit vectors of the
other columns, which span a complement m.  The monomials in the dual
covectors of m, C(dim g - dim k, r) of them, are the forms the subalgebra
annihilates; only the coadjoint action of k and the components constrain
them, and above dim g - dim k there are none.  For a subalgebra spanned by
unit vectors the adapted basis is the standard one and nothing is moved;
otherwise the bracket and component tables are moved to it and the forms
moved back (`_Constraints`).  Either way the relative forms are the reduced
basis `linalg.kernel` gives for their space in the standard basis.

Differential convention, on basis tuples x_0..x_r:
    (d a)(x_0,...,x_r) = sum_{i<j} (-1)^{i+j} a([x_i,x_j], ..no x_i, x_j..)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, prod

from . import linalg
from .linalg import (SingularMatrix, _Frozen, _integer_inverse, _integer_matrix, _integer_row,
                     _merge, _primitive, _Record, _wedge)


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


class LieAlgebra(_Record):
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


class SubgroupSpec(_Frozen):
    """A subgroup: subalgebra basis vectors plus the adjoint matrix of one
    representative per non-identity connected component.  Never changed
    once made; compared and hashed by both."""

    __slots__ = ("basis", "component_reps")

    def __init__(self, basis=(), component_reps=()):
        super().__init__(basis, component_reps)

    @staticmethod
    def trivial():
        return SubgroupSpec()

    @staticmethod
    def from_vectors(vectors, component_reps=()):
        basis = tuple(tuple(Fraction(x) for x in v) for v in vectors)
        reps = tuple(tuple(tuple(Fraction(x) for x in row) for row in m) for m in component_reps)
        return SubgroupSpec(basis, reps)


def validate_lie_algebra(algebra):
    """The violations of the Jacobi identity, as (i, j, k, residual vector)
    for i < j < k in sorted order.  The residual [[e_i, e_j], e_k] +
    [[e_j, e_k], e_i] + [[e_k, e_i], e_j] has, as its e_n-component, the
    coefficient of a^i ^ a^j ^ a^k in d(d a^n), so the identity is d o d = 0
    on 1-forms (Chevalley-Eilenberg 1948).  It is taken from the integer
    table, scale^2 times the true one, and divided only when it is
    reported.  An empty list means the identity holds."""
    dual, residuals = _dual_table(algebra.integer_brackets), {}
    for n in dual:
        for t, x in _apply(_d_image(dual, (n,)), lambda t: _d_image(dual, t)).items():
            residuals.setdefault(t, {})[n] = x
    square = algebra.scale ** 2
    return [(*t, [Fraction(res.get(n, 0), square) for n in range(algebra.dim)])
            for t, res in sorted(residuals.items())]


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
    return _subgroup_problems(algebra, sub, *_primitive_basis(sub))


def _primitive_basis(sub):
    """The subalgebra vectors as primitive integer vectors, and their span."""
    basis = [_primitive_vector(v) for v in sub.basis]
    return basis, linalg.Echelon(basis)


def _subgroup_problems(algebra, sub, basis, span):
    """`validate_subgroup`, given `_primitive_basis(sub)`."""
    n = algebra.dim
    if problems := _size_problems(n, sub):
        return problems
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

# Largest relative cochain space C(p - k, r) a cohomology computation may
# build, for a k-dimensional subalgebra of a p-dimensional algebra: far above
# so(5) (C(10, 5) = 252) and refused at once beyond.
MAX_COCHAINS = 10_000


def _check_size(p, k, *degrees):
    """DegreeOverflow for the first degree r with C(n, r) over MAX_COCHAINS,
    n = p - k the dimension of g/k.  Past MAX_COCHAINS dimensions C(n, r) >= n
    for 0 < r < n, so it is neither computed nor printed there; below, it is
    printed only when it has under 20 digits."""
    n = p - k
    where = f"on a {p}-dimensional algebra" + (f" over a {k}-dimensional subalgebra" if k else "")
    for r in degrees:
        if 0 < r < n and n > MAX_COCHAINS:
            raise DegreeOverflow(
                f"degree {r} {where} has C({n}, {r}) >= {n} "
                f"basis forms, over the limit of {MAX_COCHAINS}")
        if 0 <= r <= n and (size := comb(n, r)) > MAX_COCHAINS:
            shown = f"= {size}" if size < 10 ** 19 else f"> {MAX_COCHAINS}"
            raise DegreeOverflow(
                f"degree {r} {where} has C({n}, {r}) {shown} "
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
    """{sorted tuple: sum} over the slots m of t and the pairs (new, c) of
    terms(m, t[m]): c times a^t with its slot m replaced by the increasing
    tuple new, signed by (-1)^(m len(new)) and `_merge(new, rest)`, rest
    being t without slot m; zeros dropped."""
    out = {}
    for m, k in enumerate(t):
        rest = t[:m] + t[m + 1:]
        for new, c in terms(m, k):
            if s := _merge(new, rest):
                sign, u = s
                if m * len(new) & 1:
                    sign = -sign
                out[u] = out.get(u, 0) + (c if sign > 0 else -c)
    return {u: x for u, x in out.items() if x}


def _d_image(dual, t):
    """d a^t = sum over slots m of (-1)^m a^{t1} ^ .. (d a^{tm}) .. ^ a^{tr}, with
    d a^k = -sum_{i<j} c^k_ij a^i ^ a^j in the slot of a^k."""
    return _replaced(t, lambda m, k: (((i, j), c if m & 1 else -c) for i, j, c in dual.get(k, ())))


def _interior_image(v, t):
    """i_v a^t = sum over k in t of s v_k a^rest, where a^t = s a^k ^ a^rest."""
    out = {}
    for m, k in enumerate(t):
        if v[k]:
            rest = t[:m] + t[m + 1:]
            out[rest] = v[k] if _merge((k,), rest)[0] > 0 else -v[k]
    return out


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
    return _replaced(t, lambda m, k: (((j,), c) for j, c in table.get(k, {}).items()))


def _pullback_image(minv, t):
    """M.a^t = (a^{t1} o M^-1) ^ ... ^ (a^{tr} o M^-1), the factors, rows of
    M^-1 as a sparse matrix (`_sparse`), wedged on in turn."""
    out = {(): 1}
    for i in t:
        out = _wedge(out, {(j,): x for j, x in minv.get(i, {}).items()})
        out = {u: x for u, x in out.items() if x}
    return out


def _sparse(m):
    """A dense matrix as {row: {column: entry}}, zero entries and rows dropped."""
    return {i: r for i, row in enumerate(m) if (r := {j: x for j, x in enumerate(row) if x})}


def _product(a, b):
    """The product of two sparse matrices {row: {column: entry}}."""
    out = {}
    for i, row in a.items():
        acc = {}
        for k, x in row.items():
            for j, y in b.get(k, {}).items():
                acc[j] = acc.get(j, 0) + x * y
        if acc := {j: z for j, z in acc.items() if z}:
            out[i] = acc
    return out


def _moved(m, coeffs, p):
    """The form with these coefficients on a p-dimensional algebra pulled back
    by the sparse matrix m (`_pullback_image`).  DegreeOverflow, before any
    work, when the result could have more than MAX_COCHAINS terms: when C(p, r)
    in its degree r and the products of its monomials' row lengths in m,
    summed, both pass the limit.  No partial wedge holds more terms than
    either bound allows its result, since each row of L or B in a free column
    holds that column and pivot columns only."""
    if coeffs:
        degree = len(next(iter(coeffs)))
        terms = min(comb(p, degree), sum(prod(len(m.get(i, ())) for i in t) for t in coeffs))
        if terms > MAX_COCHAINS:
            raise DegreeOverflow(
                f"a degree-{degree} form in the basis adapted to the subalgebra expands to up to "
                f"{terms} terms in the algebra's basis, over the limit of {MAX_COCHAINS}")
    return _apply(coeffs, lambda t: _pullback_image(m, t))


def _primitive_vector(v):
    """A nonzero multiple of v as a dense primitive integer vector."""
    row = _integer_row(v)[0]
    row = _primitive(row, min(row)) if row else row
    return [row.get(i, 0) for i in range(len(v))]


class _Constraints:
    """The conditions cutting the relative forms out of the cochains, built
    on g/k.

    The subalgebra vectors in reduced echelon form, as primitive integer
    rows w_i with pivot columns c_i, and the unit vectors e_f of the other
    columns f, which span a complement m, make the adapted basis: f_{c_i} =
    w_i and f_f = e_f, the columns of an integer matrix B.  In its dual
    basis b the forms the subalgebra annihilates (the horizontal ones) are
    those on the monomials b^t with t among the columns f: C(p - k, r) of
    them in degree r, the columns of the constraint matrix, so the interior
    conditions hold by construction.  Two kinds of condition remain, as maps
    on those monomials: the coadjoint action of each w_i and M - 1 for each
    component matrix M, both written in b.  With B^-1 = L / d, a^j = sum_m
    B_jm b^m and d b^f = sum_l L_fl a^l: the action of w_i, whose table on
    the a^j is T (`_coadjoint_table`), is L T B / d on the b^f, and M^-1 =
    N / s is L N B / (d s), with its map N' - s'^r in degree r.  Each map is
    scaled to integers: the bracket table is the algebra's integer table,
    and d and s clear the denominators.

    When the subalgebra is spanned by unit vectors, B is the identity and
    none of this is moved: b is a.  Otherwise L writes the relative forms
    found on b back in a.  A trivial subgroup has no conditions and no
    images."""

    def __init__(self, algebra, sub, span):
        p = self.dim = algebra.dim
        held = sorted(span._rows.items())
        self.pivots = {c for c, _ in held}
        self.free = [f for f in range(p) if f not in self.pivots]
        self.tables = [_coadjoint_table(algebra.integer_brackets, [row.get(j, 0) for j in range(p)])
                       for _, row in held]
        self.inverses = [(_sparse(n), s) for n, s in map(_integer_inverse, sub.component_reps)]
        self.to_adapted = self.from_adapted = None   # B and L, for a basis of no unit vectors
        if any(len(row) > 1 for _, row in held):
            b = [[int(i == j) for j in range(p)] for i in range(p)]
            for c, row in held:
                for j in range(p):
                    b[j][c] = row.get(j, 0)
            l, d = _integer_inverse(b)
            self.to_adapted, self.from_adapted = _sparse(b), _sparse(l)
            self.tables = [_product(_product(self.from_adapted, table), self.to_adapted)
                           for table in self.tables]
            self.inverses = [(_product(_product(self.from_adapted, n), self.to_adapted), d * s)
                             for n, s in self.inverses]
        self.trivial = not (held or self.inverses)
        self._images = {}

    def images(self, t):
        """The images of b^t under the maps, numbered in a fixed order (the
        actions by pivot column, then the components), as one sparse map
        {(number, monomial): coefficient}; built once per t."""
        images = self._images.get(t)
        if images is None:
            maps = [_action_image(table, t) for table in self.tables]
            for minv, s in self.inverses:
                image = _pullback_image(minv, t)
                image[t] = image.get(t, 0) - s ** len(t)
                maps.append(image)
            images = {(n, u): x for n, image in enumerate(maps) for u, x in image.items() if x}
            self._images[t] = images
        return images

    def rows(self, degree):
        """The constraint matrix on the horizontal monomials of the degree,
        as sparse rows, and those monomials in order: the columns."""
        columns = list(combinations(self.free, degree))
        rows = {}
        for t in () if self.trivial else columns:
            for key, x in self.images(t).items():
                rows.setdefault(key, {})[t] = x
        return list(rows.values()), columns

    def forms(self, degree):
        """The relative forms of the degree in a, as `linalg.kernel` gives
        them: one primitive integer vector per free column, in increasing
        order.  Written back in a by L, b^t is d^r a^t plus
        monomials that hold a pivot column, each before t in column order
        (L_fc is 0 for c > f), so each form keeps its last key, and its 0 in
        the other free columns: it only needs dividing by its content."""
        forms = linalg.kernel(*self.rows(degree))
        if self.from_adapted is None:
            return forms
        return [dict(sorted(_primitive(_moved(self.from_adapted, v, self.dim),
                                       next(reversed(v))).items()))
                for v in forms]

    def hold(self, coeffs):
        """Does the form with these coefficients in a satisfy every
        condition: written in b, is it horizontal with no image?"""
        if self.trivial:
            return True
        if self.to_adapted is not None:
            coeffs = _moved(self.to_adapted, coeffs, self.dim)
        return all(self.pivots.isdisjoint(t) for t in coeffs) and not _apply(coeffs, self.images)


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
    minv = _sparse(minv)
    form = AltForm(alpha.dim, alpha.degree,
                   _apply(alpha.coeffs, lambda t: _pullback_image(minv, t)))
    return form if s == 1 else form.scaled(Fraction(1, s ** alpha.degree))


def _require_valid_subgroup(algebra, sub, basis, span):
    if problems := _subgroup_problems(algebra, sub, basis, span):
        raise InvalidSubgroup("; ".join(problems))


def _relative_constraints(algebra, sub, *degrees):
    """The constraints of a valid subgroup, once its relative cochain spaces
    in the degrees pass the size check; the span of its vectors is found
    once, for all three."""
    basis, span = _primitive_basis(sub)
    _check_size(algebra.dim, len(span), *degrees)
    _require_valid_subgroup(algebra, sub, basis, span)
    return _Constraints(algebra, sub, span)


def relative_basis(algebra, sub, degree):
    """Deterministic basis of the relative forms in the given degree:
    annihilated by the subalgebra, infinitesimally invariant under it, and
    fixed by every component matrix.  Each form has 1 in its free column."""
    forms = _relative_constraints(algebra, sub, degree).forms(degree)
    return [AltForm(algebra.dim, degree, {t: Fraction(x, v[fc]) for t, x in v.items()})
            for v in forms for fc in [next(reversed(v))]]


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
    constraints = _relative_constraints(algebra, sub, degree - 1, degree, degree + 1)
    # above dim g - dim k no monomial is horizontal: no row is built and H = 0
    basis = constraints.forms(degree)
    below = constraints.forms(degree - 1) if degree >= 1 else []
    dual, d_images = _dual_table(algebra.integer_brackets), {}

    def d_image(t):
        image = d_images.get(t)
        if image is None:
            image = d_images[t] = _d_image(dual, t)
        return image

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
