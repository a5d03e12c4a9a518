"""Exact linear algebra over the rationals.

Rows are sparse: dicts from column keys (integers, or any keys that sort in
column order, such as index tuples) to values.  A list is read as the row
of its nonzero entries keyed by position.  `kernel` and `nullspace` take the
rows with the list of column keys; `Echelon` holds the row space and gives
back sparse rows.

Every elimination is fraction-free and exact, so rank, kernel and
membership answers are decisions, not approximations.  Each row is scaled
to integers by clearing its denominators; rows are then combined over Z
and divided by their content (the gcd of their entries), which keeps the
entries small in the manner of Bareiss (1968); Fractions appear only when a
result is normalised at the end.  Pivot choice is always the first nonzero
entry in column order.  The reduced row echelon form of a row space is
unique, so every output equals that of Gauss-Jordan elimination in
Fractions with the same pivot order, and all outputs are deterministic.

`AltTensor` is the one container for alternating tensors: forms and
multivectors on a chart, with ScalarExpr coefficients, and forms on a Lie
algebra, with rational coefficients.  Its constructor checks and normalises
what it is given; its operations build their results with `_of`, which only
sorts and drops zeros.  Every sign of a basis monomial comes
from `_sort_sign` through two rules: `_accumulate` sums terms on unsorted
index tuples, and `_contract` splits e^I = sign * e^J ^ e^rest; where one
slot of a sorted tuple is replaced by a short sorted tuple, `_replace_sign`
gives the same sign by counting.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace


class SingularMatrix(ValueError):
    pass


class _Record:
    """A plain record of values, equal to a record of its own class whose
    attributes are equal, but those named in `_uncompared`; not hashable."""

    _uncompared = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._compared() == other._compared()

    def _compared(self):
        return {k: v for k, v in vars(self).items() if k not in self._uncompared}


class _Frozen:
    """A value never changed once made, whose constructor sets its class's
    `__slots__` in order; equal within its class, and hashed, by them."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {self.__class__.__name__}.{name}")

    def _values(self):
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self is other or (other.__class__ is self.__class__
                                 and self._values() == other._values())

    def __hash__(self):
        return hash(self._values())


def matvec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _integer_row(v):
    """(row, scale): the nonzero entries of v times scale, as a sparse row
    of integers; scale is the lcm of their denominators, 1 with no pass
    when every entry is an int."""
    row = dict(v) if isinstance(v, dict) and all(v.values()) else {
        c: x for c, x in (v.items() if isinstance(v, dict) else enumerate(v)) if x}
    if set(map(type, row.values())) <= {int}:
        return row, 1
    scale = lcm(*(x.denominator for x in row.values()))
    return {c: x.numerator * (scale // x.denominator) for c, x in row.items()}, scale


def _primitive(row, pivot):
    """Divide a nonzero integer row by its content, pivot entry positive;
    the row itself if its content is 1.  With `_integer_row` this is the
    one content helper: `scalar_field` keeps its polynomials in this form."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g == 1:
        return row
    return {c: x // g for c, x in row.items()}


def _combine(a, row, b, other):
    """a * row - b * other, zero entries dropped."""
    out = {c: a * x for c, x in row.items()} if a != 1 else dict(row)
    for c, x in other.items():
        y = out.get(c, 0) - b * x
        if y:
            out[c] = y
        else:
            out.pop(c, None)
    return out


def _normalised(row, pivot):
    """row / row[pivot] as a sparse row of Fractions in column order."""
    p = row[pivot]
    return {c: Fraction(x, p) for c, x in sorted(row.items())}


class Echelon:
    """Incremental row space in reduced echelon form, for membership tests
    and reduction modulo a growing subspace.  This is the one elimination
    kernel: rank, kernel, nullspace and the integer inverse run on it.

    Rows are held as primitive integer rows with a positive pivot entry,
    each zero in the pivot columns of the others."""

    def __init__(self, rows=()):
        self._rows = {}  # pivot column -> primitive integer row
        for v in rows:
            self._hold(v)

    def _reduce(self, row):
        """A nonzero multiple of row minus a combination of the held rows:
        zero in every pivot column."""
        for c in [c for c in row if c in self._rows]:
            held = self._rows[c]
            a, b = held[c], row[c]
            g = gcd(a, b)
            a, b = a // g, b // g
            row = _combine(a, row, b, held)
        return row

    def _add(self, row):
        """Hold a reduced nonzero row; clear its pivot column elsewhere."""
        pivot = min(row)
        row = _primitive(row, pivot)
        a = row[pivot]
        for c, held in list(self._rows.items()):
            b = held.get(pivot)
            if b:
                g = gcd(a, b)
                self._rows[c] = _primitive(_combine(a // g, held, b // g, row), c)
        self._rows[pivot] = row
        return pivot, row

    def _hold(self, v):
        """Reduce v against the space and hold the remainder if nonzero:
        (pivot, primitive integer row), or None if v was in the space."""
        row = self._reduce(_integer_row(v)[0])
        return self._add(row) if row else None

    def insert(self, v):
        """Reduce v against the space; insert the remainder if nonzero.
        Returns the reduced vector as a sparse row scaled to pivot entry 1,
        or None if v was already in the space."""
        held = self._hold(v)
        return held and _normalised(held[1], held[0])

    def contains(self, v):
        return not self._reduce(_integer_row(v)[0])

    @property
    def rows(self):
        """pivot column -> sparse row with pivot entry 1, in insertion order."""
        return {c: _normalised(row, c) for c, row in self._rows.items()}

    def __len__(self):
        return len(self._rows)


def rank(m):
    """The rank of the rows."""
    return len(Echelon(m))


def product_rank(a, b):
    """rank(a b^T) for the rows a and b, on integer rows: scaling
    a row of a or of b scales a row or a column of the product, which keeps
    its rank."""
    a, b = ([_integer_row(r)[0] for r in m] for m in (a, b))
    return rank([{j: x for j, r in enumerate(b)
                  if (x := sum(v * r.get(c, 0) for c, v in row.items()))} for row in a])


def kernel(rows, columns):
    """Integer basis of {x : rows x = 0}, for the rows and the ordered
    column keys: one primitive sparse vector per free column, taken in
    increasing column order.  Its free column is its last key and holds a
    positive entry, and the other free columns hold 0.  With no rows it is
    the unit vectors, returned at once."""
    if not rows:
        return [{c: 1} for c in columns]
    held = Echelon(rows)._rows
    basis = []
    for fc in (c for c in columns if c not in held):
        pivots = [(pc, row[pc], x) for pc, row in held.items() if (x := row.get(fc))]
        scale = lcm(*(p for _, p, _ in pivots))
        v = {pc: -x * (scale // p) for pc, p, x in pivots}
        v[fc] = scale
        basis.append(dict(sorted(_primitive(v, fc).items())))
    return basis


def nullspace(rows, columns):
    """Deterministic basis of {x : rows x = 0}: the `kernel`, each vector a
    list of Fractions over the columns, with 1 in its own free column and 0
    in the other ones."""
    return [[Fraction(v.get(c, 0), v[fc]) for c in columns]
            for v in kernel(rows, columns) for fc in [next(reversed(v))]]


def _integer_matrix(m):
    """(A, l): A = l * m in ints, of the shape of m, for l the lcm of the
    denominators of m."""
    flat, scale = _integer_row({(i, j): x for i, row in enumerate(m) for j, x in enumerate(row)})
    return [[flat.get((i, j), 0) for j in range(len(row))] for i, row in enumerate(m)], scale


def _integer_inverse(m):
    """(N, s) with m^-1 = N / s, N in ints and s the lcm of the denominators
    of m^-1, from the echelon of [l m | l I]: the held row of pivot c is
    primitive, so its pivot entry is the lcm of those of row c of m^-1."""
    a, scale = _integer_matrix(m)
    n = len(a)
    held = Echelon(row + [scale * (i == j) for j in range(n)] for i, row in enumerate(a))._rows
    if any(len(row) != n for row in a) or sorted(held) != list(range(n)):
        raise SingularMatrix("matrix is not invertible")
    s = lcm(*(held[c][c] for c in range(n)))
    return [[held[c].get(n + j, 0) * (s // held[c][c]) for j in range(n)] for c in range(n)], s


# -- alternating tensors ------------------------------------------------------


def _sort_sign(idx):
    """Sort an index tuple, returning (sign of the sorting permutation, sorted
    tuple), or None if an index repeats."""
    idx = list(idx)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return None
    return sign, tuple(idx)


def _accumulate(terms):
    """{sorted tuple: sum} over the (index tuple, coefficient) pairs in order,
    each signed by the sort of its tuple; a repeated index adds nothing."""
    out = {}
    for idx, c in terms:
        s = _sort_sign(idx)
        if s is not None:
            sign, key = s
            c = c if sign > 0 else -c
            out[key] = out[key] + c if key in out else c
    return out


def _replace_sign(t, m, new):
    """`_sort_sign` of t with its slot m replaced by new, for strictly
    increasing t and new, by counting: an index landing at position p among
    the rest of t passes |p - m| of them.  None if it is among them."""
    rest = t[:m] + t[m + 1:]
    out, start, passed = (), 0, 0
    for x in new:
        p = bisect_left(rest, x)
        if p < len(rest) and rest[p] == x:
            return None
        out += rest[start:p] + (x,)
        start, passed = p, passed + p - m
    return -1 if passed & 1 else 1, out + rest[start:]


def _contract(idx, j):
    """(sign, rest) with e^idx = sign * e^j ^ e^rest, for index tuples idx
    and j, or None when j is not inside idx."""
    rest = tuple(i for i in idx if i not in j)
    if len(rest) + len(j) != len(idx):
        return None
    return _sort_sign(j + rest)[0], rest


# The rationals as a coefficient ring, named as `scalar_field` names its own:
# coercion, zero test and zero.
RATIONALS = SimpleNamespace(normalize=Fraction, is_zero=lambda x: x == 0, ZERO=Fraction(0))


class AltTensor:
    """Alternating tensor: {strictly increasing index tuple: coefficient},
    zero coefficients dropped, in index order.

    A subclass names its coefficient ring (`ring`: `normalize`, `is_zero` and
    `ZERO`, as in `scalar_field` or `RATIONALS`), its space (`noun`; the
    space is a chart, whose `dim` counts its coordinates, or the dimension
    of an algebra), its `kind` and the exceptions it raises.
    """

    Mismatch = ValueError

    def __init__(self, space, degree, coeffs):
        dim = getattr(space, "dim", space)
        if not 0 <= degree <= dim:
            raise self.DegreeOverflow(f"degree {degree} on a {dim}-dimensional {self.noun}")
        ring = self.ring
        coeffs = {idx: ring.normalize(c) for idx, c in coeffs.items()}
        for idx in coeffs:
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if any(not 0 <= i < dim for i in idx):
                raise ValueError(f"index out of range in {idx}")
        self._fill(space, degree, coeffs)

    def _fill(self, space, degree, coeffs):
        self.space, self.dim, self.degree = space, getattr(space, "dim", space), degree
        is_zero = self.ring.is_zero
        self.coeffs = {idx: c for idx, c in sorted(coeffs.items()) if not is_zero(c)}

    @classmethod
    def _of(cls, space, degree, coeffs):
        """The tensor of coefficients that are already valid: index tuples
        strictly increasing, in range and of the degree, values in the ring.
        They are only sorted and rid of zeros; nothing is checked."""
        out = object.__new__(cls)
        out._fill(space, degree, coeffs)
        return out

    @classmethod
    def zero(cls, space, degree):
        return cls(space, degree, {})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), self.ring.ZERO)

    def __eq__(self, other):
        return (type(self) is type(other) and self.space == other.space
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((type(self), self.space, self.degree, tuple(self.coeffs.items())))

    def _same_kind(self, other, what):
        if self.space != other.space:
            raise self.Mismatch(f"{self.space} vs {other.space}")
        if type(self) is not type(other):
            raise ValueError(f"cannot {what} a {self.kind} and a {other.kind}")

    def __add__(self, other):
        self._same_kind(other, "add")
        if self.degree != other.degree:
            raise ValueError(f"cannot add {self.kind}s of degrees {self.degree} and {other.degree}")
        d = dict(self.coeffs)
        zero = self.ring.ZERO
        for idx, c in other.coeffs.items():
            d[idx] = d.get(idx, zero) + c
        return self._of(self.space, self.degree, d)

    def __neg__(self):
        return self._of(self.space, self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, f):
        f = self.ring.normalize(f)
        return self._of(self.space, self.degree, {i: f * c for i, c in self.coeffs.items()})

    def wedge(self, other):
        """The wedge product of two tensors of one kind on one space."""
        self._same_kind(other, "wedge")
        degree = self.degree + other.degree
        if degree > self.dim:
            raise self.DegreeOverflow(f"wedge degree exceeds {self.noun} dimension")
        return self._of(self.space, degree, _accumulate(
            (i1 + i2, a * b) for i1, a in self.coeffs.items()
            for i2, b in other.coeffs.items() if set(i1).isdisjoint(i2)))
