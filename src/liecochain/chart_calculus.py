"""Symbolic tensor calculus on a single coordinate chart.

Differential forms and multivector fields carry ScalarExpr coefficients;
both are `linalg.AltTensor`s over `scalar_field`, indexed by strictly
increasing coordinate-index tuples, and a vector field is a multivector
field of degree 1.  The one interior product fills the leading slots of the
form in order: for decomposable chi = X1^...^Xq,
(i_chi w)(Y...) = w(X1,...,Xq,Y...).  One kernel takes the Lie derivative
of a form or a chain: X on each coefficient, and in each basis factor
[X, d/dx_j] = -sum_m d_j(X^m) d/dx_m for a chain, L_X dx_j = sum_m
d_m(X^j) dx_m for a form.  The bracket [X, Y] is L_X Y, the Lie derivative
of a degree-1 chain; every sign comes from `linalg._merge`.

An invariance check needs only whether L_X t = 0 for each generator X
(`lie_derivatives_vanish`).  `scalar_field.operator_vanishes` decides it on
t's cleared numerator, with the kernel's factor rule and one layout for all
the generators, fixed before the first; the exact kernel builds the witness
of a failing generator, and decides where that declines.
"""

from __future__ import annotations

from fractions import Fraction

from . import scalar_field as sf
from .linalg import AltTensor, _accumulate, _Frozen, _merge, _wedge


class ChartError(Exception):
    pass


class ChartMismatch(ChartError):
    pass


class DegreeOverflow(ChartError):
    pass


class DegreeUnderflow(ChartError):
    pass


class Chart(_Frozen):
    """An ordered tuple of distinct coordinate names (one global chart).
    Never changed once made; compared and hashed by its coordinates."""

    __slots__ = ("coordinates",)

    def __init__(self, coordinates):
        if not coordinates or len(set(coordinates)) != len(coordinates):
            raise ValueError("chart needs at least one coordinate, all distinct")
        super().__init__(coordinates)

    def __eq__(self, other):
        return self is other or (other.__class__ is Chart
                                 and self.coordinates == other.coordinates)

    __hash__ = _Frozen.__hash__

    @property
    def dim(self):
        return len(self.coordinates)

    def __str__(self):
        return str(self.coordinates)

    def index(self, name):
        try:
            return self.coordinates.index(name)
        except ValueError:
            raise sf.UnknownCoordinate(name) from None

    def point_map(self, point):
        """The coordinate -> Fraction mapping of a value sequence."""
        point = tuple(point)
        if len(point) != self.dim:
            raise ValueError(f"point needs {self.dim} coordinates, got {len(point)}")
        return {c: Fraction(v) for c, v in zip(self.coordinates, point)}


def _same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatch(f"{a.chart} vs {b.chart}")
    return a.chart


def _repr(obj):
    from .dsl import tensor_dsl
    return f"{type(obj).__name__}({tensor_dsl(obj)!r})"


class DiffForm(AltTensor):
    """Differential form: ScalarExpr coefficients on dx_{i1}^...^dx_{ik}."""

    kind, ring, noun = "form", sf, "chart"
    DegreeOverflow, Mismatch = DegreeOverflow, ChartMismatch
    chart = property(lambda self: self.space)
    __repr__ = _repr


class MultiVectorField(AltTensor):
    """Multivector field: ScalarExpr coefficients on D(x_{i1})^...^D(x_{iq}).

    A vector field is a multivector field of degree 1 (see `vector_field`).
    """

    kind, ring, noun = "chain", sf, "chart"
    DegreeOverflow, Mismatch = DegreeOverflow, ChartMismatch
    chart = property(lambda self: self.space)
    __repr__ = _repr

    def _require_vector(self):
        if self.degree != 1:
            raise ValueError(f"a vector field has degree 1, not {self.degree}")

    @property
    def components(self):
        """A vector field's coefficients, one per chart coordinate."""
        self._require_vector()
        return tuple(self.coefficient((i,)) for i in range(self.dim))

    def apply(self, f):
        """Directional derivative X(f) of a scalar expression by a vector field."""
        self._require_vector()
        out = sf.ZERO
        for (i,), comp in self.coeffs.items():
            out = out + comp * sf.partial(f, self.chart.coordinates[i])
        return out


def vector_field(chart, components):
    """The vector field with one component per chart coordinate."""
    components = tuple(components)
    if len(components) != chart.dim:
        raise ValueError("one component per coordinate")
    return MultiVectorField(chart, 1, {(i,): c for i, c in enumerate(components)})


def d_exterior(omega):
    """Exterior derivative, coefficientwise d(f dx_I) = df ^ dx_I."""
    chart = omega.chart
    if omega.degree == chart.dim:
        raise DegreeOverflow("exterior derivative of a top-degree form")
    terms = []
    for idx, f in omega.coeffs.items():
        df = {(j,): g for j, name in enumerate(chart.coordinates)
              if j not in idx and not (g := sf.partial(f, name)).is_zero()}
        terms += _wedge(df, {idx: sf.ONE}).items()
    return DiffForm(chart, omega.degree + 1, _accumulate(terms))


def wedge_vectorfields(fields):
    """The multivector X1 ^ X2 ^ ... ^ Xq."""
    fields = list(fields)
    out = fields[0]
    for x in fields[1:]:
        out = out.wedge(x)
    return out


def lie_bracket(x, y):
    """[X, Y] = L_X Y, the Lie derivative of a degree-1 chain."""
    _same_chart(x, y)
    x._require_vector()
    y._require_vector()
    return _lie_derivative(x, y)


def interior_multivector(chi, omega):
    """Iterated contraction; chi's factors fill the leading slots in order."""
    chart = _same_chart(chi, omega)
    if omega.degree < chi.degree:
        raise DegreeUnderflow(f"cannot contract degree {chi.degree} into degree {omega.degree}")
    terms = []
    for j, a in chi.coeffs.items():
        for idx, c in omega.coeffs.items():
            rest = tuple(i for i in idx if i not in j)
            if len(rest) + len(j) == len(idx):   # e^idx = sign * e^j ^ e^rest
                terms.append((rest, a * c if _merge(j, rest)[0] > 0 else a * -c))
    return DiffForm(chart, omega.degree - chi.degree, _accumulate(terms))


def lie_derivative_form(x, omega):
    """L_X w by the factor rule for forms; X(f) on 0-forms."""
    return _lie_derivative(x, omega)


def lie_derivative_multivector(r, chi):
    """L_R chi by the factor rule for chains."""
    return _lie_derivative(r, chi)


def _lie_derivative(r, t):
    """L_R t for a form or a chain.  `lie_bracket` calls this directly, so
    that a trace counts the calls of the two entry points their callers
    make, and no more."""
    chart = _same_chart(r, t)
    names, form = chart.coordinates, t.kind == "form"
    jac = {}   # (i, k) -> d_k R^i, for this call
    terms = []
    for idx, a in t.coeffs.items():
        terms.append((idx, r.apply(a)))
        for sign, key, i, k in _factor_terms(r, idx, form):
            if (i, k) not in jac:
                jac[i, k] = r.coeffs[i,].partial(names[k])
            g = jac[i, k]
            if not g.is_zero():
                terms.append((key, a * g if sign > 0 else -(a * g)))
    return type(t)(chart, t.degree, _accumulate(terms))


def _factor_terms(r, idx, form):
    """L_R on the basis factors of e_idx, one rule for forms and chains:
    (sign, sorted index tuple, i, k) for each term sign * d_k R^i * e_tuple.
    A form's factor dx_j gains d_m R^j dx_m; a chain's factor D(x_j) loses
    d_j R^m D(x_m).  Replacing slot s by m signs a term by (-1)^s and
    `_merge((m,), rest)`, rest being idx without slot s."""
    for s, j in enumerate(idx):
        rest, slot = idx[:s] + idx[s + 1:], (1 if form else -1) * (-1 if s & 1 else 1)
        for m in range(r.dim):
            i, k = (j, m) if form else (m, j)
            if (i,) in r.coeffs and (merged := _merge((m,), rest)):
                yield slot * merged[0], merged[1], i, k


def lie_derivatives_vanish(xs, t):
    """Whether L_X t = 0 for each X of xs in order, yielded one at a time
    and decided without building L_X t: on t's cleared numerator by
    `scalar_field.operator_vanishes`, with the kernel's factor rule and one
    layout for every X, or by the exact kernel where that declines.  X's
    chart is checked when its turn comes."""
    xs, form = list(xs), t.kind == "form"
    verdicts = sf.operator_vanishes(t.coeffs, [{m: c for (m,), c in x.coeffs.items()} for x in xs],
                                    t.chart.coordinates,
                                    lambda n, idx: _factor_terms(xs[n], idx, form))
    for x in xs:
        _same_chart(x, t)
        verdict = next(verdicts)
        yield _lie_derivative(x, t).is_zero() if verdict is None else verdict
