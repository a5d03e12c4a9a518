"""Symbolic tensor calculus on a single coordinate chart.

Vector fields, differential forms and multivector fields carry ScalarExpr
coefficients; forms and multivector fields are `linalg.AltTensor`s over
`scalar_field`, indexed by strictly increasing coordinate-index tuples.  The
interior product by a multivector fills the leading slots of the form in
order: for decomposable chi = X1^...^Xq,  (i_chi w)(Y...) = w(X1,...,Xq,Y...).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import scalar_field as sf
from .linalg import AltTensor, _sort_sign


class ChartError(Exception):
    pass


class ChartMismatch(ChartError):
    pass


class DegreeOverflow(ChartError):
    pass


class DegreeUnderflow(ChartError):
    pass


@dataclass(frozen=True)
class Chart:
    """An ordered tuple of distinct coordinate names (one global chart)."""

    coordinates: tuple

    def __post_init__(self):
        if not self.coordinates or len(set(self.coordinates)) != len(self.coordinates):
            raise ValueError("chart needs at least one coordinate, all distinct")

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
        """Accepts a coordinate->value mapping or a value sequence."""
        if isinstance(point, dict):
            return {k: Fraction(v) for k, v in point.items()}
        point = tuple(point)
        if len(point) != self.dim:
            raise ValueError(f"point needs {self.dim} coordinates, got {len(point)}")
        return {c: Fraction(v) for c, v in zip(self.coordinates, point)}


def _same_chart(a, b):
    if a.chart != b.chart:
        raise ChartMismatch(f"{a.chart} vs {b.chart}")
    return a.chart


def _contract_basis(coeffs, j):
    """Interior product by the j-th coordinate basis vector, first slot."""
    out = {}
    for idx, c in coeffs.items():
        if j not in idx:
            continue
        t = idx.index(j)
        rest = idx[:t] + idx[t + 1:]
        term = c if t % 2 == 0 else -c
        out[rest] = out.get(rest, sf.ZERO) + term
    return out


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
    """Multivector field: ScalarExpr coefficients on D(x_{i1})^...^D(x_{iq})."""

    kind, ring, noun = "chain", sf, "chart"
    DegreeOverflow, Mismatch = DegreeOverflow, ChartMismatch
    chart = property(lambda self: self.space)
    __repr__ = _repr


class VectorField:
    """Vector field with one ScalarExpr component per chart coordinate."""

    def __init__(self, chart, components):
        components = tuple(sf.normalize(c) for c in components)
        if len(components) != chart.dim:
            raise ValueError("one component per coordinate")
        self.chart = chart
        self.components = components

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other):
        return (isinstance(other, VectorField) and self.chart == other.chart
                and self.components == other.components)

    def __hash__(self):
        return hash((self.chart, self.components))

    def __add__(self, other):
        _same_chart(self, other)
        return VectorField(self.chart, [a + b for a, b in zip(self.components, other.components)])

    def __neg__(self):
        return VectorField(self.chart, [-c for c in self.components])

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, f):
        f = sf.normalize(f)
        return VectorField(self.chart, [f * c for c in self.components])

    def as_multivector(self):
        return MultiVectorField(self.chart, 1,
                                {(i,): c for i, c in enumerate(self.components)})

    def apply(self, f):
        """Directional derivative X(f) of a scalar expression."""
        out = sf.ZERO
        for i, comp in enumerate(self.components):
            if not comp.is_zero():
                out = out + comp * sf.partial(f, self.chart.coordinates[i])
        return out

    __repr__ = _repr


def scalar_form(chart, f):
    return DiffForm(chart, 0, {(): sf.normalize(f)})


def d_exterior(omega):
    """Exterior derivative, coefficientwise d(f dx_I) = df ^ dx_I."""
    chart = omega.chart
    if omega.degree == chart.dim:
        raise DegreeOverflow("exterior derivative of a top-degree form")
    out = {}
    for idx, f in omega.coeffs.items():
        for j, name in enumerate(chart.coordinates):
            if j in idx:
                continue
            g = sf.partial(f, name)
            if g.is_zero():
                continue
            pos = sum(1 for i in idx if i < j)
            new = tuple(sorted(idx + (j,)))
            term = g if pos % 2 == 0 else -g
            out[new] = out.get(new, sf.ZERO) + term
    return DiffForm(chart, omega.degree + 1, out)


def wedge_vectorfields(fields):
    """The multivector X1 ^ X2 ^ ... ^ Xq."""
    fields = list(fields)
    out = fields[0].as_multivector()
    for x in fields[1:]:
        out = out.wedge(x.as_multivector())
    return out


def lie_bracket(x, y):
    chart = _same_chart(x, y)
    comps = []
    for i in range(chart.dim):
        acc = sf.ZERO
        for j, name in enumerate(chart.coordinates):
            acc = acc + x.components[j] * sf.partial(y.components[i], name)
            acc = acc - y.components[j] * sf.partial(x.components[i], name)
        comps.append(acc)
    return VectorField(chart, comps)


def interior_vector(x, omega):
    """First-slot contraction (i_X w)(Y...) = w(X, Y...)."""
    chart = _same_chart(x, omega)
    if omega.degree < 1:
        raise DegreeUnderflow("interior product of a 0-form")
    out = {}
    for j, comp in enumerate(x.components):
        if comp.is_zero():
            continue
        for idx, c in _contract_basis(omega.coeffs, j).items():
            out[idx] = out.get(idx, sf.ZERO) + comp * c
    return DiffForm(chart, omega.degree - 1, out)


def interior_multivector(chi, omega):
    """Iterated contraction; chi's factors fill the leading slots in order."""
    chart = _same_chart(chi, omega)
    if omega.degree < chi.degree:
        raise DegreeUnderflow(f"cannot contract degree {chi.degree} into degree {omega.degree}")
    out = {}
    for idx, j_coeff in chi.coeffs.items():
        d = omega.coeffs
        for j in idx:
            d = _contract_basis(d, j)
        for rest, c in d.items():
            out[rest] = out.get(rest, sf.ZERO) + j_coeff * c
    return DiffForm(chart, omega.degree - chi.degree, out)


def lie_derivative_form(x, omega):
    """Cartan formula L_X = i_X d + d i_X; X(f) on 0-forms."""
    chart = _same_chart(x, omega)
    k = omega.degree
    parts = []
    if k < chart.dim:
        parts.append(interior_vector(x, d_exterior(omega)))
    if k > 0:
        parts.append(d_exterior(interior_vector(x, omega)))
    out = DiffForm.zero(chart, k)
    for p in parts:
        out = out + p
    return out


def lie_derivative_multivector(r, chi):
    """Derivation extension of the bracket, plus R(J) on coefficients."""
    chart = _same_chart(r, chi)
    out = {}

    def acc(idx, c):
        if not c.is_zero():
            out[idx] = out.get(idx, sf.ZERO) + c

    for idx, j_coeff in chi.coeffs.items():
        acc(idx, r.apply(j_coeff))
        # [R, d/dx_j] = -sum_m d_j(R^m) d/dx_m, slotted into each factor
        for t, j in enumerate(idx):
            name = chart.coordinates[j]
            for m in range(chart.dim):
                g = sf.partial(r.components[m], name)
                if g.is_zero():
                    continue
                s = _sort_sign(idx[:t] + (m,) + idx[t + 1:])
                if s is None:
                    continue
                sign, new = s
                acc(new, sf.rational(-sign) * j_coeff * g)
    return MultiVectorField(chart, chi.degree, out)


def jacobian_at(x, point):
    """Exact matrix of partials: entry (i, j) = d_j X^i at the point."""
    pt = x.chart.point_map(point)
    return [[sf.partial(x.components[i], name).eval_at(pt)
             for name in x.chart.coordinates]
            for i in range(x.chart.dim)]
