"""Symbolic tensor calculus on a single coordinate chart.

Vector fields, differential forms and multivector fields carry ScalarExpr
coefficients indexed by strictly increasing coordinate-index tuples.  The
interior product by a multivector fills the leading slots of the form in
order: for decomposable chi = X1^...^Xq,  (i_chi w)(Y...) = w(X1,...,Xq,Y...).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import scalar_field as sf
from .linalg import _sort_sign


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
        raise ChartMismatch(f"{a.chart.coordinates} vs {b.chart.coordinates}")
    return a.chart


def _clean(coeffs):
    return {idx: c for idx, c in sorted(coeffs.items()) if not c.is_zero()}


def _wedge_coeffs(c1, c2):
    out = {}
    for i1, a in c1.items():
        for i2, b in c2.items():
            s = _sort_sign(i1 + i2)
            if s is None:
                continue
            sign, idx = s
            out[idx] = out.get(idx, sf.ZERO) + sf.rational(sign) * a * b
    return out


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


class _Tensor:
    """Shared container behaviour for forms and multivectors."""

    kind = "tensor"

    def __init__(self, chart, degree, coeffs):
        if not 0 <= degree <= chart.dim:
            raise DegreeOverflow(f"degree {degree} on a {chart.dim}-chart")
        coeffs = {idx: sf.normalize(c) for idx, c in coeffs.items()}
        for idx in coeffs:
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if any(not 0 <= i < chart.dim for i in idx):
                raise ValueError(f"index out of range in {idx}")
        self.chart = chart
        self.degree = degree
        self.coeffs = _clean(coeffs)

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), sf.ZERO)

    def __eq__(self, other):
        return (type(self) is type(other) and self.chart == other.chart
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((type(self), self.chart, self.degree, tuple(self.coeffs.items())))

    def __add__(self, other):
        _same_chart(self, other)
        if type(self) is not type(other) or self.degree != other.degree:
            raise ValueError(f"cannot add {self.kind}s of different kind or degree")
        d = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            d[idx] = d.get(idx, sf.ZERO) + c
        return type(self)(self.chart, self.degree, d)

    def __neg__(self):
        return type(self)(self.chart, self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, f):
        f = sf.normalize(f)
        return type(self)(self.chart, self.degree, {i: f * c for i, c in self.coeffs.items()})

    def __repr__(self):
        from .dsl import tensor_dsl
        return f"{type(self).__name__}({tensor_dsl(self)!r})"


class DiffForm(_Tensor):
    kind = "form"

    @classmethod
    def zero(cls, chart, degree):
        return cls(chart, degree, {})


class MultiVectorField(_Tensor):
    kind = "chain"

    @classmethod
    def zero(cls, chart, degree):
        return cls(chart, degree, {})


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

    def __repr__(self):
        from .dsl import tensor_dsl
        return f"VectorField({tensor_dsl(self.as_multivector())!r})"


def basis_vector(chart, name):
    comps = [sf.ZERO] * chart.dim
    comps[chart.index(name)] = sf.ONE
    return VectorField(chart, comps)


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


def wedge(a, b):
    """Wedge product of two forms or two multivectors."""
    chart = _same_chart(a, b)
    if type(a) is not type(b):
        raise ValueError("wedge requires two forms or two multivectors")
    if a.degree + b.degree > chart.dim:
        raise DegreeOverflow("wedge degree exceeds chart dimension")
    return type(a)(chart, a.degree + b.degree, _wedge_coeffs(a.coeffs, b.coeffs))


def wedge_vectorfields(fields):
    """The multivector X1 ^ X2 ^ ... ^ Xq."""
    fields = list(fields)
    out = fields[0].as_multivector()
    for x in fields[1:]:
        out = wedge(out, x.as_multivector())
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


def evaluate_vectorfield_at(x, point):
    pt = x.chart.point_map(point)
    return [c.eval_at(pt) for c in x.components]


def jacobian_at(x, point):
    """Exact matrix of partials: entry (i, j) = d_j X^i at the point."""
    pt = x.chart.point_map(point)
    return [[sf.partial(x.components[i], name).eval_at(pt)
             for name in x.chart.coordinates]
            for i in range(x.chart.dim)]
