"""Exact scalar coefficients: fractions of differential polynomials.

A value is numerator/denominator where each side is a Q-linear combination
of terms, a term being a monomial in coordinate names times a product of
formal derivatives of function symbols (``K(z)``, ``a(x)``, ...).  Terms are
kept sorted by a fixed total order with no zero coefficients, so structural
equality of canonical forms is meaningful and the zero test is syntactic.
Fractions are never reduced by polynomial gcd; mathematical equality is
decided by cross multiplication (`equals`).

All values are immutable; every operation returns a new canonical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction


class ScalarError(Exception):
    pass


class DivisionByZeroExpr(ScalarError):
    pass


class UnknownCoordinate(ScalarError):
    pass


class UnresolvedFunctionSymbol(ScalarError):
    pass


class PoleAtPoint(ScalarError):
    pass


@dataclass(frozen=True, order=True)
class FunctionSymbol:
    """A formal derivative of a named function of some coordinates.

    `orders` counts formal derivatives taken in each argument; the plain
    symbol has all orders zero.  K(z) differentiated twice in z is
    FunctionSymbol("K", ("z",), (2,)).
    """

    name: str
    args: tuple
    orders: tuple

    def __post_init__(self):
        if not self.args or len(set(self.args)) != len(self.args):
            raise ValueError("function arguments must be nonempty and distinct")
        if len(self.orders) != len(self.args) or any(o < 0 for o in self.orders):
            raise ValueError("one non-negative derivative order per argument")

    def differentiate(self, coord):
        i = self.args.index(coord)
        orders = self.orders[:i] + (self.orders[i] + 1,) + self.orders[i + 1:]
        return FunctionSymbol(self.name, self.args, orders)


# A term key is (monomial, symbols):
#   monomial: tuple of (coordinate name, exponent>0), sorted by name
#   symbols:  tuple of (FunctionSymbol, exponent>0), sorted
# A polynomial is a tuple of (term key, Fraction), sorted by _term_order.

_EMPTY_TERM = ((), ())


def _term_order(key):
    mono, syms = key
    return ((sum(e for _, e in mono), mono), syms)


def _freeze(d):
    return tuple(sorted(((k, c) for k, c in d.items() if c != 0), key=lambda kc: _term_order(kc[0])))


_P_ZERO = ()
_P_ONE = ((_EMPTY_TERM, Fraction(1)),)


def _p_add(p, q):
    d = dict(p)
    for k, c in q:
        d[k] = d.get(k, Fraction(0)) + c
    return _freeze(d)


def _p_neg(p):
    return tuple((k, -c) for k, c in p)


def _p_scale(p, f):
    if f == 0:
        return _P_ZERO
    return tuple((k, c * f) for k, c in p)


def _mul_mono(m1, m2):
    d = dict(m1)
    for name, e in m2:
        d[name] = d.get(name, 0) + e
    return tuple(sorted(d.items()))


def _mul_syms(s1, s2):
    d = dict(s1)
    for sym, e in s2:
        d[sym] = d.get(sym, 0) + e
    return tuple(sorted(d.items()))


def _p_mul(p, q):
    d = {}
    for (m1, s1), c1 in p:
        for (m2, s2), c2 in q:
            k = (_mul_mono(m1, m2), _mul_syms(s1, s2))
            d[k] = d.get(k, Fraction(0)) + c1 * c2
    return _freeze(d)


def _p_partial(p, coord):
    d = {}
    for (mono, syms), c in p:
        for i, (name, e) in enumerate(mono):
            if name != coord:
                continue
            rest = mono[:i] + ((name, e - 1),) + mono[i + 1:] if e > 1 else mono[:i] + mono[i + 1:]
            k = (rest, syms)
            d[k] = d.get(k, Fraction(0)) + c * e
        for i, (sym, e) in enumerate(syms):
            if coord not in sym.args:
                continue
            dsym = sym.differentiate(coord)
            rest = syms[:i] + ((sym, e - 1),) if e > 1 else syms[:i]
            rest = rest + syms[i + 1:]
            k = (mono, _mul_syms(rest, ((dsym, 1),)))
            d[k] = d.get(k, Fraction(0)) + c * e
    return _freeze(d)


def _p_eval(p, point):
    total = Fraction(0)
    for (mono, syms), c in p:
        if syms:
            sym = syms[0][0]
            raise UnresolvedFunctionSymbol(f"{sym.name}({', '.join(sym.args)}) has no value")
        v = c
        for name, e in mono:
            if name not in point:
                raise UnknownCoordinate(name)
            v *= Fraction(point[name]) ** e
        total += v
    return total


def _common_content(polys):
    """Monomial/symbol factors present in every term of every polynomial."""
    mono_min, sym_min = None, None
    for p in polys:
        for (mono, syms), _ in p:
            md, sd = dict(mono), dict(syms)
            if mono_min is None:
                mono_min, sym_min = md, sd
            else:
                mono_min = {k: min(v, md[k]) for k, v in mono_min.items() if k in md}
                sym_min = {k: min(v, sd[k]) for k, v in sym_min.items() if k in sd}
            if not mono_min and not sym_min:
                return None
    if not mono_min and not sym_min:
        return None
    return mono_min or {}, sym_min or {}


def _strip_content(p, content):
    mono_min, sym_min = content
    out = []
    for (mono, syms), c in p:
        mono = tuple((k, e - mono_min.get(k, 0)) for k, e in mono if e - mono_min.get(k, 0) > 0)
        syms = tuple((k, e - sym_min.get(k, 0)) for k, e in syms if e - sym_min.get(k, 0) > 0)
        out.append(((mono, syms), c))
    return _freeze(dict(out))


class ScalarExpr:
    """Canonical fraction of differential polynomials.

    Canonicalization cancels common monomial/symbol content between
    numerator and denominator and collapses exactly proportional sides;
    no polynomial gcd is ever computed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        if not den:
            raise DivisionByZeroExpr("denominator normalizes to zero")
        if not num:
            den = _P_ONE
        else:
            if den != _P_ONE:
                content = _common_content((num, den))
                if content is not None:
                    num = _strip_content(num, content)
                    den = _strip_content(den, content)
            lead = den[-1][1]
            if lead != 1:
                inv = Fraction(1) / lead
                num = _p_scale(num, inv)
                den = _p_scale(den, inv)
            if den != _P_ONE and len(num) == len(den):
                keys_n = [k for k, _ in num]
                if keys_n == [k for k, _ in den]:
                    ratio = num[0][1] / den[0][1]
                    if all(cn == ratio * cd for (_, cn), (_, cd) in zip(num, den)):
                        num = ((_EMPTY_TERM, ratio),)
                        den = _P_ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("ScalarExpr is immutable")

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        other = normalize(other)
        if self.den == other.den:
            return ScalarExpr(_p_add(self.num, other.num), self.den)
        return ScalarExpr(
            _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den)),
            _p_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(_p_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-normalize(other))

    def __rsub__(self, other):
        return normalize(other) - self

    def __mul__(self, other):
        other = normalize(other)
        return ScalarExpr(_p_mul(self.num, other.num), _p_mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = normalize(other)
        if other.is_zero():
            raise DivisionByZeroExpr("division by an expression that normalizes to zero")
        return ScalarExpr(_p_mul(self.num, other.den), _p_mul(self.den, other.num))

    def __rtruediv__(self, other):
        return normalize(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroExpr("negative power of zero")
            return ScalarExpr(self.den, self.num) ** (-n)
        out = ONE
        for _ in range(n):
            out = out * self
        return out

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.num == self.den

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = normalize(other)
        if not isinstance(other, ScalarExpr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- calculus ---------------------------------------------------------

    def partial(self, coord):
        dn = _p_partial(self.num, coord)
        if self.den == _P_ONE:
            return ScalarExpr(dn)
        dd = _p_partial(self.den, coord)
        num = _p_add(_p_mul(dn, self.den), _p_neg(_p_mul(self.num, dd)))
        return ScalarExpr(num, _p_mul(self.den, self.den))

    def eval_at(self, point):
        d = _p_eval(self.den, point)
        if d == 0:
            where = ", ".join(f"{name} = {Fraction(value)}" for name, value in point.items())
            raise PoleAtPoint(f"denominator vanishes at {where}")
        return _p_eval(self.num, point) / d

    def function_symbols(self):
        out = set()
        for poly in (self.num, self.den):
            for (_, syms), _ in poly:
                out.update(sym for sym, _ in syms)
        return out

    def __repr__(self):
        return f"ScalarExpr({dsl_str(self)!r})"

    def __str__(self):
        return pretty(self)


def _const(value):
    f = Fraction(value)
    return ScalarExpr(((_EMPTY_TERM, f),) if f != 0 else _P_ZERO)


ZERO = _const(0)
ONE = _const(1)


def rational(p, q=1):
    return _const(Fraction(p, q))


def coordinate(name):
    return ScalarExpr((((((name, 1),), ()), Fraction(1)),))


def function(name, args):
    """The undifferentiated function symbol name(args) as an expression."""
    sym = FunctionSymbol(name, tuple(args), (0,) * len(args))
    return ScalarExpr((((() , ((sym, 1),)), Fraction(1)),))


def normalize(x):
    """Coerce to canonical ScalarExpr; idempotent on ScalarExpr."""
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return _const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a scalar expression")


def partial(e, coord, coords=None):
    """Formal partial derivative of e by the named coordinate.

    When `coords` (the chart's coordinate names) is given, membership is
    enforced; otherwise any identifier is accepted as a coordinate.
    """
    if coords is not None and coord not in coords:
        raise UnknownCoordinate(coord)
    return normalize(e).partial(coord)


def is_zero(e):
    return normalize(e).is_zero()


def equals(e1, e2):
    """Mathematical equality by cross multiplication (no gcd reduction)."""
    e1, e2 = normalize(e1), normalize(e2)
    return not _p_add(_p_mul(e1.num, e2.den), _p_neg(_p_mul(e2.num, e1.den)))


def eval_at(e, point):
    return normalize(e).eval_at(point)


def proportionality(e1, e2):
    """The factor lambda with e1 = lambda * e2, as an exact fraction."""
    e2 = normalize(e2)
    if e2.is_zero():
        raise DivisionByZeroExpr("proportionality against the zero expression")
    return normalize(e1) / e2


def cleared_numerators(exprs):
    """Numerator polynomials after clearing denominators across the list.

    Returns raw term tuples P_i = num_i * prod(den_l for l != i); a rational
    combination of the expressions vanishes iff the same combination of the
    P_i does, which reduces linear dependence over Q to coefficient matching.
    """
    exprs = [normalize(e) for e in exprs]
    out = []
    for i, e in enumerate(exprs):
        p = e.num
        for l, other in enumerate(exprs):
            if l != i:
                p = _p_mul(p, other.den)
        out.append(p)
    return out


# -- rendering -------------------------------------------------------------


def _sym_dsl(sym, exp):
    s = f"{sym.name}({','.join(sym.args)})"
    for arg, order in zip(sym.args, sym.orders):
        for _ in range(order):
            s = f"D({s},{arg})"
    return s if exp == 1 else f"{s}^{exp}"


def _term_dsl(key, coef):
    mono, syms = key
    factors = [name if e == 1 else f"{name}^{e}" for name, e in mono]
    factors += [_sym_dsl(sym, e) for sym, e in syms]
    if not factors:
        return str(abs(coef))
    a = abs(coef)
    if a != 1:
        factors.insert(0, str(a))
    return "*".join(factors)


def _poly_dsl(p):
    if not p:
        return "0"
    parts = []
    for i, (key, coef) in enumerate(p):
        t = _term_dsl(key, coef)
        if i == 0:
            parts.append("-" + t if coef < 0 else t)
        else:
            parts.append((" - " if coef < 0 else " + ") + t)
    return "".join(parts)


def dsl_str(e):
    """Deterministic surface-syntax rendering; parses back to the same value."""
    e = normalize(e)
    num = _poly_dsl(e.num)
    if e.den == _P_ONE:
        return num
    if len(e.num) > 1:
        num = f"({num})"
    return f"{num}/({_poly_dsl(e.den)})"


_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_PRIME = "′"
_PARTIAL = "∂"


def _sym_pretty(sym, exp):
    total = sum(sym.orders)
    primes = _PRIME * total
    args = ",".join(sym.args)
    if total == 0:
        s = f"{sym.name}({args})"
    elif len(sym.args) == 1 and total <= 3:
        s = f"{sym.name}{primes}({sym.args[0]})"
    else:
        front = _PARTIAL + (str(total).translate(_SUPERSCRIPTS) if total > 1 else "")
        below = "".join(_PARTIAL + a + (str(o).translate(_SUPERSCRIPTS) if o > 1 else "")
                        for a, o in zip(sym.args, sym.orders) if o)
        s = f"{front}{sym.name}/{below}({args})"
    return s if exp == 1 else s + str(exp).translate(_SUPERSCRIPTS)


def pretty(e):
    e = normalize(e)

    def term(key, coef):
        mono, syms = key
        factors = [name + (str(x).translate(_SUPERSCRIPTS) if x != 1 else "") for name, x in mono]
        factors += [_sym_pretty(sym, x) for sym, x in syms]
        if not factors:
            return str(abs(coef))
        a = abs(coef)
        lead = "" if a == 1 else str(a) + "·"
        return lead + "·".join(factors)

    def poly(p):
        if not p:
            return "0"
        parts = []
        for i, (key, coef) in enumerate(p):
            t = term(key, coef)
            if i == 0:
                parts.append("-" + t if coef < 0 else t)
            else:
                parts.append((" - " if coef < 0 else " + ") + t)
        return "".join(parts)

    if e.den == _P_ONE:
        return poly(e.num)
    return f"({poly(e.num)})/({poly(e.den)})"
