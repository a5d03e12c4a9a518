"""Exact scalar coefficients: fractions of differential polynomials.

A value is numerator/denominator.  The numerator is a Q-linear combination
of terms, a term being a monomial in coordinate names times a product of
formal derivatives of function symbols (``K(z)``, ``a(x)``, ...).  Terms are
kept sorted by a fixed total order with no zero coefficients, so structural
equality of canonical forms is meaningful and the zero test is syntactic.

The denominator is kept factored, as a sorted tuple of (factor, exponent)
pairs; a polynomial has none.  At most one factor is a monomial (one term,
coefficient 1, exponent 1, placed first); every other factor has several
terms, no monomial content and lead coefficient 1.  Products add exponents,
sums take the lcm of the factor multisets, and the quotient rule raises the
exponent of each factor it differentiates by one, so only numerators grow.
Fractions are never reduced by polynomial gcd; mathematical equality is
decided by cross multiplication (`equals`).

All values are immutable; every operation returns a new canonical value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from types import SimpleNamespace

# Largest n * t * C(n+t-1, t-1) -- term products in raising a t-term
# numerator to the n-th power -- that `**` starts.
MAX_POWER_WORK = 1_000_000


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


class PowerTooLarge(ScalarError):
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
# A denominator is a tuple of (polynomial, exponent>0), sorted by _factor_order.

_EMPTY_TERM = ((), ())


def _term_order(key):
    mono, syms = key
    return ((sum(e for _, e in mono), mono), syms)


def _factor_order(factor_exp):
    f = factor_exp[0]
    return len(f), [(_term_order(k), c) for k, c in f]


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


def _mul_exps(a, b):
    """Product of two sorted (variable, exponent) tuples: monomials or symbols."""
    if not a or not b:
        return a or b
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def _p_mul(p, q):
    if q == _P_ONE:
        return p
    d = {}
    for (m1, s1), c1 in p:
        for (m2, s2), c2 in q:
            k = (_mul_exps(m1, m2), _mul_exps(s1, s2))
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
            k = (mono, _mul_exps(rest, ((dsym, 1),)))
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


# -- term keys as monomials: content, cancellation, lcm ---------------------


def _min_exps(a, b):
    db = dict(b)
    return tuple((v, min(e, db[v])) for v, e in a if v in db)


def _max_exps(a, b):
    d = dict(a)
    for v, e in b:
        if e > d.get(v, 0):
            d[v] = e
    return tuple(sorted(d.items()))


def _div_exps(a, b):
    """a / b for exponent tuples where b divides a."""
    db = dict(b)
    return tuple((v, e - db.get(v, 0)) for v, e in a if e > db.get(v, 0))


def _key_mul(k1, k2):
    return _mul_exps(k1[0], k2[0]), _mul_exps(k1[1], k2[1])


def _key_gcd(k1, k2):
    return _min_exps(k1[0], k2[0]), _min_exps(k1[1], k2[1])


def _key_lcm(k1, k2):
    return _max_exps(k1[0], k2[0]), _max_exps(k1[1], k2[1])


def _key_div(k1, k2):
    return _div_exps(k1[0], k2[0]), _div_exps(k1[1], k2[1])


def _content(p):
    """The largest term key dividing every term of the nonzero polynomial p."""
    (mono, syms), _ = p[0]
    for (m, s), _ in p[1:]:
        if not mono and not syms:
            break
        mono, syms = _min_exps(mono, m), _min_exps(syms, s)
    return mono, syms


def _p_div_key(p, key):
    if key == _EMPTY_TERM:
        return p
    return _freeze({_key_div(k, key): c for k, c in p})


def _primitive(p):
    """(content, lead, f) with p = lead * content * f for a nonzero p: its
    monomial content, and the rest scaled to lead coefficient 1."""
    content = _content(p)
    rest = _p_div_key(p, content)
    lead = rest[-1][1]
    return content, lead, _p_scale(rest, 1 / lead)


# -- factored denominators ---------------------------------------------------


def _split(den):
    """A denominator as (monomial term key, {multi-term factor: exponent})."""
    if den and len(den[0][0]) == 1:
        return den[0][0][0][0], dict(den[1:])
    return _EMPTY_TERM, dict(den)


def _new(num, den):
    e = object.__new__(ScalarExpr)
    object.__setattr__(e, "num", num)
    object.__setattr__(e, "den", den)
    return e


def _fraction(num, mono=_EMPTY_TERM, factors=None):
    """The canonical value num / (mono * prod(f^e for f, e in factors)).

    `factors` holds monic multi-term factors with no monomial content; it is
    consumed.  A numerator exactly proportional to a factor lowers that
    factor's exponent, then monomial content common to the numerator and
    `mono` cancels: the only reductions, both syntactic.
    """
    if not num:
        return _new(_P_ZERO, ())
    den = []
    if factors:
        if any(len(f) == len(num) for f in factors):
            content, lead, f = _primitive(num)
            if factors.get(f):
                factors[f] -= 1
                num = ((content, lead),)
        den = sorted((fe for fe in factors.items() if fe[1]), key=_factor_order)
    if mono != _EMPTY_TERM:
        common = _key_gcd(_content(num), mono)
        num, mono = _p_div_key(num, common), _key_div(mono, common)
        if mono != _EMPTY_TERM:
            den.insert(0, (((mono, Fraction(1)),), 1))
    return _new(num, tuple(den))


def _lcm(dens):
    """The lcm of factored denominators as (mono, factors), with the
    cofactor polynomial lcm / den of each."""
    splits = [_split(d) for d in dens]
    mono, factors = _EMPTY_TERM, {}
    for m, fs in splits:
        mono = _key_lcm(mono, m)
        for f, e in fs.items():
            if e > factors.get(f, 0):
                factors[f] = e
    cofactors = []
    for m, fs in splits:
        c = ((_key_div(mono, m), Fraction(1)),)
        for f, e in factors.items():
            for _ in range(e - fs.get(f, 0)):
                c = _p_mul(c, f)
        cofactors.append(c)
    return mono, factors, cofactors


class ScalarExpr:
    """Canonical fraction of differential polynomials with a factored
    denominator (see the module docstring).

    Canonicalization cancels common monomial/symbol content between the
    numerator and the monomial factor, and lowers the exponent of a factor
    the numerator is exactly proportional to; no polynomial gcd is ever
    computed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        e = _fraction(num, *_split(den))
        object.__setattr__(self, "num", e.num)
        object.__setattr__(self, "den", e.den)

    def __setattr__(self, *a):
        raise AttributeError("ScalarExpr is immutable")

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        other = normalize(other)
        if self.den == other.den:
            return _fraction(_p_add(self.num, other.num), *_split(self.den))
        mono, factors, (c1, c2) = _lcm((self.den, other.den))
        return _fraction(_p_add(_p_mul(self.num, c1), _p_mul(other.num, c2)), mono, factors)

    __radd__ = __add__

    def __neg__(self):
        return _new(_p_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-normalize(other))

    def __rsub__(self, other):
        return normalize(other) - self

    def __mul__(self, other):
        other = normalize(other)
        num = _p_mul(self.num, other.num)
        if not self.den and not other.den:
            return _new(num, ())
        (m1, factors), (m2, f2) = _split(self.den), _split(other.den)
        for f, e in f2.items():
            factors[f] = factors.get(f, 0) + e
        return _fraction(num, _key_mul(m1, m2), factors)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The divisor's numerator becomes a constant, monomial content and
        one monic factor; its denominator cancels against the dividend's
        factors and multiplies the numerator with what is left."""
        other = normalize(other)
        if other.is_zero():
            raise DivisionByZeroExpr("division by an expression that normalizes to zero")
        content, lead, f = _primitive(other.num)
        mono, factors = _split(self.den)
        if len(f) > 1:
            factors[f] = factors.get(f, 0) + 1
        omono, ofactors = _split(other.den)
        mono = _key_mul(mono, content)
        common = _key_gcd(mono, omono)
        mono = _key_div(mono, common)
        num = _p_mul(self.num, ((_key_div(omono, common), 1 / lead),))
        for f, e in ofactors.items():
            cancelled = min(e, factors.get(f, 0))
            if cancelled:
                factors[f] -= cancelled
            for _ in range(e - cancelled):
                num = _p_mul(num, f)
        return _fraction(num, mono, factors)

    def __rtruediv__(self, other):
        return normalize(other) / self

    def __pow__(self, n):
        """Integer power: the numerator by n successive products (refused
        over `MAX_POWER_WORK`), the denominator by scaling its exponents."""
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroExpr("negative power of zero")
            return (ONE / self) ** (-n)
        if n == 0:
            return ONE
        t = len(self.num)
        if t and n * t * comb(n + t - 1, t - 1) > MAX_POWER_WORK:
            raise PowerTooLarge(
                f"raising a {t}-term numerator to the power {n} needs "
                f"{n} * {t} * C({n + t - 1}, {t - 1}) term products, over the limit of {MAX_POWER_WORK}")
        num = _P_ONE
        for _ in range(n):
            num = _p_mul(num, self.num)
        (mono, syms), factors = _split(self.den)
        mono = tuple((v, e * n) for v, e in mono), tuple((v, e * n) for v, e in syms)
        return _fraction(num, mono, {f: e * n for f, e in factors.items()})

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.num

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
        """Quotient rule on the factored denominator: with D the factors
        that depend on `coord`, (N' prod_D f - N sum_i e_i f_i' prod_{D-i} f)
        over the denominator with each exponent in D raised by one."""
        dn = _p_partial(self.num, coord)
        if not self.den:
            return _new(dn, ())
        mono, factors = _split(self.den)
        moving = [(f, e, df) for f, e in self.den if (df := _p_partial(f, coord))]
        num = dn
        for f, _, _ in moving:
            num = _p_mul(num, f)
        for i, (_, e, df) in enumerate(moving):
            t = _p_scale(_p_mul(self.num, df), -e)
            for j, (g, _, _) in enumerate(moving):
                if j != i:
                    t = _p_mul(t, g)
            num = _p_add(num, t)
        for f, e, _ in moving:
            if len(f) == 1:
                mono = _key_mul(mono, mono)
            else:
                factors[f] = e + 1
        return _fraction(num, mono, factors)

    def eval_at(self, point):
        d = Fraction(1)
        for f, e in self.den:
            d *= _p_eval(f, point) ** e
        if d == 0:
            where = ", ".join(f"{name} = {Fraction(value)}" for name, value in point.items())
            raise PoleAtPoint(f"denominator vanishes at {where}")
        return _p_eval(self.num, point) / d

    def __repr__(self):
        return f"ScalarExpr({dsl_str(self)!r})"

    def __str__(self):
        return pretty(self)


def _const(value):
    f = Fraction(value)
    return _new(((_EMPTY_TERM, f),) if f != 0 else _P_ZERO, ())


ZERO = _const(0)
ONE = _const(1)


def rational(p, q=1):
    return _const(Fraction(p, q))


def coordinate(name):
    return _new((((((name, 1),), ()), Fraction(1)),), ())


def function(name, args):
    """The undifferentiated function symbol name(args) as an expression."""
    sym = FunctionSymbol(name, tuple(args), (0,) * len(args))
    return _new((((() , ((sym, 1),)), Fraction(1)),), ())


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
    """Mathematical equality by cross multiplication with the cofactors of
    the lcm of the two denominators (no gcd reduction)."""
    e1, e2 = normalize(e1), normalize(e2)
    if e1.den == e2.den:
        return e1.num == e2.num
    _, _, (c1, c2) = _lcm((e1.den, e2.den))
    return _p_mul(e1.num, c1) == _p_mul(e2.num, c2)


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

    Returns raw term tuples P_i = num_i * (L / den_i), L the lcm of the
    factored denominators; a rational combination of the expressions
    vanishes iff the same combination of the P_i does, which reduces linear
    dependence over Q to coefficient matching.
    """
    exprs = [normalize(e) for e in exprs]
    _, _, cofactors = _lcm([e.den for e in exprs])
    return [_p_mul(e.num, c) for e, c in zip(exprs, cofactors)]


# -- rendering -------------------------------------------------------------
#
# One walker per object kind -- `render` for scalars here; chart tensors,
# algebra forms and algebra vectors in `dsl` -- joins its terms with
# `_signed_sum` and reads one of two styles: PLAIN, the workspace syntax,
# which parses back to the same value, and UNICODE, for display.

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _sup(n):
    return str(n).translate(_SUPERSCRIPTS)


def _sym_plain(sym):
    s = f"{sym.name}({','.join(sym.args)})"
    for arg, order in zip(sym.args, sym.orders):
        for _ in range(order):
            s = f"D({s},{arg})"
    return s


def _sym_unicode(sym):
    """K(z); f′(x) up to three primes; otherwise ∂²K/∂x∂y(x,y)."""
    total = sum(sym.orders)
    args = ",".join(sym.args)
    if total == 0:
        return f"{sym.name}({args})"
    if len(sym.args) == 1 and total <= 3:
        return f"{sym.name}{'′' * total}({args})"
    below = "".join("∂" + a + UNICODE.power(o) for a, o in zip(sym.args, sym.orders) if o)
    return f"∂{UNICODE.power(total)}{sym.name}/{below}({args})"


# times, wedge: the product and wedge signs; power(n): an exponent, empty for
# 1; symbol(sym): a function symbol; bare_monomial: a one-term numerator
# goes without parentheses before its denominator; form, chain, covector:
# the basis atoms of chart forms, chart chains and algebra forms.
PLAIN = SimpleNamespace(
    times="*", wedge="^", power=lambda n: f"^{n}" if n != 1 else "", symbol=_sym_plain,
    bare_monomial=True, form="d({})".format, chain="D({})".format, covector="a{}".format)
UNICODE = SimpleNamespace(
    times="·", wedge="∧", power=lambda n: _sup(n) if n != 1 else "", symbol=_sym_unicode,
    bare_monomial=False, form="d{}".format, chain="∂{}".format,
    covector=lambda k: "α" + _sup(k))


def _signed_sum(terms):
    """Join (negative, text) terms as `a - b + c`; "0" when there are none."""
    out = "".join((" - " if negative else " + ") + text for negative, text in terms)
    if not out:
        return "0"
    return ("-" if out[1] == "-" else "") + out[3:]


def _scaled(coef, body, style):
    """(negative, text) for the rational coef times body; a unit is left out."""
    a = abs(coef)
    return coef < 0, body if a == 1 else f"{a}{style.times}{body}"


def _term(key, coef, style):
    mono, syms = key
    factors = [name + style.power(e) for name, e in mono]
    factors += [style.symbol(sym) + style.power(e) for sym, e in syms]
    if not factors:
        return coef < 0, str(abs(coef))
    return _scaled(coef, style.times.join(factors), style)


def _poly(p, style):
    return _signed_sum(_term(key, coef, style) for key, coef in p)


def render(e, style):
    """e written in a style: numerator, then each denominator factor."""
    e = normalize(e)
    num = _poly(e.num, style)
    if not e.den:
        return num
    if len(e.num) > 1 or not style.bare_monomial:
        num = f"({num})"
    return num + "".join(f"/({_poly(f, style)}){style.power(k)}" for f, k in e.den)


def dsl_str(e):
    """Deterministic surface-syntax rendering; parses back to the same value."""
    return render(e, PLAIN)


def pretty(e):
    """Display notation: superscript exponents, primes and ∂, `·` for products."""
    return render(e, UNICODE)
