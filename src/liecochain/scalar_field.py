"""Exact scalar coefficients: fractions of differential polynomials.

A value is numerator/denominator.  The numerator is a Q-linear combination
of terms, a term being a monomial in coordinate names times a product of
formal derivatives of function symbols (``K(z)``, ``a(x)``, ...).  A
polynomial is stored as one rational content times a primitive integer
polynomial whose monomials are packed exponent vectors, ints over the
variables that occur (Monagan and Pearce, CASC 2007; Maple 14, 2009): a
product multiplies the contents once and then adds ints and multiplies
ints.  A field that an exponent would overflow is widened, never wrapped.
The form is canonical, so structural equality is meaningful and the zero
test is syntactic; Fraction appears only in contents, in `jet_at`, in
rendering and in the term tuples of `_terms`.

The denominator is kept factored, as a sorted tuple of (factor, exponent)
pairs; a polynomial has none.  At most one factor is a monomial (one term,
coefficient 1, exponent 1, placed first); every other factor has several
terms, no monomial content and lead coefficient 1.  Products add exponents,
sums take the lcm of the factor multisets, and the quotient rule raises the
exponent of each factor it differentiates by one, so only numerators grow.
Fractions are never reduced by polynomial gcd; mathematical equality is
decided by cross multiplication (`equals`).  Three decisions run on cleared
numerators, as bare integer terms of one packed layout with the same
product, partial and sum loops as the polynomials: which rational
combinations of vectors of such values vanish (`linear_relations`), whether
one tensor is a multiple of another (`proportional`), and whether a Lie
derivative of a tensor vanishes (`operator_vanishes`).  Only the last
declines, with None, for a generator with rational components or, outside
a command, past the work limit, where it leaves the verdict to the exact
derivative.

Work is counted, not estimated: the product and partial loops charge one
meter with the term products they form, and past MAX_WORK raise
`WorkLimit`.  A command holds the meter for all its work (`hold_meter`);
outside one, each kernel -- a product, quotient or power, a common
denominator, a quotient rule, a decision -- starts its own count.  The
meter is module state, one per process, so commands run on several threads
at once would share it.  A monomial's power, formed in closed form, is
bounded by MAX_EXPONENT instead.

All values are immutable; every operation returns a new canonical value.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from math import gcd, lcm, prod
from operator import or_
from types import SimpleNamespace

from .linalg import _combine, _Frozen, _integer_row, _primitive, nullspace

# The most term products that one command, or outside a command one metered
# kernel, may form: `_mul_terms`, `_partial_terms` and `_p_pow` charge them.
MAX_WORK = 100_000

# The largest exponent of a monomial's power, which `_p_pow` forms in closed
# form, with no term product to count.
MAX_EXPONENT = 1_000_000

# The work meter: term products charged since its last reset (`_begin`), and
# whether a command holds it (`hold_meter`).
_work = 0
_held = False


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


class WorkLimit(ScalarError):
    pass


def hold_meter(held):
    """Reset the work meter, and hold it for one command while held is true:
    its kernels then add up to one count instead of resetting it."""
    global _work, _held
    _work, _held = 0, held


def _begin():
    """Start a metered kernel: outside a held meter, its count starts at 0."""
    global _work
    if not _held:
        _work = 0


def _charge(n):
    global _work
    _work += n
    if _work > MAX_WORK:
        raise WorkLimit(f"the work limit is reached: {_work} term products counted, "
                        f"over the limit of {MAX_WORK}")


class FunctionSymbol(_Frozen):
    """A formal derivative of a named function of some coordinates.

    `orders` counts formal derivatives taken in each argument; the plain
    symbol has all orders zero.  K(z) differentiated twice in z is
    FunctionSymbol("K", ("z",), (2,)).  Never changed once made; compared,
    hashed and sorted by (name, args, orders), its `_key`.
    """

    __slots__ = ("name", "args", "orders", "_key", "_hash")

    def __init__(self, name, args, orders):
        if not args or len(set(args)) != len(args):
            raise ValueError("function arguments must be nonempty and distinct")
        if len(orders) != len(args) or any(o < 0 for o in orders):
            raise ValueError("one non-negative derivative order per argument")
        key = (name, args, orders)
        super().__init__(*key, key, hash(key))

    def __eq__(self, other):
        return self is other or (other.__class__ is FunctionSymbol and self._key == other._key)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self._key < other._key

    def differentiate(self, coord):
        i = self.args.index(coord)
        orders = self.orders[:i] + (self.orders[i] + 1,) + self.orders[i + 1:]
        return FunctionSymbol(self.name, self.args, orders)


# A polynomial is a _Poly, content * sum(x * X^k for k, x in terms.items()):
#   vs       the variables that occur: coordinate names sorted, then
#            FunctionSymbols sorted (_var_order)
#   w        the width in bits of every exponent field: max(_MIN_WIDTH, b + 1)
#            for b the bit length of the largest exponent, so that adding two
#            keys of one layout (vs, w) never carries into the next field
#   terms    packed key -> nonzero int, the exponent of vs[i] in bits i*w up;
#            the ints have gcd 1, and the one at the largest key (the
#            lexicographically largest exponent vector, vs[-1] first) is > 0
#   content  a Fraction, zero only for the zero polynomial
# Each result moves to the layout its own terms need, so equal values have
# equal representations.  A terms dict is never changed once made: scaling
# and negation share it.  A monomial is a dict {variable: exponent > 0}.
# A term key is a monomial as rendered, (coordinates, symbols): two tuples
# of (variable, exponent), each sorted.  `_terms` lists a polynomial's terms
# in _term_order, the order of rendering, of denominator factors
# (_factor_order) and of the lead term that makes a factor monic.
# A denominator is a tuple of (polynomial, exponent>0), sorted by _factor_order.

_MIN_WIDTH = 8


class _Poly:
    """Never changed once made, so its hash, its sort key as a denominator
    factor (`_factor_order`) and its exponent bound (`_top`) are computed
    once, when first asked for."""

    __slots__ = ("vs", "w", "content", "terms", "_hash", "_order", "_top")

    def __init__(self, vs, w, content, terms):
        self.vs, self.w, self.content, self.terms = vs, w, content, terms
        self._hash = self._order = self._top = None

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if other.__class__ is not _Poly:
            return NotImplemented
        return self is other or (self.terms == other.terms and self.vs == other.vs
                                 and self.w == other.w and self.content == other.content)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash


_P_ZERO = _Poly((), _MIN_WIDTH, Fraction(0), {})
_P_ONE = _Poly((), _MIN_WIDTH, Fraction(1), {0: 1})


def _var_order(v):
    return v.__class__ is FunctionSymbol, v


def _term_order(key):
    mono, syms = key
    return ((sum(e for _, e in mono), mono), syms)


def _width(e):
    """The field width for a largest exponent e."""
    return max(_MIN_WIDTH, e.bit_length() + 1)


def _exps(p, k):
    """The monomial of p's packed key k, its variables in _var_order."""
    mask = (1 << p.w) - 1
    return {v: e for i, v in enumerate(p.vs) if (e := k >> i * p.w & mask)}


def _pack(mono, vs, w):
    return sum(e << vs.index(v) * w for v, e in mono.items())


def _repack(terms, vs, w, to_vs, to_w):
    """terms over the layout (vs, w) moved to (to_vs, to_w), which holds
    every variable that occurs; the order of the keys is kept."""
    if w == to_w and vs:
        if to_vs[:len(vs)] == vs or vs[:len(to_vs)] == to_vs:
            return terms
        if vs[0] in to_vs and to_vs[(j := to_vs.index(vs[0])):j + len(vs)] == vs:
            return {k << j * w: x for k, x in terms.items()}
    mask, at = (1 << w) - 1, {v: j * to_w for j, v in enumerate(to_vs)}
    moves = [(i * w, at[v]) for i, v in enumerate(vs) if v in at]
    out = {}
    for k, x in terms.items():
        n = 0
        for src, dst in moves:
            n |= (k >> src & mask) << dst
        out[n] = x
    return out


def _make(vs, w, content, terms):
    """The canonical polynomial content * terms, terms a dict from keys of
    the layout (vs, w) to nonzero ints: the integer content moves out, and
    the layout is cut to the variables that occur, each field as wide as
    the largest exponent needs."""
    if not terms:
        return _P_ZERO
    pivot = max(terms)
    primitive = _primitive(terms, pivot)
    if primitive is not terms:
        content *= terms[pivot] // primitive[pivot]
        terms = primitive
    if vs:
        used, mask = reduce(or_, terms), (1 << w) - 1
        fields = [used >> i * w & mask for i in range(len(vs))]
        to_w = _width(max(fields))
        if to_w != w or not all(fields):
            to_vs = tuple(v for v, f in zip(vs, fields) if f)
            terms, vs, w = _repack(terms, vs, w, to_vs, to_w), to_vs, to_w
    return _Poly(vs, w, content, terms)


def _join(p, q):
    """The layout of p and q together, and the terms of each over it."""
    vs = p.vs
    if vs != q.vs:
        union = set(vs).union(q.vs)
        if len(union) > len(vs):
            vs = q.vs if len(union) == len(q.vs) else tuple(sorted(union, key=_var_order))
    w = max(p.w, q.w)
    return vs, w, _repack(p.terms, p.vs, p.w, vs, w), _repack(q.terms, q.vs, q.w, vs, w)


def _monomial(mono, coef=Fraction(1)):
    """The one-term polynomial coef * mono."""
    vs = tuple(sorted(mono, key=_var_order))
    w = _width(max(mono.values(), default=0))
    return _Poly(vs, w, coef, {_pack(mono, vs, w): 1})


def _from_terms(terms):
    """The polynomial sum of c * prod(v^e for v, e in mono) over the pairs
    (c, mono) of terms: c rational, mono a sequence of (variable, exponent
    > 0) pairs in which a variable may repeat; monomials may repeat too."""
    monos = []
    for c, mono in terms:
        if c:
            m = {}
            for v, e in mono:
                m[v] = m.get(v, 0) + e
            monos.append((c, m))
    if len(monos) == 1:
        return _monomial(monos[0][1], Fraction(monos[0][0]))
    vs = tuple(sorted({v for _, m in monos for v in m}, key=_var_order))
    w = _width(max((e for _, m in monos for e in m.values()), default=0))
    at, row = {v: i * w for i, v in enumerate(vs)}, {}
    for c, m in monos:
        k = 0
        for v, e in m.items():
            k += e << at[v]
        row[k] = row.get(k, 0) + c
    row, scale = _integer_row(row)
    return _make(vs, w, Fraction(1, scale), row)


def _terms(p):
    """p as (term key, Fraction) pairs sorted by _term_order."""
    mask, fields = (1 << p.w) - 1, list(zip(p.vs, range(0, len(p.vs) * p.w, p.w)))
    n = sum(1 for v in p.vs if v.__class__ is str)
    coords, syms = fields[:n], fields[n:]
    num, den = p.content.numerator, p.content.denominator
    out = []
    for k, x in p.terms.items():
        key = (tuple([(v, e) for v, s in coords if (e := k >> s & mask)]),
               tuple([(v, e) for v, s in syms if (e := k >> s & mask)]))
        out.append((key, Fraction(num * x, den)))
    out.sort(key=lambda kc: _term_order(kc[0]))
    return tuple(out)


def _factor_order(factor_exp):
    f = factor_exp[0]
    if f._order is None:
        f._order = len(f), tuple((_term_order(k), c) for k, c in _terms(f))
    return f._order


def _p_scale(p, f):
    if f == 0 or not p.terms:
        return _P_ZERO
    return p if f == 1 else _Poly(p.vs, p.w, p.content * f, p.terms)


def _p_add(p, q):
    """Both integer parts scaled by the lcm of the content denominators,
    added, and the content taken out again."""
    if not q.terms:
        return p
    if not p.terms:
        return q
    vs, w, a, b = _join(p, q)
    cp, cq = p.content, q.content
    den = lcm(cp.denominator, cq.denominator)
    m, n = cp.numerator * (den // cp.denominator), cq.numerator * (den // cq.denominator)
    g = gcd(m, n)
    return _make(vs, w, Fraction(g, den), _combine(m // g, a, -n // g, b))


def _p_mul(p, q):
    """The contents multiply once; packed keys add, integers multiply.  The
    product of two canonical polynomials is canonical as it comes whenever
    its exponents fit the joined width: it is primitive (Gauss's lemma), its
    lead is the product of the positive leads, and every variable occurs."""
    if not q.vs:
        return _p_scale(p, q.content)
    if not p.vs:
        return _p_scale(q, p.content)
    vs, w, a, b = _join(p, q)
    cp, cq = p.content, q.content
    content = cp if cq == 1 else cq if cp == 1 else cp * cq
    canonical = _Poly if _width(_top(p) + _top(q)) <= w else _make
    return canonical(vs, w, content, _mul_terms(a, b))


def _p_pow(p, n):
    """p^n for n >= 1 by binomial expansion (Fateman, 1974): with m the term
    of p's largest key and q the rest, p^n = sum_i C(n, i) m^(n - i) q^i,
    the powers of q by successive products, on bare terms of one layout
    wide enough for n * _top(p), and one `_make` at the end.  The
    coefficients of C(n, i) m^(n - i) q^i grow with n, so each of its terms
    is charged one term product per 64-bit word of the product of that
    coefficient and q^i's largest.  A monomial has its power in closed
    form, its exponent at most MAX_EXPONENT."""
    if n == 1 or not p.terms:
        return p
    if len(p) == 1 and n > MAX_EXPONENT:
        raise WorkLimit(f"the exponent {n} of a monomial is over the limit of {MAX_EXPONENT}")
    w = _width(n * _top(p))
    terms = _repack(p.terms, p.vs, p.w, p.vs, w)
    km = max(terms)
    xm = terms[km]
    q = {k: x for k, x in terms.items() if k != km}
    if not q:
        out = {n * km: xm ** n}
    else:
        _charge(n * (xm.bit_length() - 1) // 64)   # the words of xm^n, before it is formed
        out, qi, c = {}, {0: 1}, xm ** n   # c = C(n, i) xm^(n - i)
        get = out.get
        for i in range(n + 1):
            bits = c.bit_length() + max(map(int.bit_length, qi.values()))
            _charge(len(qi) * (bits // 64 + 1))
            shift = (n - i) * km
            for k, x in qi.items():
                out[k + shift] = get(k + shift, 0) + c * x
            if i < n:
                qi = _mul_terms(qi, q) if i else q
                c = c * (n - i) // ((i + 1) * xm)
        out = {k: x for k, x in out.items() if x}
    return _make(p.vs, w, p.content ** n, out)


def _p_partial(p, coord):
    """Each variable that depends on coord -- the coordinate, and function
    symbols with coord among their arguments -- loses one from its exponent,
    which multiplies the term; a symbol's derivative gains one."""
    moving = _moving(p.vs, coord)
    if not moving:
        return _P_ZERO
    vs, w = p.vs, p.w
    new = {dv for _, dv in moving if dv is not None}.difference(vs)
    if new:
        vs = tuple(sorted(new.union(vs), key=_var_order))
    return _make(vs, w, p.content,
                 _partial_terms(_repack(p.terms, p.vs, w, vs, w), w, _steps(vs, w, moving)))


# -- bare terms: the loops of `_p_mul` and `_p_partial` ------------------------
#
# Bare terms are a terms dict without content or canonical layout: keys of
# one layout (vs, w) that the caller keeps, wide enough for every product it
# forms, and nonzero ints.  `_Poly` arithmetic runs these loops and then
# `_make`; the decisions below run them alone, and sum with `_combine`.


def _mul_terms(a, b):
    """The product of two bare terms dicts of one layout, charged to the
    work meter as len(a) * len(b) term products."""
    _charge(len(a) * len(b))
    if len(a) < len(b):
        a, b = b, a
    out = {}
    get = out.get
    for k1, x1 in b.items():
        for k2, x2 in a.items():
            k = k1 + k2
            out[k] = get(k, 0) + x1 * x2
    if len(b) > 1:
        out = {k: x for k, x in out.items() if x}
    return out


def _moving(among, coord):
    """(variable, its derivative by coord) for each variable among `among`
    that depends on coord: the coordinate, with None, and each function
    symbol with coord among its arguments."""
    return [(v, None) if v.__class__ is str else (v, v.differentiate(coord)) for v in among
            if (v == coord if v.__class__ is str else coord in v.args)]


def _steps(vs, w, moving):
    """(field shift, key step) for each (variable, derivative) of `moving`
    over the layout (vs, w), which holds both."""
    steps = []
    for v, dv in moving:
        i = vs.index(v) * w
        steps.append((i, (0 if dv is None else 1 << vs.index(dv) * w) - (1 << i)))
    return steps


def _depends(p, coord):
    """Whether a variable of p depends on coord."""
    return any(v == coord if v.__class__ is str else coord in v.args for v in p.vs)


def _partial_terms(terms, w, steps):
    """The partial of bare terms of width w, by the `_steps` of a coordinate,
    charged to the work meter as one term product per term and step."""
    _charge(len(terms) * len(steps))
    mask = (1 << w) - 1
    out = {}
    get = out.get
    for src, step in steps:
        for k, x in terms.items():
            if e := k >> src & mask:
                out[k + step] = get(k + step, 0) + x * e
    return {k: x for k, x in out.items() if x}


def _top(p):
    """A bound on p's exponents, below twice the largest: the largest field
    of the bitwise or of its keys."""
    if p._top is None:
        used, w, mask = reduce(or_, p.terms, 0), p.w, (1 << p.w) - 1
        p._top = max((used >> i * w & mask for i in range(len(p.vs))), default=0)
    return p._top


def _times(terms, n):
    return terms if n == 1 else {k: x * n for k, x in terms.items()}


def _common_scale(contents):
    """Integers proportional to the nonzero rational contents, the lcm of
    their denominators times each; all 1 when the contents are equal."""
    if len(contents) < 2 or len(set(contents)) == 1:
        return [1] * len(contents)
    den = lcm(*(c.denominator for c in contents))
    return [c.numerator * (den // c.denominator) for c in contents]


def _p_jet(p, point, coords):
    """The value of p at the point and its partials by coords there, in one
    pass over its terms and in integers over one denominator: the value a/b
    of a variable, to the power e, is a^e b^(top - e) over b^top, and its
    derivative e a^(e - 1) b^(top - e + 1), top being the variable's largest
    exponent; both are tabled by e."""
    if any(v.__class__ is not str or v not in point for v in p.vs):
        for (mono, syms), _ in _terms(p):
            if syms:
                sym = syms[0][0]
                raise UnresolvedFunctionSymbol(f"{sym.name}({', '.join(sym.args)}) has no value")
            for name, _ in mono:
                if name not in point:
                    raise UnknownCoordinate(name)
    w, mask = p.w, (1 << p.w) - 1
    num, den, tables, slots = p.content.numerator, p.content.denominator, [], []
    for i, v in enumerate(p.vs):
        a = Fraction(point[v])
        a, b, top = a.numerator, a.denominator, max(k >> i * w & mask for k in p.terms)
        tables.append((i * w, [a ** e * b ** (top - e) for e in range(top + 1)]))
        den *= b ** top
        if v in coords:
            slots.append((coords.index(v), i,
                          [0] + [e * a ** (e - 1) * b ** (top - e + 1) for e in range(1, top + 1)]))
    total, grad = 0, [0] * len(coords)
    for k, x in p.terms.items():
        t = x
        for s, f in tables:
            t *= f[k >> s & mask]
        total += t
        for j, i, df in slots:
            if d := df[k >> tables[i][0] & mask]:
                t = x * d
                for s, f in tables[:i] + tables[i + 1:]:
                    t *= f[k >> s & mask]
                grad[j] += t
    return Fraction(num * total, den), [Fraction(num * g, den) for g in grad]


# -- monomials: content, cancellation, lcm -----------------------------------


def _mono_mul(a, b):
    return {v: a.get(v, 0) + b.get(v, 0) for v in {**a, **b}}


def _mono_gcd(a, b):
    return {v: min(e, b[v]) for v, e in a.items() if v in b}


def _mono_lcm(a, b):
    return {v: max(a.get(v, 0), b.get(v, 0)) for v in {**a, **b}}


def _mono_div(a, b):
    """a / b where b divides a."""
    return {v: e - b.get(v, 0) for v, e in a.items() if e > b.get(v, 0)}


def _content(p):
    """The largest monomial dividing every term of the nonzero polynomial p."""
    if 0 in p.terms:
        return {}
    mask = (1 << p.w) - 1
    return {v: e for i, v in enumerate(p.vs) if (e := min(k >> i * p.w & mask for k in p.terms))}


def _p_div_mono(p, mono):
    if not mono:
        return p
    packed = _pack(mono, p.vs, p.w)
    return _make(p.vs, p.w, p.content, {k - packed: x for k, x in p.terms.items()})


# -- factored denominators ---------------------------------------------------


def _split(den):
    """A denominator as (monomial, {multi-term factor: exponent})."""
    if den and len(den[0][0]) == 1:
        f = den[0][0]
        return _exps(f, next(iter(f.terms))), dict(den[1:])
    return {}, dict(den)


def _new(num, den):
    e = object.__new__(ScalarExpr)
    object.__setattr__(e, "num", num)
    object.__setattr__(e, "den", den)
    return e


def _fraction(num, mono, factors):
    """The canonical value num / (mono * prod(f^e for f, e in factors)).

    `factors` holds monic multi-term factors with no monomial content; it is
    consumed.  A numerator exactly proportional to a factor lowers that
    factor's exponent, then monomial content common to the numerator and
    `mono` cancels: the only reductions, both syntactic.  Both integer parts
    are primitive with a positive lead, so such a numerator has the factor's
    integer coefficients, as a multiset: only then is it divided.
    """
    if not num:
        return _new(_P_ZERO, ())
    den = []
    if factors:
        same = [f for f, e in factors.items() if e and len(f) == len(num)
                and sorted(f.terms.values()) == sorted(num.terms.values())]
        if same:
            # num over its content has the integer part of the monic factor
            # it is proportional to, if any
            content = _content(num)
            rest = _p_div_mono(num, content)
            for f in same:
                if f.terms == rest.terms and f.vs == rest.vs and f.w == rest.w:
                    factors[f] -= 1
                    num = _monomial(content, num.content / f.content)
                    break
        den = [fe for fe in factors.items() if fe[1]]
        if len(den) > 1:
            den.sort(key=_factor_order)
    if mono:
        common = _mono_gcd(_content(num), mono)
        num, mono = _p_div_mono(num, common), _mono_div(mono, common)
        if mono:
            den.insert(0, (_monomial(mono), 1))
    return _new(num, tuple(den))


def _lcm(exprs):
    """The lcm of the expressions' factored denominators as (mono, factors),
    with the cofactor polynomial lcm / den of each."""
    splits = [_split(e.den) for e in exprs]
    mono, factors = {}, {}
    for m, fs in splits:
        mono = _mono_lcm(mono, m)
        for f, e in fs.items():
            if e > factors.get(f, 0):
                factors[f] = e
    cofactors = []
    for m, fs in splits:
        c = _monomial(rest) if (rest := _mono_div(mono, m)) else _P_ONE
        for f, e in factors.items():
            if (k := e - fs.get(f, 0)) > 0:
                c = _p_mul(c, _p_pow(f, k))
        cofactors.append(c)
    return mono, factors, cofactors


class ScalarExpr(_Frozen):
    """Canonical fraction of differential polynomials with a factored
    denominator (see the module docstring).

    Canonicalization cancels common monomial/symbol content between the
    numerator and the monomial factor, and lowers the exponent of a factor
    the numerator is exactly proportional to; no polynomial gcd is ever
    computed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=()):
        """The value of canonical term tuples (`_terms`): num over the
        factors of den, a tuple of (term tuple, exponent)."""
        den = tuple((_from_terms((c, m + s) for (m, s), c in f), k) for f, k in den)
        e = _fraction(_from_terms((c, m + s) for (m, s), c in num), *_split(den))
        object.__setattr__(self, "num", e.num)
        object.__setattr__(self, "den", e.den)

    # -- ring/field operations ------------------------------------------

    def __add__(self, other):
        other = normalize(other)
        if not (self.num and other.num):
            return self if other.is_zero() else other
        if self.den == other.den:
            return _fraction(_p_add(self.num, other.num), *_split(self.den))
        _begin()
        mono, factors, (c1, c2) = _lcm((self, other))
        return _fraction(_p_add(_p_mul(self.num, c1), _p_mul(other.num, c2)), mono, factors)

    __radd__ = __add__

    def __neg__(self):
        return _new(_p_scale(self.num, -1), self.den)

    def __sub__(self, other):
        return self + (-normalize(other))

    def __rsub__(self, other):
        return normalize(other) - self

    def __mul__(self, other):
        other = normalize(other)
        if self is ONE or other is ONE:   # the unit coefficient of a basis tensor
            return other if self is ONE else self
        _begin()
        num = _p_mul(self.num, other.num)
        if not self.den and not other.den:
            return _new(num, ())
        (m1, factors), (m2, f2) = _split(self.den), _split(other.den)
        for f, e in f2.items():
            factors[f] = factors.get(f, 0) + e
        return _fraction(num, _mono_mul(m1, m2), factors)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """The divisor's numerator becomes a constant, monomial content and
        one monic factor; its denominator cancels against the dividend's
        factors and multiplies the numerator with what is left."""
        other = normalize(other)
        if other.is_zero():
            raise DivisionByZeroExpr("division by an expression that normalizes to zero")
        _begin()
        content = _content(other.num)
        f = _p_div_mono(other.num, content)
        lead = _terms(f)[-1][1]  # of the last term in _term_order
        f = _p_scale(f, 1 / lead)
        mono, factors = _split(self.den)
        if len(f) > 1:
            factors[f] = factors.get(f, 0) + 1
        omono, ofactors = _split(other.den)
        mono = _mono_mul(mono, content)
        common = _mono_gcd(mono, omono)
        mono = _mono_div(mono, common)
        num = _p_mul(self.num, _monomial(_mono_div(omono, common), 1 / lead))
        for f, e in ofactors.items():
            cancelled = min(e, factors.get(f, 0))
            if cancelled:
                factors[f] -= cancelled
            if e > cancelled:
                num = _p_mul(num, _p_pow(f, e - cancelled))
        return _fraction(num, mono, factors)

    def __rtruediv__(self, other):
        return normalize(other) / self

    def __pow__(self, n):
        """Integer power: the numerator by binomial expansion (`_p_pow`), the
        denominator by scaling its exponents."""
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroExpr("negative power of zero")
            return (ONE / self) ** (-n)
        if n == 0:
            return ONE
        _begin()
        mono, factors = _split(self.den)
        return _fraction(_p_pow(self.num, n), {v: e * n for v, e in mono.items()},
                         {f: e * n for f, e in factors.items()})

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
        """Quotient rule on the factored denominator D: with F the product
        of the factors f_i^e_i that depend on `coord` and g = sum_i e_i f_i'
        F / f_i (`_quotient_parts`), (F N' - g N) / (D F), each exponent in F
        raised by one.  N, the f_i and their partials are bare terms of one
        layout."""
        _begin()
        if not self.den:
            return _new(_p_partial(self.num, coord), ())
        num, (mono, factors) = self.num, _split(self.den)
        den = [(f, e) for f, e in self.den if _depends(f, coord)]
        polys = [num] + [f for f, _ in den]
        variables = dict.fromkeys(v for p in polys for v in p.vs)
        derivatives = _moving(variables, coord)
        vs = tuple(sorted(variables.keys() | {dv for _, dv in derivatives if dv is not None},
                          key=_var_order))
        w = _width(sum(map(_top, polys)) + 1)
        steps = _steps(vs, w, derivatives)
        n = _repack(num.terms, num.vs, num.w, vs, w)
        dn = _partial_terms(n, w, steps)
        moving, content = [], num.content
        for f, e in den:
            bare = _repack(f.terms, f.vs, f.w, vs, w)
            if df := _partial_terms(bare, w, steps):
                moving.append((bare, e, df))
                if f.content != 1:
                    content *= f.content
                if len(f) == 1:
                    mono = _mono_mul(mono, mono)
                else:
                    factors[f] = e + 1
        if not moving:
            return _fraction(_make(vs, w, content, dn), mono, factors)
        big_f, g = _quotient_parts(moving)
        return _fraction(_make(vs, w, content,
                               _combine(1, _mul_terms(big_f, dn), 1, _mul_terms(g, n))),
                         mono, factors)

    def jet_at(self, point, coords=()):
        """(value, partials by coords) at a rational point: the numerator and
        each denominator factor with their partials in one pass over their
        terms (`_p_jet`), and the quotient rule at the point,
        grad(N/D) = grad N / D - (N/D) * sum of e * grad f / f over the
        factors f^e of D.  The factors are evaluated first, so an error of
        theirs comes before the pole, and the pole before an error of N."""
        dens = [(_p_jet(f, point, coords), e) for f, e in self.den]
        d = prod(v ** e for (v, _), e in dens)
        if d == 0:
            where = ", ".join(f"{name} = {Fraction(value)}" for name, value in point.items())
            raise PoleAtPoint(f"denominator vanishes at {where}")
        n, grad = _p_jet(self.num, point, coords)
        for (v, df), e in dens:
            grad = [g - n * e * dg / v if dg else g for g, dg in zip(grad, df)]
        return (n / d, [g / d for g in grad]) if dens else (n, grad)

    def eval_at(self, point):
        return self.jet_at(point)[0]

    def __repr__(self):
        return f"ScalarExpr({dsl_str(self)!r})"

    def __str__(self):
        return pretty(self)


def _quotient_parts(moving):
    """(F, g) for the moving factors (f_i, e_i, f_i') of a denominator, bare
    terms of one layout: F the product of the f_i, g = sum_i e_i f_i' F / f_i."""
    big_f, g = reduce(_mul_terms, (f for f, _, _ in moving)), {}
    for i, (_, e, df) in enumerate(moving):
        term = _times(df, e)
        for j, (h, _, _) in enumerate(moving):
            if j != i:
                term = _mul_terms(term, h)
        g = _combine(1, g, -1, term)
    return big_f, g


def _const(value):
    f = Fraction(value)
    return _new(_Poly((), _MIN_WIDTH, f, {0: 1}) if f != 0 else _P_ZERO, ())


ZERO = _const(0)
ONE = _const(1)


def rational(p, q=1):
    return _const(Fraction(p, q))


def polynomial(terms):
    """The polynomial of its terms, built in one step: (c, mono) pairs as
    `_from_terms` reads them, so that x*y - 2*x^2 is [(1, (("x", 1), ("y",
    1))), (-2, (("x", 2),))]; a variable is a coordinate name or a
    FunctionSymbol."""
    return _new(_from_terms(terms), ())


def coordinate(name):
    return _new(_Poly((name,), _MIN_WIDTH, Fraction(1), {1: 1}), ())


def function(name, args):
    """The undifferentiated function symbol name(args) as an expression."""
    sym = FunctionSymbol(name, tuple(args), (0,) * len(args))
    return _new(_Poly((sym,), _MIN_WIDTH, Fraction(1), {1: 1}), ())


def normalize(x):
    """Coerce to canonical ScalarExpr; idempotent on ScalarExpr."""
    if isinstance(x, ScalarExpr):
        return x
    if isinstance(x, (int, Fraction)):
        return _const(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a scalar expression")


def partial(e, coord):
    """Formal partial derivative of e by the named coordinate; any
    identifier is accepted as a coordinate."""
    return normalize(e).partial(coord)


def is_zero(e):
    return normalize(e).is_zero()


def equals(e1, e2):
    """Mathematical equality by cross multiplication with the cofactors of
    the lcm of the two denominators (no gcd reduction)."""
    e1, e2 = normalize(e1), normalize(e2)
    if e1.den == e2.den:
        return e1.num == e2.num
    _begin()
    _, _, (c1, c2) = _lcm((e1, e2))
    return _p_mul(e1.num, c1) == _p_mul(e2.num, c2)


# -- decisions on bare terms ----------------------------------------------------
#
# A decision clears its expressions once into bare terms of one layout of
# its own, and then multiplies, differentiates and sums with the loops above
# and `_combine`; it builds no `_Poly`.


def _clear(exprs, polys=(), spare=0):
    """The expressions over L, the lcm of their denominators, on one layout
    (vs, w): the variables of their numerators, of L and of polys, in the
    order met.  Returns (vs, w, numerators, factors): the numerators num_i *
    (L / den_i), all times one nonzero rational, and the factors of L as
    (terms, exponent), primitive, each variable of its monomial a factor of
    its own, all bare terms.  With top a bound on the exponents of a
    numerator plus those of every factor, w holds exponents up to 2 * top +
    spare; an invariance check passes every generator's components as polys,
    and one more than their largest exponent as spare.  Without denominators
    L is 1: no `_lcm`, no cofactor, and the numerators as they are."""
    if not any(e.den for e in exprs):
        mono, factors, cofactors = {}, {}, [_P_ONE] * len(exprs)
    else:
        mono, factors, cofactors = _lcm(exprs)
    nums = [e.num for e in exprs]
    vs = tuple(dict.fromkeys([v for p in (*nums, *factors, *polys) for v in p.vs] + [*mono]))
    top = max(map(_top, nums), default=0) + max(map(_top, cofactors), default=0) \
        + sum(map(_top, factors)) + len(mono)
    w = _width(2 * top + spare)
    bare = [_repack(n.terms, n.vs, n.w, vs, w) for n in nums]
    bare = [p if not c.vs else _mul_terms(p, _repack(c.terms, c.vs, c.w, vs, w))
            for p, c in zip(bare, cofactors)]
    scales = iter(_common_scale([n.content * c.content if c.vs else n.content
                                 for n, c in zip(nums, cofactors) if n.terms]))
    numerators = [_times(p, next(scales)) if p else p for p in bare]
    return vs, w, numerators, (
        [({1 << vs.index(v) * w: 1}, k) for v, k in mono.items()]
        + [(_repack(f.terms, f.vs, f.w, vs, w), k) for f, k in factors.items()])


def linear_relations(vectors):
    """Deterministic basis of the rational xi with sum_j xi_j v_j = 0, for
    vectors v_j of expressions of one length (`linalg.nullspace`).  Each
    entry is cleared across the vectors (`_clear`), which scales every
    vector's entry by one nonzero rational, so the relations are those of
    the cleared numerators: one row per entry and term key."""
    _begin()
    rows = {}  # (entry, packed key) -> {vector: coefficient}
    for i, entry in enumerate(zip(*vectors)):
        for j, terms in enumerate(_clear([normalize(e) for e in entry])[2]):
            for k, x in terms.items():
                rows.setdefault((i, k), {})[j] = x
    return nullspace(list(rows.values()), range(len(vectors)))


def proportional(a, b):
    """Whether a = lambda * b for some expression lambda, a and b {key:
    expression}, a missing key meaning zero, b not all zero.  With both
    cleared over one denominator, a = (a_0 / b_0) b exactly when A_k B_0 =
    A_0 B_k for every key k, b_0 being b's first nonzero coefficient."""
    base = next((k for k, c in b.items() if c.num), None)
    if base is None:
        raise DivisionByZeroExpr("proportionality against zero")
    keys = a.keys() | b.keys()
    if keys == {base}:
        return True
    _begin()
    _, _, numerators, _ = _clear(list(a.values()) + list(b.values()))
    big_a, big_b = dict(zip(a, numerators)), dict(zip(b, numerators[len(a):]))
    a0, b0 = big_a.get(base, {}), big_b[base]
    return all(_mul_terms(big_a.get(k, {}), b0) == _mul_terms(a0, big_b.get(k, {}))
               for k in keys)


def operator_vanishes(coeffs, generators, names, factor_terms):
    """For each generator X in order, whether L t = 0 for L = X on each
    coefficient of t plus a rule on its basis factors: `factor_terms(n,
    key)` yields (sign, key', i, k) for each term sign * d_k X^i * e_key' of
    L e_key, X generator number n.  t is {key: expression}, each X is
    {coordinate index: expression} over `names`.  With t = P / D over the
    lcm D of t's denominators, the variables of its monomial among the
    factors, F and g of the factors that X moves (`_quotient_parts`) give
    L t = (F L P - g P) / (D F): L t = 0 exactly when F L P = g P.

    One layout serves the whole check, fixed before the first verdict:
    `_clear` lays out P, D's factors and every generator's components, its
    fields wide enough for every product formed, and one more field holds
    the derivative by each of `names` of each function symbol among them.
    The partials of P and of D's factors are taken once per check.  The
    verdicts are yielded one at a time, and each is one metered kernel, the
    first with the clearing.  None, for a rational X, leaves the decision to
    the exact kernel; so does a verdict whose kernel meets the work limit
    outside a held meter, every verdict if the clearing does, since each
    partial of the exact kernel is then metered on its own."""
    _begin()
    polys = [c.num for x in generators for c in x.values()]
    try:
        vs, w, numerators, factors = _clear(list(coeffs.values()), polys,
                                            max(map(_top, polys), default=0) + 1)
    except WorkLimit:
        if _held:
            raise
        yield from (None for _ in generators)
        return
    movings = [_moving(vs, coord) for coord in names]
    vs += tuple(dict.fromkeys(dv for moving in movings for _, dv in moving
                              if dv is not None and dv not in vs))
    steps = [_steps(vs, w, moving) for moving in movings]
    P, partials = dict(zip(coeffs, numerators)), {}

    def along(comps, terms, ref):
        """X(terms), for P's numerator at key ref or D's factor number ref:
        each partial is taken once per check."""
        out = {}
        for m, c in comps.items():
            if (ref, m) not in partials:
                partials[ref, m] = _partial_terms(terms, w, steps[m])
            if partials[ref, m]:
                out = _combine(1, out, -1, _mul_terms(c, partials[ref, m]))
        return out

    def decide(n, components):
        if any(c.den for c in components.values()):
            return None
        scales = iter(_common_scale([c.num.content for c in components.values() if c.num.terms]))
        comps = {m: _times(_repack(c.num.terms, c.num.vs, c.num.w, vs, w), next(scales))
                 for m, c in components.items() if c.num.terms}
        lp, jac = {}, {}   # L P; (i, k) -> d_k X^i
        for key, p in P.items():
            terms = [(1, key, along(comps, p, key))]
            for sign, to, i, k in factor_terms(n, key):
                if (i, k) not in jac:
                    jac[i, k] = _partial_terms(comps[i], w, steps[k]) \
                        if i in comps and _depends(components[i].num, names[k]) else {}
                if jac[i, k]:
                    terms.append((sign, to, _mul_terms(p, jac[i, k])))
            for sign, to, q in terms:
                lp[to] = _combine(1, lp.get(to, {}), -sign, q)
        moving = [(f, e, xf) for j, (f, e) in enumerate(factors) if (xf := along(comps, f, j))]
        if not moving:
            return not any(lp.values())
        big_f, g = _quotient_parts(moving)
        return all(_mul_terms(big_f, lp.get(key, {})) == _mul_terms(g, P.get(key, {}))
                   for key in lp.keys() | P.keys())

    for n, components in enumerate(generators):
        if n:
            _begin()
        try:
            verdict = decide(n, components)
        except WorkLimit:
            if _held:
                raise
            verdict = None
        yield verdict


# -- rendering -------------------------------------------------------------
#
# One walker per object kind -- `render` for scalars here; alternating
# tensors (on a chart or an algebra) and algebra vectors in `dsl` -- joins
# its terms with `_signed_sum` and reads one of two styles: PLAIN, the
# workspace syntax, which parses back to the same value, and UNICODE, for
# display.

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
    """(negative, text) for the rational coef times body, a unit left out,
    or for coef alone when body is empty.  The one place where the printer
    writes the digits of a number: past the interpreter's limit on them,
    which guards against quadratic conversions, a ScalarError."""
    a = abs(coef)
    if a == 1 and body:
        return coef < 0, body
    try:
        digits = str(a)
    except ValueError:
        raise ScalarError(f"cannot print a number of over {sys.get_int_max_str_digits()} "
                          f"digits") from None
    return coef < 0, f"{digits}{style.times}{body}" if body else digits


def _term(key, coef, style):
    mono, syms = key
    factors = [name + style.power(e) for name, e in mono]
    factors += [style.symbol(sym) + style.power(e) for sym, e in syms]
    return _scaled(coef, style.times.join(factors), style)


def _poly(p, style):
    return _signed_sum(_term(key, coef, style) for key, coef in _terms(p))


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
