"""Reference implementations for oracle tests: Gauss-Jordan elimination in
Fractions, the CE operators evaluated form by form from their defining
formulas, the interior product of a chart form by one vector field, the
Lie bracket of two vector fields component by component, the sign of a
permutation by counting inversions, scalar fractions with expanded
denominators over polynomials held as sorted (term, Fraction) tuples, and
the workspace tokenizer that scans line by line and character by
character.  All are deliberately naive and independent of `liecochain`'s
fraction-free elimination, assembled operators, signed monomial rules, Lie
derivative, factored denominators, packed integer polynomials and one-pass
scanner."""

import re
from fractions import Fraction
from itertools import combinations

from liecochain import chart_calculus as cc
from liecochain import dsl
from liecochain import scalar_field as sf


def rref(m):
    """Reduced row echelon form by Gauss-Jordan in Fractions, first nonzero
    pivot in column order.  Returns (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in r] for r in m]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        sel = next((i for i in range(r, n_rows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rank(m):
    if not m or not m[0]:
        return 0
    return len(rref(m)[1])


def nullspace(m):
    if not m:
        return []
    n_cols = len(m[0])
    rows, pivots = rref(m)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis


def inverse(m):
    """Inverse, or None for a singular matrix."""
    n = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in rows]


def det(m):
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    value = Fraction(1)
    for c in range(n):
        sel = next((r for r in range(c, n) if m[r][c] != 0), None)
        if sel is None:
            return Fraction(0)
        if sel != c:
            m[c], m[sel] = m[sel], m[c]
            value = -value
        value *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return value


def _eval_basis(coeffs, idx):
    """a(e_idx) for any index tuple, from coefficients on increasing tuples."""
    idx = list(idx)
    if len(set(idx)) != len(idx):
        return Fraction(0)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    return sign * coeffs.get(tuple(idx), Fraction(0))


def _bracket(brackets, dim, u, v):
    out = [Fraction(0)] * dim
    for (i, j), rhs in brackets.items():
        for k, c in rhs.items():
            out[k] += (u[i] * v[j] - u[j] * v[i]) * c
    return out


def ce_differential(brackets, dim, coeffs, degree):
    """(d a)(x_0..x_r) = sum_{i<j} (-1)^{i+j} a([x_i, x_j], ..no x_i, x_j..)."""
    e = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    out = {}
    for tup in combinations(range(dim), degree + 1):
        total = Fraction(0)
        for a in range(degree + 1):
            for b in range(a + 1, degree + 1):
                rest = tup[:a] + tup[a + 1:b] + tup[b + 1:]
                br = _bracket(brackets, dim, e[tup[a]], e[tup[b]])
                for k in range(dim):
                    if br[k]:
                        total += (-1) ** (a + b) * br[k] * _eval_basis(coeffs, (k,) + rest)
        if total:
            out[tup] = total
    return out


def interior(v, coeffs, dim, degree):
    """(i_v a)(x_2..x_r) = a(v, x_2, .., x_r)."""
    out = {}
    for rest in combinations(range(dim), degree - 1):
        total = sum((v[k] * _eval_basis(coeffs, (k,) + rest) for k in range(dim)), Fraction(0))
        if total:
            out[rest] = total
    return out


def infinitesimal_action(brackets, dim, v, coeffs, degree):
    """(v.a)(x_1..x_r) = -sum_i a(x_1, .., [v, x_i], .., x_r)."""
    e = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    out = {}
    for tup in combinations(range(dim), degree):
        total = Fraction(0)
        for t in range(degree):
            col = _bracket(brackets, dim, v, e[tup[t]])
            for k in range(dim):
                if col[k]:
                    total -= col[k] * _eval_basis(coeffs, tup[:t] + (k,) + tup[t + 1:])
        if total:
            out[tup] = total
    return out


def coadjoint_matrix_action(matrix, coeffs, dim, degree):
    """(M.a)(v_1..v_r) = a(M^-1 v_1, .., M^-1 v_r), by minors of M^-1."""
    minv = inverse([[Fraction(x) for x in row] for row in matrix])
    out = {}
    for tup in combinations(range(dim), degree):
        total = sum((c * det([[minv[i][j] for j in tup] for i in src])
                     for src, c in coeffs.items()), Fraction(0))
        if total:
            out[tup] = total
    return out


def interior_vector(x, omega):
    """First-slot contraction (i_X w)(Y...) = w(X, Y...) of a chart form by
    a vector field, one component of X at a time."""
    if omega.degree < 1:
        raise cc.DegreeUnderflow("interior product of a 0-form")
    out = {}
    for j, comp in enumerate(x.components):
        if comp.is_zero():
            continue
        for idx, c in omega.coeffs.items():
            if j not in idx:
                continue
            t = idx.index(j)
            term = comp * c if t % 2 == 0 else -(comp * c)
            rest = idx[:t] + idx[t + 1:]
            out[rest] = out.get(rest, sf.ZERO) + term
    return cc.DiffForm(omega.chart, omega.degree - 1, out)


def lie_bracket(x, y):
    """[X, Y]^i = sum_j X^j d_j(Y^i) - Y^j d_j(X^i), one component at a time."""
    chart = x.chart
    xc, yc = x.components, y.components
    comps = []
    for i in range(chart.dim):
        acc = sf.ZERO
        for j, name in enumerate(chart.coordinates):
            acc = acc + xc[j] * sf.partial(yc[i], name)
            acc = acc - yc[j] * sf.partial(xc[i], name)
        comps.append(acc)
    return cc.vector_field(chart, comps)


def inversion_sign(seq):
    """(-1) to the number of pairs of entries of seq that are out of order."""
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


class Echelon:
    """Incremental reduced echelon row space in Fractions."""

    def __init__(self):
        self.rows = {}  # pivot column -> row with pivot entry 1

    def reduce(self, v):
        v = [Fraction(x) for x in v]
        for c, row in sorted(self.rows.items()):
            if v[c] != 0:
                f = v[c]
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def insert(self, v):
        v = self.reduce(v)
        pivot = next((c for c, x in enumerate(v) if x != 0), None)
        if pivot is None:
            return None
        v = [x / v[pivot] for x in v]
        for c, row in self.rows.items():
            if row[pivot] != 0:
                f = row[pivot]
                self.rows[c] = [x - f * y for x, y in zip(row, v)]
        self.rows[pivot] = v
        return v


# -- scalar fractions with expanded denominators -------------------------------
#
# A polynomial is a tuple of (term key, Fraction) sorted by _term_order, with
# no zero coefficients: `scalar_field`'s term tuples (`sf._terms`), kept here
# with their own arithmetic so that no helper is shared with the code under
# test.  A term key is (monomial, symbols), each a sorted tuple of
# (variable, exponent > 0); variables are coordinate names and
# `sf.FunctionSymbol`s.

_EMPTY_TERM = ((), ())


def _term_order(key):
    mono, syms = key
    return ((sum(e for _, e in mono), mono), syms)


def _freeze(d):
    return tuple(sorted(((k, c) for k, c in d.items() if c != 0),
                        key=lambda kc: _term_order(kc[0])))


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
            raise sf.UnresolvedFunctionSymbol(f"{sym.name}({', '.join(sym.args)}) has no value")
        v = c
        for name, e in mono:
            if name not in point:
                raise sf.UnknownCoordinate(name)
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
    return mono_min or {}, sym_min or {}


def _strip_content(p, content):
    mono_min, sym_min = content
    out = {}
    for (mono, syms), c in p:
        mono = tuple((k, e - mono_min.get(k, 0)) for k, e in mono if e - mono_min.get(k, 0) > 0)
        syms = tuple((k, e - sym_min.get(k, 0)) for k, e in syms if e - sym_min.get(k, 0) > 0)
        out[(mono, syms)] = c
    return _freeze(out)


def view(e):
    """The ScalarExpr e as term tuples: (numerator, ((factor, exponent), ...));
    `sf.ScalarExpr(*view(e)) == e`."""
    return sf._terms(e.num), tuple((sf._terms(f), k) for f, k in e.den)


class ExpandedFraction:
    """Numerator and denominator both expanded polynomials (term tuples):
    sums and products multiply whole denominators, the quotient rule
    squares the denominator.  Canonical up to content cancellation, a
    denominator with lead coefficient 1, and the collapse of exactly
    proportional sides."""

    def __init__(self, num, den=_P_ONE):
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = _P_ONE
        else:
            content = _common_content((num, den))
            num, den = _strip_content(num, content), _strip_content(den, content)
            lead = den[-1][1]
            num, den = _p_scale(num, 1 / lead), _p_scale(den, 1 / lead)
            if len(num) == len(den) and [k for k, _ in num] == [k for k, _ in den]:
                ratio = num[0][1] / den[0][1]
                if all(cn == ratio * cd for (_, cn), (_, cd) in zip(num, den)):
                    num, den = ((_EMPTY_TERM, ratio),), _P_ONE
        self.num, self.den = num, den

    @classmethod
    def of(cls, e):
        """The same value as the ScalarExpr e, its denominator multiplied out."""
        num, factors = view(e)
        den = _P_ONE
        for f, k in factors:
            for _ in range(k):
                den = _p_mul(den, f)
        return cls(num, den)

    def expr(self):
        return sf.ScalarExpr(self.num) / sf.ScalarExpr(self.den)

    def __add__(self, other):
        return ExpandedFraction(
            _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den)),
            _p_mul(self.den, other.den))

    def __neg__(self):
        return ExpandedFraction(_p_neg(self.num), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return ExpandedFraction(_p_mul(self.num, other.num), _p_mul(self.den, other.den))

    def __truediv__(self, other):
        return ExpandedFraction(_p_mul(self.num, other.den), _p_mul(self.den, other.num))

    def __pow__(self, n):
        base = self if n >= 0 else ExpandedFraction(self.den, self.num)
        out = ExpandedFraction(_P_ONE)
        for _ in range(abs(n)):
            out = out * base
        return out

    def partial(self, coord):
        dn = _p_partial(self.num, coord)
        dd = _p_partial(self.den, coord)
        num = _p_add(_p_mul(dn, self.den), _p_neg(_p_mul(self.num, dd)))
        return ExpandedFraction(num, _p_mul(self.den, self.den))

    def equals(self, other):
        return _p_mul(self.num, other.den) == _p_mul(other.num, self.den)

    def eval_at(self, point):
        return _p_eval(self.num, point) / _p_eval(self.den, point)


_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|[0-9]+|[{}\[\]()=,+\-*/^]")


def tokenize(text, file):
    """(kind, text, line, column) of each token, then one EOF entry;
    `dsl.ParseError` at the first character that starts no token."""
    tokens = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch in " \t\r":
                pos += 1
                continue
            if ch == "#":
                break
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise dsl.ParseError(f"unexpected character {ch!r}",
                                     dsl.SourceSpan(file, line_no, pos + 1, 1))
            text_tok = m.group(0)
            if text_tok[0].isdigit():
                kind = "int"
            elif text_tok[0].isalpha() or text_tok[0] == "_":
                kind = "name"
            else:
                kind = "op"
            tokens.append((kind, text_tok, line_no, pos + 1))
            pos = m.end()
    last = tokens[-1] if tokens else None
    tokens.append(("eof", "", last[2] if last else 1,
                   (last[3] + len(last[1])) if last else 1))
    return tokens
