"""Reference implementations for oracle tests: Gauss-Jordan elimination in
Fractions with the identity matrix and the matrix product, the CE operators evaluated form by form from their defining
formulas, relative CE cohomology in Fractions on those operators, subgroup
validation in Fractions, the interior product of a chart form by one vector
field, the Lie bracket of two vector fields component by component, the
sign of a permutation by counting inversions, scalar fractions with
expanded denominators over polynomials held as sorted (term, Fraction)
tuples, integer powers of scalars by repeated products, and the workspace
tokenizer that scans line by line and character by character.  All are
deliberately naive and independent of `liecochain`'s fraction-free
elimination, assembled operators, integer subgroup checks, signed monomial
rules, Lie derivative, factored denominators, packed integer polynomials,
binomial powers and one-pass scanner."""

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


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


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
    aug = [list(row) + unit for row, unit in zip(m, identity(n))]
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
        x = u[i] * v[j] - u[j] * v[i]
        for k, c in rhs.items():
            out[k] += x * c
    return out


def ce_differential(brackets, dim, coeffs, degree):
    """(d a)(x_0..x_r) = sum_{i<j} (-1)^{i+j} a([x_i, x_j], ..no x_i, x_j..)."""
    e = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    basis_brackets = {(i, j): _bracket(brackets, dim, e[i], e[j])
                      for i, j in combinations(range(dim), 2)}
    out = {}
    for tup in combinations(range(dim), degree + 1):
        total = Fraction(0)
        for a in range(degree + 1):
            for b in range(a + 1, degree + 1):
                rest = tup[:a] + tup[a + 1:b] + tup[b + 1:]
                br = basis_brackets[tup[a], tup[b]]
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
    columns = [_bracket(brackets, dim, v, e[i]) for i in range(dim)]
    out = {}
    for tup in combinations(range(dim), degree):
        total = Fraction(0)
        for t in range(degree):
            col = columns[tup[t]]
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


# -- the relative Chevalley-Eilenberg complex in Fractions ----------------------
#
# Relative cohomology as the program computed it before its complex moved to
# integers: the structure constants and every constraint map in Fractions,
# the relative forms as the pivot-normalised nullspace of the constraint
# matrix, and the kernel of d reduced modulo the image of the forms one degree
# down.  The maps are the per-form definitions above, applied to basis
# monomials; every elimination is the Gauss-Jordan one above.  Forms are
# {increasing index tuple: Fraction} dicts.


class RelativeComplexNotClosed(Exception):
    pass


def relative_constraints(brackets, dim, vectors, matrices, coeffs, degree):
    """The images of a form under the maps whose kernels cut out the relative
    forms, in this order: the interior product by each subalgebra vector (in
    positive degree), the coadjoint action of each, and M - 1 for each
    component matrix M."""
    images = [interior(v, coeffs, dim, degree) for v in vectors] if degree else []
    images += [infinitesimal_action(brackets, dim, v, coeffs, degree) for v in vectors]
    for m in matrices:
        image = coadjoint_matrix_action(m, coeffs, dim, degree)
        for t, c in coeffs.items():
            image[t] = image.get(t, Fraction(0)) - c
        images.append({u: x for u, x in image.items() if x})
    return images


def relative_forms(brackets, dim, vectors, matrices, degree):
    """Basis of the relative forms of the degree, each with 1 in its free
    column of the constraint matrix."""
    tuples = list(combinations(range(dim), degree))
    columns = [relative_constraints(brackets, dim, vectors, matrices, {t: Fraction(1)}, degree)
               for t in tuples]
    keys = sorted({(n, u) for col in columns for n, image in enumerate(col) for u in image})
    matrix = [[col[n].get(u, Fraction(0)) for col in columns] for n, u in keys]
    basis = nullspace(matrix or [[Fraction(0)] * len(tuples)])
    return [{t: x for t, x in zip(tuples, v) if x} for v in basis]


def relative_cohomology(brackets, dim, vectors, matrices, degree):
    """(dimension, {degree: dimension of the relative forms} for degrees r - 1
    and r, representatives); RelativeComplexNotClosed when d takes a relative
    form out of the relative forms."""
    basis = relative_forms(brackets, dim, vectors, matrices, degree)
    below = relative_forms(brackets, dim, vectors, matrices, degree - 1) if degree else []

    def differential(b, r):
        db = ce_differential(brackets, dim, b, r)
        if any(relative_constraints(brackets, dim, vectors, matrices, db, r + 1)):
            raise RelativeComplexNotClosed(f"d leaves the relative forms in degree {r + 1}")
        return db

    if degree < dim:
        images = [differential(b, degree) for b in basis]
        matrix = [[image.get(u, Fraction(0)) for image in images]
                  for u in combinations(range(dim), degree + 1)]
        kernel = []
        for c in (nullspace(matrix) if basis else []):
            form = {}
            for x, b in zip(c, basis):
                for t, y in b.items():
                    form[t] = form.get(t, Fraction(0)) + x * y
            kernel.append({t: y for t, y in form.items() if y})
    else:
        kernel = basis
    tuples = list(combinations(range(dim), degree))
    quotient = Echelon()
    for b in below:
        db = differential(b, degree - 1)
        quotient.insert([db.get(t, Fraction(0)) for t in tuples])
    image_rank = len(quotient.rows)
    reps = []
    for form in kernel:
        reduced = quotient.insert([form.get(t, Fraction(0)) for t in tuples])
        if reduced is not None:
            reps.append({t: x for t, x in zip(tuples, reduced) if x})
    dims = {degree - 1: len(below)} if degree else {}
    dims[degree] = len(basis)
    return len(kernel) - image_rank, dims, reps


# -- subgroup validation in Fractions ---------------------------------------------
#
# The checks as the program made them before they moved to integers: brackets
# of dense Fraction vectors, Gauss-Jordan ranks for span membership, and a
# Fraction inverse to find a singular component.


def is_automorphism(brackets, dim, matrix):
    """Does the matrix preserve brackets: [Mu, Mv] = M[u, v] on the basis?"""
    e = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    cols = [[matrix[r][c] for r in range(dim)] for c in range(dim)]
    for i, j in combinations(range(dim), 2):
        rhs = _bracket(brackets, dim, e[i], e[j])
        image = [sum((matrix[r][k] * rhs[k] for k in range(dim)), Fraction(0))
                 for r in range(dim)]
        if _bracket(brackets, dim, cols[i], cols[j]) != image:
            return False
    return True


def validate_subgroup(brackets, dim, vectors, matrices):
    """The violation strings for a subalgebra basis and component matrices,
    in the program's order; an empty list when they define a subgroup."""
    problems = []

    def in_span(v):
        return rank(vectors + [v]) == rank(vectors)

    if rank(vectors) != len(vectors):
        problems.append("subalgebra basis vectors are linearly dependent")
    for a, b in combinations(range(len(vectors)), 2):
        if not in_span(_bracket(brackets, dim, vectors[a], vectors[b])):
            problems.append(f"subalgebra not closed under bracket at pair ({a}, {b})")
    for m_idx, m in enumerate(matrices):
        if inverse(m) is None:
            problems.append(f"component matrix {m_idx} is singular")
            continue
        if not is_automorphism(brackets, dim, m):
            problems.append(f"component matrix {m_idx} does not preserve brackets")
        for v in vectors:
            image = [sum((row[k] * v[k] for k in range(dim)), Fraction(0)) for row in m]
            if not in_span(image):
                problems.append(f"component matrix {m_idx} does not preserve the subalgebra")
    return problems


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


def power_by_products(e, n):
    """The ScalarExpr e to the integer power n, each power of a polynomial an
    n-fold product of `*` on values with no denominator: the numerator's,
    over the denominator with each exponent, and the monomial's, times n.
    A negative power is the power of the reciprocal, the product of the
    denominator's factors divided by the numerator."""
    if n == 0:
        return sf.ONE
    num, factors = view(e)
    if n < 0:
        if not num:
            raise sf.DivisionByZeroExpr("negative power of zero")
        den = sf.ONE
        for f, k in factors:
            for _ in range(k):
                den = den * sf.ScalarExpr(f)
        return power_by_products(den / sf.ScalarExpr(num), -n)
    p = sf.ONE
    for _ in range(n):
        p = p * sf.ScalarExpr(num)
    den = []
    for f, k in factors:
        if len(f) == 1:   # the monomial, first and with exponent 1
            ((mono, syms), c), = f
            mono, syms = tuple((v, d * n) for v, d in mono), tuple((s, d * n) for s, d in syms)
            den.append(((((mono, syms), c),), 1))
        else:
            den.append((f, k * n))
    return sf.ScalarExpr(view(p)[0], tuple(den))


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
