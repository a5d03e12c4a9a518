"""Reference implementations for oracle tests: Gauss-Jordan elimination in
Fractions, and the CE operators evaluated form by form from their defining
formulas.  Both are deliberately naive and independent of `liecochain`'s
fraction-free elimination and assembled operators."""

from fractions import Fraction
from itertools import combinations


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
