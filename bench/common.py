"""Helpers shared by the workloads: the job record, exact matrices, the
so(n) tables, basis changes of a Lie algebra and workspace rendering.

Everything here is written apart from liecochain, so that inputs and
expected values do not come from the code under measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable


@dataclass
class Job:
    """One timed operation: `run()` returns the program's raw result,
    `render(result)` gives the text a user reads."""

    name: str
    run: Callable[[], object]
    render: Callable[[object], str]
    meta: dict = field(default_factory=dict)


# -- exact matrices -------------------------------------------------------------


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    return [[sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def mat_inv(m):
    """Gauss-Jordan inverse over Q; None when singular."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + ident for row, ident in zip(m, identity(n))]
    for c in range(n):
        piv = next((r for r in range(c, n) if aug[r][c] != 0), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


# -- Lie algebra tables -----------------------------------------------------------


def so_basis(n):
    """Index pairs (a, b), a < b, of the basis E_ab = e_a e_b^T - e_b e_a^T."""
    return list(combinations(range(n), 2))


def so_matrix(n, a, b):
    m = [[Fraction(0)] * n for _ in range(n)]
    m[a][b] = Fraction(1)
    m[b][a] = Fraction(-1)
    return m


def in_so_basis(n, m):
    """Coordinates of a skew matrix in the basis E_ab."""
    return {k: m[a][b] for k, (a, b) in enumerate(so_basis(n)) if m[a][b] != 0}


def so_table(n):
    """Structure constants of so(n) from matrix commutators [E_i, E_j]."""
    pairs = so_basis(n)
    mats = [so_matrix(n, a, b) for a, b in pairs]
    table = {}
    for i, j in combinations(range(len(pairs)), 2):
        ab = mat_mul(mats[i], mats[j])
        ba = mat_mul(mats[j], mats[i])
        rhs = in_so_basis(n, [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)])
        if rhs:
            table[(i, j)] = rhs
    return len(pairs), table


def so_adjoint(n, g):
    """Matrix of Ad(g): E -> g E g^T on so(n), for an orthogonal g, in the
    coordinates of the basis E_ab (columns are images of basis vectors)."""
    pairs = so_basis(n)
    gt = [list(r) for r in zip(*g)]
    cols = []
    for a, b in pairs:
        img = in_so_basis(n, mat_mul(mat_mul(g, so_matrix(n, a, b)), gt))
        cols.append([img.get(k, Fraction(0)) for k in range(len(pairs))])
    return [list(r) for r in zip(*cols)]


def half_turn_adjoint(n):
    """Ad of the half-turn diag(1, -1, -1, 1, ...), which reverses E_01: with
    the circle E_01 it spans O(2)."""
    g = [[Fraction(int(i == j) * (-1 if i in (1, 2) else 1)) for j in range(n)]
         for i in range(n)]
    return so_adjoint(n, g)


def bracket_of(dim, table, u, v):
    out = [Fraction(0)] * dim
    for i in range(dim):
        for j in range(dim):
            if u[i] == 0 or v[j] == 0 or i == j:
                continue
            lo, hi, sign = (i, j, 1) if i < j else (j, i, -1)
            for k, c in table.get((lo, hi), {}).items():
                out[k] += sign * u[i] * v[j] * c
    return out


def transport_table(dim, table, p, p_inv):
    """Structure constants in the basis f_j = sum_i p[i][j] e_i."""
    cols = [[p[i][j] for i in range(dim)] for j in range(dim)]
    out = {}
    for a, b in combinations(range(dim), 2):
        br = bracket_of(dim, table, cols[a], cols[b])
        coords = [sum((p_inv[k][i] * br[i] for i in range(dim)), Fraction(0))
                  for k in range(dim)]
        rhs = {k: c for k, c in enumerate(coords) if c != 0}
        if rhs:
            out[(a, b)] = rhs
    return out


def random_basis_change(rng, dim, pure, shears=1):
    """A seeded invertible matrix P whose columns are the new basis vectors.

    Column j is +-e_perm[j], plus +-e_b for `shears` columns whose old
    vector is not in `pure` (unit entries keep the size of the output
    nearly independent of the seed); the vectors listed in `pure` stay scaled
    basis vectors, so that a subgroup spanned by them is spanned by new
    basis vectors too.  Returns (P, P^-1, perm).
    """
    signs = [Fraction(1), Fraction(-1)]
    while True:
        perm = list(range(dim))
        rng.shuffle(perm)
        p = [[Fraction(0)] * dim for _ in range(dim)]
        for j in range(dim):
            p[perm[j]][j] = rng.choice(signs)
        free = [j for j in range(dim) if perm[j] not in pure]
        for j in rng.sample(free, min(shears, len(free))) if dim > 1 else []:
            b = rng.choice([i for i in range(dim) if i != perm[j]])
            p[b][j] += rng.choice(signs)
        p_inv = mat_inv(p)
        if p_inv is not None:
            return p, p_inv, perm


# -- rational functions of z --------------------------------------------------------


def random_rational_function(rng, degree):
    """(numerator, denominator) coefficient lists in z.  The denominator is
    1 + a z^2 + ... with positive even-degree coefficients, so it has no real
    root and the function is defined at every sample point."""
    num = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(degree + 1)]
    den = [1] + [0] * (2 * degree)
    for i in range(2, 2 * degree + 1, 2):
        den[i] = rng.randint(1, 3)
    return num, den


def poly_dsl(coeffs):
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            terms.append(f"{c}" if i == 0 else f"{c}*z^{i}" if c != 1 else f"z^{i}")
    return "(" + " + ".join(terms).replace("+ -", "- ") + ")"


def rational_function_dsl(rf):
    return f"{poly_dsl(rf[0])}/{poly_dsl(rf[1])}"


# -- workspace rendering ------------------------------------------------------------


def frac_dsl(c):
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def lincomb_dsl(rhs):
    parts = []
    for k in sorted(rhs):
        c = rhs[k]
        mag = abs(c)
        body = f"e{k + 1}" if mag == 1 else f"{frac_dsl(mag)}*e{k + 1}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


def lie_algebra_dsl(name, dim, table):
    lines = [f"lie_algebra {name} {{", f"  dim {dim}"]
    for (i, j) in sorted(table):
        lines.append(f"  bracket [{i + 1},{j + 1}] = {lincomb_dsl(table[(i, j)])}")
    lines.append("}")
    return "\n".join(lines)


def matrix_dsl(m):
    return "[" + ",".join("[" + ",".join(frac_dsl(Fraction(x)) for x in row) + "]"
                          for row in m) + "]"


def subgroup_dsl(name, algebra, span, components=()):
    """`span` holds 0-based basis indices."""
    body = f"  span = [{', '.join(str(i + 1) for i in span)}]"
    comps = "".join(f"\n  component {matrix_dsl(m)}" for m in components)
    return f"subgroup {name} of {algebra} {{\n{body}{comps}\n}}"
