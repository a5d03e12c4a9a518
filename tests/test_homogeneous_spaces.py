"""Oracles for the relative complex built on g/k: the Betti numbers of
spheres, of S^2 x S^2, of the quadric SO(5)/(SO(2) x SO(3)) and of CP^2 in
every degree; the Euler characteristic |W_G| / |W_K| of the equal-rank
pairs; symmetric pairs, on which d vanishes so that H^r = C^r; the same
dimensions for a subgroup carried by a random automorphism; and the size of
the constraint system, which follows g/k and not g."""

import random
from itertools import combinations
from math import comb, factorial

import pytest

from genutil import (adjoint, matrix_algebra, random_rotation, real_matrix, so_matrices,
                     su3_matrices)
from liecochain import lie_cohomology as lc


def _real_diagonal(signs):
    return real_matrix([[int(i == j) * s for j in range(len(signs))]
                        for i, s in enumerate(signs)])


def _so_pair(n, blocks):
    """so(n), the sum of the so(b) on consecutive index blocks of the sizes
    in blocks, and the involution Ad diag(1 on the first block, -1 on the
    rest) with its basis."""
    mats, coordinates = so_matrices(n)
    block = [i for i, b in enumerate(blocks) for _ in range(b)]
    span = [k for k, (a, b) in enumerate(combinations(range(n), 2)) if block[a] == block[b]]
    sigma = _real_diagonal([1 if block[a] == 0 else -1 for a in range(n)])
    return matrix_algebra(mats, coordinates), span, (mats, coordinates, sigma)


def _cp2():
    """su(3) and s(u(1) + u(2)): E_12 - E_21, i(E_12 + E_21) and the
    diagonal, with the involution Ad diag(1, -1, -1)."""
    mats, coordinates = su3_matrices()
    return (matrix_algebra(mats, coordinates), [2, 5, 6, 7],
            (mats, coordinates, _real_diagonal([1, -1, -1])))


def _weyl_so(n):
    """|W| of so(n): 2^m m! for n = 2m + 1, 2^(m - 1) m! for n = 2m."""
    m = n // 2
    return 2 ** m * factorial(m) if n % 2 else 2 ** (m - 1) * factorial(m) if m else 1


def _sphere(n):
    betti = [0] * (n * (n - 1) // 2 + 1)
    betti[0] += 1
    betti[n - 1] += 1
    chi = _weyl_so(n) // _weyl_so(n - 1) if n % 2 else None
    return f"S{n - 1}", lambda: _so_pair(n, [n - 1, 1]), betti, chi


# name -> (make, Betti numbers in every degree, |W_G| / |W_K| for an
# equal-rank pair or None)
CASES = [_sphere(n) for n in range(2, 9)] + [
    ("S2xS2", lambda: _so_pair(4, [2, 2]), [1, 0, 2, 0, 1, 0, 0], _weyl_so(4)),
    ("quadric", lambda: _so_pair(5, [2, 3]), [1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0],
     _weyl_so(5) // _weyl_so(3)),
    ("CP2", _cp2, [1, 0, 1, 0, 1, 0, 0, 0, 0], 6 // 2),
]
IDS = [case[0] for case in CASES]


def _unit_span(algebra, span):
    return lc.SubgroupSpec.from_vectors([[int(i == k) for i in range(algebra.dim)] for k in span])


def _spectrum(algebra, sub):
    return [lc.relative_cohomology(algebra, sub, r) for r in range(algebra.dim + 1)]


@pytest.mark.parametrize("name,make,betti,chi", CASES, ids=IDS)
def test_betti_numbers_and_euler_characteristic(name, make, betti, chi):
    """H^r in every degree is the Betti number of the homogeneous space;
    the alternating sums of the relative and cohomology dimensions agree,
    and for an equal-rank pair they are |W_G| / |W_K|."""
    algebra, span, _ = make()
    assert not lc.validate_lie_algebra(algebra)
    results = _spectrum(algebra, _unit_span(algebra, span))
    assert [res.dimension for res in results] == betti
    assert all(len(res.representatives) == res.dimension for res in results)
    euler_c = sum((-1) ** r * res.relative_dims[r] for r, res in enumerate(results))
    euler_h = sum((-1) ** r * res.dimension for r, res in enumerate(results))
    assert euler_c == euler_h == (0 if chi is None else chi)
    assert all(res.relative_dims[r] == 0 for r, res in enumerate(results)
               if r > algebra.dim - len(span))


@pytest.mark.parametrize("name,make,betti,chi", CASES, ids=IDS)
def test_symmetric_pairs_have_no_differential(name, make, betti, chi):
    """sigma is an automorphism that fixes k and negates the complement of
    unit vectors, so the pair is symmetric: d vanishes on the relative
    forms, and H^r = C^r in every degree."""
    algebra, span, (mats, coordinates, g) = make()
    sigma = adjoint(mats, coordinates, g, g)
    assert lc.is_automorphism(algebra, sigma)
    assert [sigma[i][i] for i in range(algebra.dim)] == \
        [1 if i in span else -1 for i in range(algebra.dim)]
    assert all(sigma[i][j] == 0 for i in range(algebra.dim) for j in range(algebra.dim) if i != j)
    sub = _unit_span(algebra, span)
    for r, res in enumerate(_spectrum(algebra, sub)):
        assert res.dimension == res.relative_dims[r]
        if r < algebra.dim:
            assert all(lc.ce_differential(algebra, form).is_zero()
                       for form in lc.relative_basis(algebra, sub, r))


@pytest.mark.parametrize("name,make,betti,chi", CASES, ids=IDS)
def test_conjugated_subgroup_gives_the_same_dimensions(name, make, betti, chi):
    """A subgroup carried by Ad g, g a random rational rotation that moves
    it off every span of unit vectors, goes through the change of basis;
    its relative and cohomology dimensions are those of the pair."""
    algebra, span, (mats, coordinates, sigma) = make()
    sub = _unit_span(algebra, span)
    rng, n = random.Random(algebra.dim), 1 + max(i for i, _ in sigma)
    while True:
        moved = lc.conjugate_subgroup(algebra, sub, adjoint(mats, coordinates,
                                                            *random_rotation(rng, n)))
        if not span or lc._Constraints(algebra, moved, lc._primitive_basis(moved)[1]).to_adapted is not None:
            break
    assert [(res.dimension, res.relative_dims) for res in _spectrum(algebra, moved)] == \
        [(res.dimension, res.relative_dims) for res in _spectrum(algebra, sub)]


def test_constraint_columns_follow_g_over_k(monkeypatch):
    """so(6)/so(5) = S^5: the constraints of degree 5 have C(15 - 10, 5) = 1
    column (C(15, 5) = 3,003 on all of so(6)), and no constraint is built
    on a monomial above dim g - dim k = 5 in any degree."""
    algebra, span, _ = _so_pair(6, [5, 1])
    sub = _unit_span(algebra, span)
    constraints = lc._Constraints(algebra, sub, lc._primitive_basis(sub)[1])
    rows, columns = constraints.rows(5)
    assert len(columns) == 1 == comb(15 - 10, 5)
    assert all(constraints.rows(r) == ([], []) for r in range(6, 16))
    degrees = []
    images = lc._Constraints.images
    monkeypatch.setattr(lc._Constraints, "images",
                        lambda self, t: degrees.append(len(t)) or images(self, t))
    assert [res.dimension for res in _spectrum(algebra, sub)] == [1, 0, 0, 0, 0, 1] + [0] * 10
    assert degrees and max(degrees) == 5
