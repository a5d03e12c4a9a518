import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from liecochain import lie_cohomology as lc
from liecochain import linalg

import reference as ref
from genutil import (AltMultiVec, basis_covector, pairing, random_altform, random_lie_algebra,
                     random_so3_automorphism, satisfies_relative_constraints, so,
                     subgroup_unchecked, transport_algebra)

SO3 = lc.LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
SOLV2 = lc.LieAlgebra(2, {(0, 1): {1: -1}})
AB2 = lc.LieAlgebra(2)
SO2 = lc.SubgroupSpec.from_vectors([[0, 0, 1]])
REFLECTION = [[-1, 0, 0], [0, 1, 0], [0, 0, -1]]
O2 = lc.SubgroupSpec.from_vectors([[0, 0, 1]], [REFLECTION])
TRIVIAL = lc.SubgroupSpec.trivial()


def a(i):
    return basis_covector(3, i - 1)


def test_jacobi_so3_and_solvable():
    assert not lc.validate_lie_algebra(SO3)
    assert not lc.validate_lie_algebra(SOLV2)
    # brute-force oracle on so(3), all triples by direct expansion
    e = ref.identity(3)
    for i, j, k in combinations(range(3), 3):
        total = [sum(t) for t in zip(
            SO3.bracket(SO3.bracket(e[i], e[j]), e[k]),
            SO3.bracket(SO3.bracket(e[j], e[k]), e[i]),
            SO3.bracket(SO3.bracket(e[k], e[i]), e[j]))]
        assert all(c == 0 for c in total)


def test_jacobi_violation_reported():
    bad = lc.LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    violations = lc.validate_lie_algebra(bad)
    assert violations[0][:3] == (0, 1, 2)


def test_sl2_like_table_satisfies_jacobi():
    # [e1,e2]=e1, [e2,e3]=e3, [e1,e3]=e2 is a valid algebra (e2 acts as a
    # grading element); direct cyclic expansion vanishes on (1,2,3)
    alg = lc.LieAlgebra(3, {(0, 1): {0: 1}, (1, 2): {2: 1}, (0, 2): {1: 1}})
    assert not lc.validate_lie_algebra(alg)


def test_ce_differential_so3():
    d3 = lc.ce_differential(SO3, a(3))
    assert d3.coeffs == {(0, 1): Fraction(-1)}
    d12 = lc.ce_differential(SO3, a(1).wedge(a(2)))
    assert d12.is_zero()


def test_ce_differential_abelian():
    rng = random.Random(3)
    for degree in range(2):
        alpha = random_altform(rng, 2, degree)
        assert lc.ce_differential(AB2, alpha).is_zero()


def test_ce_differential_degree_overflow():
    with pytest.raises(lc.DegreeOverflow):
        lc.ce_differential(SO3, a(1).wedge(a(2)).wedge(a(3)))


def test_wedge_and_interior():
    a12 = a(1).wedge(a(2))
    assert a12.coeffs == {(0, 1): Fraction(1)}
    assert lc.interior([0, 0, 1], a12).is_zero()
    assert lc.interior([1, 0, 0], a12) == a(2)
    assert lc.interior([0, 1, 0], a12) == -a(1)


def test_interior_anticommutes():
    rng = random.Random(5)
    for _ in range(30):
        alpha = random_altform(rng, 4, rng.randint(2, 3))
        v = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        w = [Fraction(rng.randint(-2, 2)) for _ in range(4)]
        assert lc.interior(v, lc.interior(v, alpha)).is_zero()
        lhs = lc.interior(v, lc.interior(w, alpha))
        rhs = lc.interior(w, lc.interior(v, alpha))
        assert (lhs + rhs).is_zero()


def test_coadjoint_action():
    a12 = a(1).wedge(a(2))
    acted = lc.coadjoint_matrix_action(REFLECTION, a12)
    assert acted == -a12
    assert lc.coadjoint_matrix_action(ref.identity(3), a12) == a12
    assert lc.coadjoint_matrix_action(REFLECTION, a(2)) == a(2)
    with pytest.raises(linalg.SingularMatrix):
        lc.coadjoint_matrix_action([[0, 0, 0], [0, 1, 0], [0, 0, 1]], a12)


def test_cartan_formula_on_ce_complex():
    rng = random.Random(7)
    for _ in range(50):
        alg = random_lie_algebra(rng, 4)
        p = alg.dim
        r = rng.randint(0, p)
        alpha = random_altform(rng, p, r)
        v = [Fraction(rng.randint(-2, 2)) for _ in range(p)]
        lhs = lc.infinitesimal_action(alg, v, alpha)
        parts = []
        if r < p:
            parts.append(lc.interior(v, lc.ce_differential(alg, alpha)))
        if r > 0:
            parts.append(lc.ce_differential(alg, lc.interior(v, alpha)))
        rhs = lc.AltForm(p, r, {})
        for part in parts:
            rhs = rhs + part
        assert lhs == rhs


def test_relative_basis_so3():
    assert lc.relative_basis(SO3, SO2, 1) == []
    basis2 = lc.relative_basis(SO3, SO2, 2)
    assert len(basis2) == 1
    assert basis2[0].coeffs == {(0, 1): Fraction(1)}
    assert lc.relative_basis(SO3, O2, 2) == []
    assert lc.relative_basis(SO3, O2, 1) == []


def test_relative_cohomology_sphere_and_projective_plane():
    h2 = lc.relative_cohomology(SO3, SO2, 2)
    assert h2.dimension == 1
    assert h2.representatives[0].coeffs == {(0, 1): Fraction(1)}
    assert h2.relative_dims[2] == 1

    assert lc.relative_cohomology(SO3, O2, 2).dimension == 0
    assert lc.relative_cohomology(SOLV2, TRIVIAL, 2).dimension == 0
    h1 = lc.relative_cohomology(AB2, TRIVIAL, 1)
    assert h1.dimension == 2


def test_cohomology_representatives_are_cocycles():
    for alg, sub in ((SO3, SO2), (SO3, TRIVIAL), (SOLV2, TRIVIAL)):
        for r in range(alg.dim + 1):
            res = lc.relative_cohomology(alg, sub, r)
            assert res.dimension == len(res.representatives)
            for rep in res.representatives:
                assert satisfies_relative_constraints(alg, sub, rep)
                if r < alg.dim:
                    assert lc.ce_differential(alg, rep).is_zero()


def test_invalid_subgroup_rejected():
    # span{e1, e2} in so(3) is not bracket-closed: [e1, e2] = e3
    not_closed = lc.SubgroupSpec.from_vectors([[1, 0, 0], [0, 1, 0]])
    assert lc.validate_subgroup(SO3, not_closed)
    with pytest.raises(lc.InvalidSubgroup):
        lc.relative_basis(SO3, not_closed, 1)
    bad_rep = lc.SubgroupSpec.from_vectors([[0, 0, 1]], [[[1, 0, 0], [0, 1, 0], [1, 0, 1]]])
    assert lc.validate_subgroup(SO3, bad_rep)
    dependent = lc.SubgroupSpec.from_vectors([[0, 0, 1], [0, 0, 2]])
    assert lc.validate_subgroup(SO3, dependent)


def test_relative_complex_not_closed_detected():
    # diag(1,1,2) is invertible and fixes a 2-dimensional space of 1-forms,
    # but is no automorphism: d leaves that space, and the side check fires
    # when validation is bypassed
    bad = lc.SubgroupSpec.from_vectors([], [[[1, 0, 0], [0, 1, 0], [0, 0, 2]]])
    assert lc.validate_subgroup(SO3, bad)
    with subgroup_unchecked(), pytest.raises(lc.RelativeComplexNotClosed):
        lc.relative_cohomology(SO3, bad, 1)
    with pytest.raises(lc.InvalidSubgroup):
        lc.relative_cohomology(SO3, bad, 1)


def test_oversized_cochain_spaces_refused():
    big = lc.LieAlgebra(200)
    assert len(lc.relative_basis(big, TRIVIAL, 1)) == 200
    with pytest.raises(lc.DegreeOverflow):
        lc.relative_basis(big, TRIVIAL, 3)
    # degree 1 needs the C(200, 2) = 19900 two-forms for the differential
    with pytest.raises(lc.DegreeOverflow):
        lc.relative_cohomology(big, TRIVIAL, 1)
    assert lc.MAX_COCHAINS >= 10 * comb(10, 5)


def test_conjugate_subgroup_relabeling():
    # automorphism sending e3 -> e1, e1 -> e2, e2 -> e3 (cyclic rotation)
    cyc = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    moved = lc.conjugate_subgroup(SO3, SO2, cyc)
    assert moved.basis == ((Fraction(1), Fraction(0), Fraction(0)),)
    h2 = lc.relative_cohomology(SO3, moved, 2)
    assert h2.dimension == 1
    same = lc.conjugate_subgroup(SO3, SO2, ref.identity(3))
    assert same == SO2


# (subgroup data of a wrong size on so(3), the one problem reported)
WRONG_SIZES = [
    ([[0, 1]], [], "subalgebra vector 0 has 2 entries, not 3"),
    ([[0, 0, 1, 5]], [], "subalgebra vector 0 has 4 entries, not 3"),
    ([], [ref.identity(4)], "component matrix 0 is 4x4, not 3x3"),
    ([[0, 0, 1]], [[[1, 0], [0, 1], [0, 0]]], "component matrix 0 is 3x2, not 3x3"),
    ([[0, 0, 1]], [ref.identity(2)], "component matrix 0 is 2x2, not 3x3"),
]


@pytest.mark.parametrize("vectors,matrices,problem", WRONG_SIZES,
                         ids=["short vector", "long vector", "4x4 component", "3x2 component",
                              "2x2 component"])
def test_subgroup_of_the_wrong_size_is_invalid(vectors, matrices, problem):
    """A wrong size is reported before any other check, the complex
    refuses the subgroup in every degree, and conjugation refuses it."""
    sub = lc.SubgroupSpec.from_vectors(vectors, matrices)
    assert lc.validate_subgroup(SO3, sub) == [problem]
    for r in range(SO3.dim + 1):
        with pytest.raises(lc.InvalidSubgroup, match=problem):
            lc.relative_cohomology(SO3, sub, r)
    with pytest.raises(lc.InvalidSubgroup, match=problem):
        lc.conjugate_subgroup(SO3, sub, ref.identity(3))


def test_conjugating_matrix_of_the_wrong_size():
    with pytest.raises(lc.NotAutomorphism, match="conjugating matrix is 2x3, not 3x3"):
        lc.conjugate_subgroup(SO3, SO2, [[1, 0, 0], [0, 1, 0]])


@pytest.mark.parametrize("n", [2, 4])
def test_automorphism_check_of_the_wrong_size(n):
    with pytest.raises(lc.NotAutomorphism, match=f"matrix is {n}x{n}, not 3x3"):
        lc.is_automorphism(SO3, ref.identity(n))


@pytest.mark.parametrize("n", [2, 4])
def test_coadjoint_action_of_the_wrong_size(n):
    with pytest.raises(lc.NotAutomorphism, match=f"matrix is {n}x{n}, not 3x3"):
        lc.coadjoint_matrix_action(ref.identity(n), a(1).wedge(a(2)))


def test_conjugate_requires_automorphism():
    swap = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # det -1 basis swap breaks so(3) brackets
    with pytest.raises(lc.NotAutomorphism):
        lc.conjugate_subgroup(SO3, SO2, swap)
    with pytest.raises(lc.NotAutomorphism):
        lc.conjugate_subgroup(SO3, SO2, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_conjugation_invariance_of_dims():
    rng = random.Random(11)
    for _ in range(8):
        auto = random_so3_automorphism(rng)
        moved = lc.conjugate_subgroup(SO3, O2, auto)
        for r in range(4):
            assert len(lc.relative_basis(SO3, O2, r)) == \
                len(lc.relative_basis(SO3, moved, r))


def test_abelian_dims_binomial():
    rng = random.Random(13)
    for _ in range(30):
        p = rng.randint(1, 5)
        alg = transport_algebra(lc.LieAlgebra(p), ref.identity(p))
        r = rng.randint(0, p)
        res = lc.relative_cohomology(alg, TRIVIAL, r)
        assert res.dimension == comb(p, r)


def test_so3_absolute_cohomology_whitehead():
    # semisimple: degree 1 and 2 vanish, the top class survives
    dims = [lc.relative_cohomology(SO3, TRIVIAL, r).dimension for r in range(4)]
    assert dims == [1, 0, 0, 1]


def test_direct_sum_cohomology_kunneth():
    # so(3) + so(3): Poincare polynomial (1 + t^3)^2
    b = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1},
         (3, 4): {5: 1}, (4, 5): {3: 1}, (3, 5): {4: -1}}
    alg = lc.LieAlgebra(6, b)
    assert not lc.validate_lie_algebra(alg)
    dims = [lc.relative_cohomology(alg, TRIVIAL, r).dimension for r in range(7)]
    assert dims == [1, 0, 0, 2, 0, 0, 1]


def test_heisenberg_cohomology():
    # [e1,e2] = e3: one-dimensional image of d in degree 2
    heis = lc.LieAlgebra(3, {(0, 1): {2: 1}})
    dims = [lc.relative_cohomology(heis, TRIVIAL, r).dimension for r in range(4)]
    assert dims == [1, 2, 2, 1]


def test_d_squared_on_random_algebras():
    rng = random.Random(17)
    for _ in range(60):
        alg = random_lie_algebra(rng, 5)
        assert not lc.validate_lie_algebra(alg)
        p = alg.dim
        if p < 2:
            continue
        r = rng.randint(0, p - 2)
        alpha = random_altform(rng, p, r)
        assert lc.ce_differential(alg, lc.ce_differential(alg, alpha)).is_zero()


def test_antiderivation_on_ce_complex():
    rng = random.Random(19)
    for _ in range(50):
        alg = random_lie_algebra(rng, 5)
        p = alg.dim
        ra = rng.randint(0, p - 1)
        rb = rng.randint(0, p - 1 - ra)
        if ra + rb >= p:
            continue
        alpha = random_altform(rng, p, ra)
        beta = random_altform(rng, p, rb)
        lhs = lc.ce_differential(alg, alpha.wedge(beta))
        rhs = lc.ce_differential(alg, alpha).wedge(beta)
        term = alpha.wedge(lc.ce_differential(alg, beta))
        if ra % 2:
            term = term.scaled(-1)
        assert lhs == rhs + term


def test_pairing_and_multivec():
    chi = AltMultiVec(3, 2, {(0, 1): Fraction(2)})
    a12 = a(1).wedge(a(2))
    assert pairing(a12, chi) == 2
    assert pairing(a(1).wedge(a(3)), chi) == 0
    assert AltMultiVec(3, 1, {(0,): Fraction(1)}).wedge(
        AltMultiVec(3, 1, {(1,): Fraction(1)})) == chi.scaled(Fraction(1, 2))


def _fractions_built(monkeypatch, call):
    """The result of call() and the number of Fractions constructed in it."""
    count = [0]
    construct = Fraction.__new__

    def counting(cls, *args, **kwargs):
        count[0] += 1
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    # From Python 3.12 the results of arithmetic are built by
    # _from_coprime_ints, which bypasses __new__.
    if "_from_coprime_ints" in vars(Fraction):
        from_coprime = Fraction._from_coprime_ints.__func__

        def counting_coprime(cls, *args):
            count[0] += 1
            return from_coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    try:
        result = call()
    finally:
        monkeypatch.undo()
    return result, count[0]


def test_fraction_count_includes_arithmetic(monkeypatch):
    """Two explicit constructions and one sum: the count sees all three."""
    total, count = _fractions_built(monkeypatch, lambda: Fraction(1, 2) + Fraction(1, 3))
    assert (total, count) == (Fraction(5, 6), 3)
    product, count = _fractions_built(monkeypatch, lambda: 3 * total)
    assert (product, count) == (Fraction(5, 2), 1)


SO4_CIRCLE = lc.SubgroupSpec.from_vectors([[1, 0, 0, 0, 0, 0]])
# (name, algebra, subgroup, degree, Fractions built): so(3)/O(2) = RP^2 and
# so(4)/circle = S^2 x S^3 in every degree
FRACTION_CASES = [("so4", so(4), TRIVIAL, 3, 10), ("so5", so(5), TRIVIAL, 2, 0)]
FRACTION_CASES += [("so3/O2", SO3, O2, r, built) for r, built in enumerate([2, 0, 0, 0])]
FRACTION_CASES += [("so4/circle", so(4), SO4_CIRCLE, r, built)
                   for r, built in enumerate([2, 0, 4, 2, 0, 2, 0])]


@pytest.mark.parametrize("name,alg,sub,degree,built", FRACTION_CASES,
                         ids=[f"{c[0]}-H{c[3]}" for c in FRACTION_CASES])
def test_integer_complex_builds_fractions_only_for_representatives(monkeypatch, name, alg, sub,
                                                                   degree, built):
    """The relative complex stays in integers from the subgroup check to the
    echelon: a Fraction is built twice per coefficient of a representative
    (the reduced vector scaled to pivot 1, then AltForm's coercion), and
    nowhere else; validating the subgroup builds none.  The count repeats
    exactly."""
    for _ in range(2):
        res, count = _fractions_built(
            monkeypatch, lambda: lc.relative_cohomology(alg, sub, degree))
        assert count == built == 2 * sum(len(rep.coeffs) for rep in res.representatives)
        problems, count = _fractions_built(monkeypatch, lambda: lc.validate_subgroup(alg, sub))
        assert (problems, count) == ([], 0)
    rows = [{0: 2, 3: -4}, {1: 6, 2: 3}, {0: 1, 1: 1, 3: 5}, {0: 3, 1: 1, 2: 0, 3: 1}]
    dense = [[row.get(c, 0) for c in range(4)] for row in rows]
    for m in (rows, dense):
        ech, count = _fractions_built(monkeypatch, lambda: linalg.Echelon(m))
        assert (len(ech), count) == (3, 0)
    basis, count = _fractions_built(monkeypatch, lambda: linalg.kernel(rows, range(4)))
    assert (basis, count) == ([{0: 2, 1: -7, 2: 14, 3: 1}], 0)


def test_no_constraint_pass_without_a_subgroup(monkeypatch):
    """A trivial subgroup asks for no image under a constraint map, while
    building the relative forms or checking that d keeps them; a circle
    does."""
    calls = []
    images = lc._Constraints.images
    monkeypatch.setattr(lc._Constraints, "images",
                        lambda self, t: calls.append(t) or images(self, t))
    for alg in (SO3, SOLV2, so(4)):
        for r in range(alg.dim + 1):
            lc.relative_cohomology(alg, TRIVIAL, r)
    assert calls == []
    lc.relative_cohomology(SO3, SO2, 1)
    assert calls


def test_no_fraction_inverse_or_rref_in_the_complex(monkeypatch):
    """Validation builds no Fraction and the relative complex builds them
    only for its representatives, for valid subgroups with rational
    components and for a singular one: no matrix is inverted and no row
    reduced in Fractions (`linalg` has no Fraction inverse or rref; see
    test_linalg_surface)."""
    moved = lc.conjugate_subgroup(SO3, O2, [[1, 0, 0], [0, Fraction(3, 5), Fraction(-4, 5)],
                                            [0, Fraction(4, 5), Fraction(3, 5)]])
    for alg, sub in ((SO3, O2), (SO3, moved), (so(4), SO4_CIRCLE)):
        assert _fractions_built(monkeypatch, lambda: lc.validate_subgroup(alg, sub)) == ([], 0)
        for r in range(alg.dim + 1):
            res, count = _fractions_built(monkeypatch,
                                          lambda: lc.relative_cohomology(alg, sub, r))
            assert count == 2 * sum(len(rep.coeffs) for rep in res.representatives)
    singular = lc.SubgroupSpec.from_vectors([[0, 0, 1]], [[[1, 0, 0], [0, 1, 0], [1, 0, 0]]])
    assert _fractions_built(monkeypatch, lambda: lc.validate_subgroup(SO3, singular)) == \
        (["component matrix 0 is singular"], 0)
