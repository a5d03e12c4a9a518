from fractions import Fraction

import pytest

from liecochain import linalg

from genutil import frac_matrix


def F(rows):
    return frac_matrix(rows)


def test_rref_and_rank():
    m, pivots = linalg.rref(F([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert m[0] == [1, 2]
    assert linalg.rank(F([[1, 2], [3, 4]])) == 2
    assert linalg.rank(F([[1, 2], [2, 4]])) == 1
    assert linalg.rank([]) == 0


def test_nullspace_deterministic():
    basis = linalg.nullspace(F([[1, 2, 3]]))
    assert basis == [[Fraction(-2), Fraction(1), Fraction(0)],
                     [Fraction(-3), Fraction(0), Fraction(1)]]
    for v in basis:
        assert sum(c * x for c, x in zip([1, 2, 3], v)) == 0


def test_nullspace_trivial():
    assert linalg.nullspace(F([[1, 0], [0, 1]])) == []


def test_inverse():
    m = F([[1, 2], [3, 4]])
    inv = linalg.inverse(m)
    assert linalg.matmul(m, inv) == linalg.identity(2)
    with pytest.raises(linalg.SingularMatrix):
        linalg.inverse(F([[1, 2], [2, 4]]))


def test_matvec():
    assert linalg.matvec(F([[1, 2], [0, 1]]), [Fraction(1), Fraction(1)]) == [3, 1]


def test_echelon_membership_and_reduction():
    ech = linalg.Echelon()
    assert ech.insert([Fraction(1), Fraction(2), Fraction(0)]) is not None
    assert ech.insert([Fraction(0), Fraction(0), Fraction(1)]) is not None
    assert ech.insert([Fraction(2), Fraction(4), Fraction(5)]) is None
    assert ech.contains([Fraction(1), Fraction(2), Fraction(3)])
    assert not ech.contains([Fraction(1), Fraction(0), Fraction(0)])
    assert len(ech) == 2


def test_exactness_no_drift():
    # a matrix that defeats floating point but not Fractions
    m = F([[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 5), Fraction(1, 11)]])
    assert linalg.rank(m) == 2
    inv = linalg.inverse(m)
    assert linalg.matmul(m, inv) == linalg.identity(2)
