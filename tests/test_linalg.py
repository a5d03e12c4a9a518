from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from liecochain import linalg

import reference as ref
from genutil import frac_matrix


def F(rows):
    return frac_matrix(rows)


def test_echelon_rows_and_rank():
    assert linalg.Echelon(F([[2, 4], [1, 2]])).rows == {0: {0: 1, 1: 2}}
    assert linalg.rank(F([[1, 2], [3, 4]])) == 2
    assert linalg.rank(F([[1, 2], [2, 4]])) == 1
    assert linalg.rank([]) == 0


def test_nullspace_deterministic():
    basis = linalg.nullspace(F([[1, 2, 3]]), range(3))
    assert basis == [[Fraction(-2), Fraction(1), Fraction(0)],
                     [Fraction(-3), Fraction(0), Fraction(1)]]
    for v in basis:
        assert sum(c * x for c, x in zip([1, 2, 3], v)) == 0


def test_nullspace_trivial():
    assert linalg.nullspace(F([[1, 0], [0, 1]]), range(2)) == []
    assert linalg.nullspace([], "ab") == [[1, 0], [0, 1]]


def test_integer_inverse():
    # [[1, 2], [3, 4]]^-1 = [[-2, 1], [3/2, -1/2]] = N / 2
    assert linalg._integer_inverse(F([[1, 2], [3, 4]])) == ([[-4, 2], [3, -1]], 2)
    for singular in (F([[1, 2], [2, 4]]), F([[1, 0], [0, 1], [0, 0]]), F([[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(linalg.SingularMatrix):
            linalg._integer_inverse(singular)


def test_matvec():
    assert linalg.matvec(F([[1, 2], [0, 1]]), [Fraction(1), Fraction(1)]) == [3, 1]


def test_echelon_membership_and_reduction():
    ech = linalg.Echelon()
    assert ech.insert([Fraction(1), Fraction(2), Fraction(0)]) == {0: 1, 1: 2}
    assert ech.insert([Fraction(0), Fraction(0), Fraction(1)]) == {2: 1}
    assert ech.insert([Fraction(2), Fraction(4), Fraction(5)]) is None
    assert ech.contains([Fraction(1), Fraction(2), Fraction(3)])
    assert not ech.contains([Fraction(1), Fraction(0), Fraction(0)])
    assert len(ech) == 2


def test_exactness_no_drift():
    # a matrix that defeats floating point but not Fractions
    m = F([[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 5), Fraction(1, 11)]])
    assert linalg.rank(m) == 2
    n, s = linalg._integer_inverse(m)
    assert [[sum(x * y for x, y in zip(row, col)) for col in zip(*n)] for row in m] == \
        [[s * (i == j) for j in range(2)] for i in range(2)]


# -- alternating tensors: operations skip the checks of `__init__` --------------


def _inversions(idx):
    return sum(a > b for k, a in enumerate(idx) for b in idx[k + 1:])


def _validated(t, degree, coeffs):
    """The tensor that `__init__` checks and normalises from coeffs."""
    return type(t)(t.space, degree, coeffs)


def _assert_operations_validate(a, b, f):
    """`+`, `-`, negation, `scaled` and `wedge` on a and b (one kind on one
    space) equal the validated construction of the same coefficients, with
    entries in index order and no zero."""
    zero = a.ring.ZERO
    keys = a.coeffs.keys() | b.coeffs.keys()
    results = [(-a, _validated(a, a.degree, {k: -c for k, c in a.coeffs.items()})),
               (a.scaled(f), _validated(a, a.degree, {k: f * c for k, c in a.coeffs.items()}))]
    if a.degree == b.degree:
        results += [(a + b, _validated(a, a.degree, {k: a.coefficient(k) + b.coefficient(k)
                                                     for k in keys})),
                    (a - b, _validated(a, a.degree, {k: a.coefficient(k) - b.coefficient(k)
                                                     for k in keys}))]
    if a.degree + b.degree <= a.dim:
        product = {}
        for i, x in a.coeffs.items():
            for j, y in b.coeffs.items():
                if not set(i) & set(j):
                    key = tuple(sorted(i + j))
                    term = x * y if _inversions(i + j) % 2 == 0 else -(x * y)
                    product[key] = product.get(key, zero) + term
        results.append((a.wedge(b), _validated(a, a.degree + b.degree, product)))
    for got, want in results:
        assert got == want and type(got) is type(want) and got.dim == want.dim
        assert list(got.coeffs) == sorted(got.coeffs)
        assert not any(a.ring.is_zero(c) for c in got.coeffs.values())


def test_tensor_operations_equal_the_validated_construction():
    """On chart tensors with rational coefficients and on forms on an
    algebra, each operation's result equals the tensor `__init__` builds."""
    hypothesis = pytest.importorskip("hypothesis")
    from genutil import invariance_strategies
    from liecochain import lie_cohomology as lc
    from liecochain import scalar_field as sf
    st = hypothesis.strategies
    gen = invariance_strategies(st)
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)

    @st.composite
    def altforms(draw, dim=4):
        degree = draw(st.integers(0, dim))
        tuples = list(combinations(range(dim), degree))
        return lc.AltForm(dim, degree, draw(st.dictionaries(st.sampled_from(tuples), fractions,
                                                            max_size=4)))

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(st.data())
    def check(data):
        if data.draw(st.booleans()):
            a = data.draw(gen.tensors)
            b = data.draw(gen.tensors.filter(lambda t: type(t) is type(a)))
            f = data.draw(st.sampled_from([sf.ONE, sf.ZERO, sf.rational(-2, 3),
                                           *b.coeffs.values()]))
            if data.draw(st.booleans()):   # one degree, often cancelling
                b = type(a)(a.space, a.degree, {**a.coeffs, **{k: -c for k, c in b.coeffs.items()
                                                               if len(k) == a.degree}})
        else:
            a, b, f = data.draw(altforms()), data.draw(altforms()), data.draw(fractions)
        _assert_operations_validate(a, b, f)
        _assert_operations_validate(a, a, f)
    check()


def test_merge_and_the_signs_derived_from_it_equal_the_inversion_count():
    """For every pair of increasing tuples a, b over at most 7 indices,
    overlaps included: `_merge(a, b)` is the sign of a + b counted by
    `reference.inversion_sign` and the sorted union, None on a repeated index.
    Replacing slot m of t by new has sign (-1)^(m len(new)) times that of
    `_merge(new, rest)`, rest being t without slot m; a contraction
    e^t = sign * e^j ^ e^rest, for j inside t, has the sign of `_merge(j, rest)`."""
    tuples = [t for r in range(8) for t in combinations(range(7), r)]
    merged = repeated = replaced = contracted = 0
    for a in tuples:
        for b in tuples:
            if set(b) <= set(a):   # a contraction of a by b
                rest = tuple(i for i in a if i not in b)
                assert linalg._merge(b, rest) == (ref.inversion_sign(b + rest), a)
                contracted += 1
            got = linalg._merge(a, b)
            if set(a) & set(b):
                assert got is None
                repeated += 1
                continue
            assert got == (ref.inversion_sign(a + b), tuple(sorted(a + b)))
            merged += 1
        for m in range(len(a)):
            rest = a[:m] + a[m + 1:]
            for new in tuples:
                got = linalg._merge(new, rest)
                if set(new) & set(rest):
                    assert got is None
                    continue
                sign = -got[0] if m * len(new) & 1 else got[0]
                assert sign == ref.inversion_sign(a[:m] + new + a[m + 1:])
                replaced += 1
    assert (merged + repeated, merged, contracted) == (128 ** 2, 3 ** 7, 3 ** 7)
    assert replaced == sum(comb(7, r) * r * 2 ** (8 - r) for r in range(1, 8))