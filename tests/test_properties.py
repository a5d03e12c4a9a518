"""Fast versions of the randomized suites (the acceptance gate reruns them
at 200+ cases each)."""

import property_suites as ps


def test_dd_zero_ce():
    ps.suite_dd_zero_ce(40)


def test_dd_zero_chart():
    ps.suite_dd_zero_chart(40)


def test_cartan_ce():
    ps.suite_cartan_ce(40)


def test_cartan_chart():
    ps.suite_cartan_chart(40)


def test_antiderivation_chart():
    ps.suite_antiderivation_chart(40)


def test_antiderivation_ce():
    ps.suite_antiderivation_ce(40)


def test_interior_commutator():
    ps.suite_interior_commutator(40)


def test_jacobi_bracket():
    ps.suite_jacobi_bracket(40)


def test_abelian_binomial():
    ps.suite_abelian_binomial(40)
