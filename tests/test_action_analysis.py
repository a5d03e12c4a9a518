import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from liecochain import action_analysis as aa
from liecochain import chart_calculus as cc
from liecochain import cli, dsl
from liecochain import scalar_field as sf
from liecochain.lie_cohomology import LieAlgebra

from genutil import (HomomorphismViolation, RankDeficit, basis_vector, invariance_strategies,
                     require_valid_action)

M3 = cc.Chart(("x", "y", "z"))
N2 = cc.Chart(("x", "y"))
x, y = sf.coordinate("x"), sf.coordinate("y")


def intro_action():
    """Translations of the (y, z) plane on a 3-chart; abelian, free, q=2."""
    return aa.ActionSpec(M3, LieAlgebra(2),
                         (basis_vector(M3, "y"), basis_vector(M3, "z")), 2)


def solvable_action():
    """(a,b)*(x,y,z) = (ax+b, ay, z): generators x dx + y dy and dx, q=2."""
    algebra = LieAlgebra(2, {(0, 1): {1: -1}})
    v1 = cc.vector_field(M3, [x, y, sf.ZERO])
    v2 = basis_vector(M3, "x")
    return aa.ActionSpec(M3, algebra, (v1, v2), 2)


def shear_action():
    """(a,b)*(x,y) = (x+ay+b, y): generators y dx and dx, q=1."""
    return aa.ActionSpec(N2, LieAlgebra(2),
                         (cc.vector_field(N2, [y, sf.ZERO]), basis_vector(N2, "x")), 1)


def solvable_chain(kfunc=True):
    coeff = sf.function("K", ("z",)) * y ** 2 if kfunc else y ** 2
    return cc.MultiVectorField(M3, 2, {(0, 1): coeff})


# -- bracket violations, rank failures, generator kernel ---------------------


def test_validate_intro_action():
    action = intro_action()
    assert not aa.bracket_violations(action)
    assert not aa.rank_failures(action, [(0, 0, 0), (1, 2, 3)])
    assert not aa.generator_kernel(action)


def test_validate_solvable_action():
    action = solvable_action()
    assert not aa.bracket_violations(action)
    assert not aa.rank_failures(action, [(0, 1, 0), (2, 3, 1)])
    assert not aa.generator_kernel(action)


def test_validate_wrong_bracket_sign():
    algebra = LieAlgebra(2, {(0, 1): {1: 1}})  # sign flipped
    v1 = cc.vector_field(M3, [x, y, sf.ZERO])
    v2 = basis_vector(M3, "x")
    (i, j, residual), = aa.bracket_violations(aa.ActionSpec(M3, algebra, (v1, v2), 2))
    assert (i, j) == (0, 1)
    assert sf.equals(residual.components[0], -2)


def test_validate_rank_deficit():
    # the orbit collapses at y = 0
    assert aa.rank_failures(solvable_action(), [(0, 0, 0)]) == [((0, 0, 0), 1)]


def test_require_valid_action_raises():
    algebra = LieAlgebra(2, {(0, 1): {1: 1}})
    v1 = cc.vector_field(M3, [x, y, sf.ZERO])
    v2 = basis_vector(M3, "x")
    with pytest.raises(HomomorphismViolation):
        require_valid_action(aa.ActionSpec(M3, algebra, (v1, v2), 2))
    with pytest.raises(RankDeficit):
        require_valid_action(solvable_action(), [(0, 0, 0)])
    require_valid_action(solvable_action(), [(0, 1, 0)])


def test_validate_ineffective_action():
    algebra = LieAlgebra(2)
    dx = basis_vector(N2, "x")
    kernel = aa.generator_kernel(aa.ActionSpec(N2, algebra, (dx, dx.scaled(2)), 1))
    assert kernel == [[Fraction(-2), Fraction(1)]]


# -- isotropy and fixed spaces ------------------------------------------------


def test_isotropy_free_actions():
    assert aa.isotropy_algebra_at(intro_action(), (4, 5, 6)) == []
    assert aa.isotropy_algebra_at(solvable_action(), (0, 1, 0)) == []


def test_isotropy_rotation_at_origin():
    rot = cc.vector_field(N2, [-y, x])
    action = aa.ActionSpec(N2, LieAlgebra(1), (rot,), 1)
    assert aa.isotropy_algebra_at(action, (0, 0)) == [[Fraction(1)]]
    assert aa.fixed_space_at(action, (0, 0)) == ([[Fraction(1)]], 0, 0)


def test_isotropy_shear_everywhere():
    basis = aa.isotropy_algebra_at(shear_action(), (5, 2))
    assert basis == [[Fraction(-1, 2), Fraction(1)]]
    combo = [sum((Fraction(c) * g for c, g in zip(basis[0], [2, 1])),
                 Fraction(0))]
    assert combo == [Fraction(0)]


def test_fixed_space_free_point():
    assert aa.fixed_space_at(intro_action(), (0, 0, 0)) == ([], 3, 2)


def test_fixed_space_rotation_translation():
    rot3 = cc.vector_field(M3, [-y, x, sf.ZERO])
    action = aa.ActionSpec(M3, LieAlgebra(2), (rot3, basis_vector(M3, "z")), 2)
    basis, tangent_dim, vertical_dim = aa.fixed_space_at(action, (0, 0, 0))
    assert (len(basis), tangent_dim, vertical_dim) == (1, 1, 1)


# -- invariance checks --------------------------------------------------------


def intro_forms():
    a = sf.function("a", ("x",))
    b = sf.function("b", ("x",))
    c = sf.function("c", ("x",))
    A = sf.function("A", ("x",))
    alpha = cc.DiffForm(M3, 2, {(0, 1): a, (0, 2): b, (1, 2): c})
    nu = cc.DiffForm(M3, 3, {(0, 1, 2): A})
    return alpha, nu


def test_invariant_forms_intro():
    action = intro_action()
    alpha, nu = intro_forms()
    assert aa.check_invariant_form(action, alpha).ok
    assert aa.check_invariant_form(action, nu).ok
    assert aa.check_invariant_form(action, cc.DiffForm(M3, 1, {(0,): x})).ok


def test_invariant_fields_solvable():
    action = solvable_action()
    f, g, h = (sf.function(n, ("z",)) for n in "fgh")
    R = cc.vector_field(M3, [f * y, g * y, h])
    assert aa.check_invariant_multivector(action, R).ok
    bad = cc.vector_field(M3, [x ** 2, sf.ZERO, sf.ZERO])
    v = aa.check_invariant_multivector(action, bad)
    assert not v.ok and v.witness is not None


def test_invariant_chain_solvable():
    assert aa.check_invariant_multivector(solvable_action(), solvable_chain()).ok


def test_noninvariant_form_witness():
    action = shear_action()
    a = sf.function("a", ("y",))
    bad = cc.DiffForm(N2, 1, {(0,): a})
    v = aa.check_invariant_form(action, bad)
    assert not v.ok
    assert v.generator == 0
    assert sf.equals(v.witness.coefficient((1,)), a)


# -- verticality ---------------------------------------------------------------


def test_vertical_intro():
    action = intro_action()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    frame, factor = aa.check_vertical(action, chi)
    assert frame == (0, 1) and sf.equals(factor, 1)


def test_vertical_solvable_factor():
    _, factor = aa.check_vertical(solvable_action(), solvable_chain(), [(0, 1, 0)])
    K = sf.function("K", ("z",))
    assert sf.equals(factor, -y * K)


def test_not_vertical():
    chi = cc.wedge_vectorfields([basis_vector(M3, "x"), basis_vector(M3, "z")])
    assert aa.check_vertical(solvable_action(), chi, [(0, 1, 0)]) is None


def test_no_frame_found():
    dx = basis_vector(N2, "x")
    action = aa.ActionSpec(N2, LieAlgebra(2), (dx, dx.scaled(2)), 1)
    degenerate = aa.ActionSpec(N2, LieAlgebra(2), (dx, dx.scaled(2)), 2)
    with pytest.raises(aa.NoFrameFound):
        aa.check_vertical(degenerate, cc.wedge_vectorfields([dx, dx.scaled(2)]), [(0, 0)])


# -- semibasic ------------------------------------------------------------------


def test_semibasic():
    action = intro_action()
    A = sf.function("A", ("x",))
    assert aa.check_semibasic(action, cc.DiffForm(M3, 1, {(0,): A})).ok
    assert not aa.check_semibasic(action, cc.DiffForm(M3, 1, {(1,): sf.ONE})).ok
    assert aa.check_semibasic(action, cc.DiffForm(M3, 0, {(): x})).ok


# -- evaluation map -------------------------------------------------------------


def test_rho_intro_values():
    action = intro_action()
    alpha, nu = intro_forms()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    res_a = aa.evaluation_map(action, chi, alpha)
    assert res_a.sign == 1 and res_a.basic
    assert res_a.form.degree == 0
    assert sf.equals(res_a.form.coefficient(()), sf.function("c", ("x",)))
    res_n = aa.evaluation_map(action, chi, nu)
    assert res_n.sign == 1 and res_n.basic
    assert res_n.form.coeffs.keys() == {(0,)}
    assert sf.equals(res_n.form.coefficient((0,)), sf.function("A", ("x",)))


def test_rho_zero_form():
    action = intro_action()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    res = aa.evaluation_map(action, chi, cc.DiffForm.zero(M3, 2))
    assert res.form.is_zero()


def test_rho_sign_bookkeeping():
    # q = 1 on a 2-chart: k = 1 gives (n-k)q = 1, an odd sign
    action = shear_action()
    K = sf.function("K", ("y",))
    chi = cc.MultiVectorField(N2, 1, {(0,): K})
    b = sf.function("b", ("y",))
    omega = cc.DiffForm(N2, 2, {(0, 1): b})
    res = aa.evaluation_map(action, chi, omega)  # k = 2: sign +
    assert res.sign == 1
    omega1 = cc.DiffForm(N2, 1, {(1,): b})
    res1 = aa.evaluation_map(action, chi, omega1)  # k = 1: sign -
    assert res1.sign == -1
    assert res1.form.is_zero()  # dy contracts to zero against K dx


def test_rho_rejects_noninvariant():
    action = shear_action()
    chi = cc.MultiVectorField(N2, 1, {(0,): sf.function("K", ("y",))})
    bad = cc.DiffForm(N2, 1, {(0,): sf.function("a", ("y",))})
    with pytest.raises(aa.InvalidInput):
        aa.evaluation_map(action, chi, bad)
    with pytest.raises(aa.InvalidInput):
        aa.evaluation_map(action, cc.MultiVectorField.zero(N2, 1), bad)


# -- cochain condition -----------------------------------------------------------


def test_cochain_condition_intro():
    action = intro_action()
    alpha, nu = intro_forms()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    assert aa.cochain_condition_check(action, chi, alpha).ok
    assert aa.cochain_condition_check(action, chi, nu).ok
    # both sides of the degree-2 identity equal c'(x) dx
    c = sf.function("c", ("x",))
    lhs = cc.interior_multivector(chi, cc.d_exterior(alpha))
    assert sf.equals(lhs.coefficient((0,)), sf.partial(c, "x"))


def test_cochain_condition_fails_on_solvable():
    action = solvable_action()
    chi = solvable_chain()
    omega = cc.DiffForm(M3, 2, {(0, 2): 1 / y})
    assert aa.check_invariant_form(action, omega).ok
    res = aa.cochain_condition_check(action, chi, omega, [(0, 1, 0)])
    assert not res.ok
    K = sf.function("K", ("z",))
    assert res.residual.coeffs.keys() == {(2,)}
    assert sf.equals(res.residual.coefficient((2,)), K)


def test_cochain_condition_below_the_chain_degree():
    """Below degree q, i_chi w = 0: for k = q - 1 the residual is the 0-form
    i_chi dw, and for k < q - 1 both sides vanish."""
    action, chi = solvable_action(), solvable_chain()
    gamma = cc.DiffForm(M3, 1, {(0,): 1 / y})
    res = aa.cochain_condition_check(action, chi, gamma)
    assert (res.ok, res.residual.degree) == (False, 0)
    assert res.residual.coefficient(()) == sf.function("K", ("z",))
    assert aa.cochain_condition_check(action, chi, cc.DiffForm(M3, 1, {(2,): sf.ONE})).ok
    res = aa.cochain_condition_check(action, chi, cc.DiffForm(M3, 0, {(): sf.coordinate("z")}))
    assert res.ok and res.residual.degree == 0
    with pytest.raises(cc.DegreeUnderflow, match="^form degree 1 below chain degree 2$"):
        aa.evaluation_map(action, chi, gamma)


def test_cochain_condition_shear_invariant_forms():
    action = shear_action()
    K = sf.function("K", ("y",))
    chi = cc.MultiVectorField(N2, 1, {(0,): K})
    b = sf.function("b", ("y",))
    c = sf.function("c", ("y",))
    assert aa.cochain_condition_check(action, chi, cc.DiffForm(N2, 1, {(1,): b})).ok
    assert aa.cochain_condition_check(action, chi, cc.DiffForm(N2, 2, {(0, 1): c})).ok


# -- stability and scaling -------------------------------------------------------


def test_stability_solvable_residual():
    action = solvable_action()
    chi = solvable_chain()
    ydy = cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])
    res = aa.stability_check(action, chi, [ydy])
    assert not res.ok
    assert res.entries[0].residual == chi


def test_stability_shear_holds():
    action = shear_action()
    chi = cc.MultiVectorField(N2, 1, {(0,): sf.function("K", ("y",))})
    R = cc.vector_field(N2, [sf.function("a", ("y",)), sf.ZERO])
    assert aa.stability_check(action, chi, [R]).ok


def test_stability_intro_holds():
    action = intro_action()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    R = cc.vector_field(M3, [x, sf.ZERO, sf.ZERO])
    assert aa.stability_check(action, chi, [R]).ok


def test_stability_rejects_noninvariant_field():
    action = intro_action()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    with pytest.raises(aa.NonInvariantField):
        aa.stability_check(action, chi, [cc.vector_field(M3, [sf.ZERO, y ** 2, sf.ZERO])])


def test_scaling_factors_solvable():
    action = solvable_action()
    chi = solvable_chain()
    K = sf.function("K", ("z",))
    h = sf.function("h", ("z",))
    ydy = cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])
    assert sf.equals(aa.scaling_factor(action, chi, ydy, [(0, 1, 0)]), 1)
    hdz = cc.vector_field(M3, [sf.ZERO, sf.ZERO, h])
    lam = aa.scaling_factor(action, chi, hdz, [(0, 1, 0)])
    assert sf.equals(lam, h * sf.partial(K, "z") / K)
    dx_gen = basis_vector(M3, "x")
    f = sf.function("f", ("z",))
    fydx = cc.vector_field(M3, [f * y, sf.ZERO, sf.ZERO])
    assert aa.scaling_factor(action, chi, fydx, [(0, 1, 0)]).is_zero()


def test_scaling_linearity():
    action = solvable_action()
    chi = solvable_chain()
    ydy = cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])
    hdz = cc.vector_field(M3, [sf.ZERO, sf.ZERO, sf.function("h", ("z",))])
    lam1 = aa.scaling_factor(action, chi, ydy, [(0, 1, 0)])
    lam2 = aa.scaling_factor(action, chi, hdz, [(0, 1, 0)])
    lam_sum = aa.scaling_factor(action, chi, ydy + hdz, [(0, 1, 0)])
    assert sf.equals(lam_sum, lam1 + lam2)
    lam_scaled = aa.scaling_factor(action, chi, ydy.scaled(3), [(0, 1, 0)])
    assert sf.equals(lam_scaled, 3 * lam1)


# -- integrability and rescaling -------------------------------------------------


def test_integrability_solvable():
    action = solvable_action()
    chi = solvable_chain()
    ydy = cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])
    hdz = cc.vector_field(M3, [sf.ZERO, sf.ZERO, sf.function("h", ("z",))])
    res = aa.integrability_check(action, chi, [ydy, hdz], [(0, 1, 0)])
    assert res.ok
    assert [(s, t) for s, t, _ in res.pairs] == [(0, 1)]


def test_integrability_single_field_vacuous():
    action = solvable_action()
    res = aa.integrability_check(action, solvable_chain(),
                                 [cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])], [(0, 1, 0)])
    assert res.pairs == [] and res.ok


def test_integrability_intro_all_zero():
    action = intro_action()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    fields = [cc.vector_field(M3, [x, sf.ZERO, sf.ZERO]), basis_vector(M3, "y")]
    res = aa.integrability_check(action, chi, fields)
    assert res.ok


def test_rescale_solvable():
    action = solvable_action()
    chi0 = solvable_chain(kfunc=False)
    dz = basis_vector(M3, "z")
    ydy = cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])
    assert aa.rescale_verify(action, chi0, sf.rational(1, 3), [dz], [(0, 1, 0)]).ok
    res = aa.rescale_verify(action, chi0, sf.rational(1, 3), [dz, ydy], [(0, 1, 0)])
    assert not res.ok
    assert res.entries[0].ok and not res.entries[1].ok


def test_rescale_shear_arbitrary_k():
    action = shear_action()
    chi0 = cc.MultiVectorField(N2, 1, {(0,): sf.ONE})
    K = sf.function("K", ("y",))
    R = cc.vector_field(N2, [sf.function("a", ("y",)), sf.ZERO])
    assert aa.rescale_verify(action, chi0, K, [R]).ok


def test_rescale_rejects_zero_and_noninvariant():
    action = solvable_action()
    chi0 = solvable_chain(kfunc=False)
    with pytest.raises(aa.InvalidInput):
        aa.rescale_verify(action, chi0, sf.ZERO, [], [(0, 1, 0)])
    with pytest.raises(aa.InvalidInput):
        aa.rescale_verify(action, chi0, y, [], [(0, 1, 0)])


# -- surjectivity -----------------------------------------------------------------


def test_surjectivity_intro():
    action = intro_action()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    alpha = cc.DiffForm(M3, 2, {(1, 2): sf.ONE})
    assert aa.surjectivity_certificate(action, chi, alpha).ok
    doubled = cc.DiffForm(M3, 2, {(1, 2): sf.rational(2)})
    res = aa.surjectivity_certificate(action, chi, doubled)
    assert not res.ok and sf.equals(res.pairing, 2)


def test_surjectivity_shear_has_no_invariant_certificate():
    # dx pairs to 1 with the chain but is not invariant under the shear;
    # the only invariant 1-forms are b(y) dy, which pair to 0, so this
    # evaluation map is genuinely not surjective
    action = shear_action()
    chi1 = cc.MultiVectorField(N2, 1, {(0,): sf.ONE})
    alpha = cc.DiffForm(N2, 1, {(0,): sf.ONE})
    res = aa.surjectivity_certificate(action, chi1, alpha)
    assert sf.equals(res.pairing, 1)
    assert not res.invariance.ok
    assert not res.ok


# -- consistency across the checks ----------------------------------------------


def test_stability_predicts_cochain_condition():
    """Where L_R chi = 0 holds on a spanning family of invariant fields, the
    cochain condition holds for every supplied invariant form; where it fails
    for every rescaling, some invariant form witnesses the failure."""
    # shear: stability holds for the general invariant field, and the cochain
    # condition holds for invariant forms of both available degrees
    action = shear_action()
    K = sf.function("K", ("y",))
    chi = cc.MultiVectorField(N2, 1, {(0,): K})
    family = [cc.vector_field(N2, [sf.function("a", ("y",)), sf.ZERO])]
    assert aa.stability_check(action, chi, family).ok
    for omega in (cc.DiffForm(N2, 1, {(1,): sf.function("b", ("y",))}),
                  cc.DiffForm(N2, 2, {(0, 1): sf.function("c", ("y",))})):
        assert aa.cochain_condition_check(action, chi, omega).ok

    # solvable: y dy obstructs every rescaling of the chain, and the scan
    # basis of invariant forms contains a witness that fails the condition
    action = solvable_action()
    chi0 = solvable_chain(kfunc=False)
    ydy = cc.vector_field(M3, [sf.ZERO, y, sf.ZERO])
    for k_candidate in (sf.ONE, sf.rational(5), sf.rational(1, 7)):
        res = aa.rescale_verify(action, chi0, k_candidate, [ydy], [(0, 1, 0)])
        assert not res.ok
    witness = cc.DiffForm(M3, 2, {(0, 2): 1 / y})
    assert aa.check_invariant_form(action, witness).ok
    assert not aa.cochain_condition_check(action, solvable_chain(), witness,
                                          [(0, 1, 0)]).ok


def test_cochain_condition_descends_from_top_degree():
    """A q=1 translation action on a 3-chart: the condition checked on
    invariant (n-1)-forms also holds on lower degrees down to q."""
    action = aa.ActionSpec(M3, LieAlgebra(1), (basis_vector(M3, "z"),), 1)
    chi = cc.MultiVectorField(M3, 1, {(2,): sf.ONE})  # the generator itself
    f = sf.function("f", ("x", "y"))
    g = sf.function("g", ("x", "y"))
    h = sf.function("h", ("x", "y"))
    two_forms = [cc.DiffForm(M3, 2, {(0, 1): f, (0, 2): g, (1, 2): h})]
    one_forms = [cc.DiffForm(M3, 1, {(0,): f, (2,): g})]
    for omega in two_forms:
        assert aa.check_invariant_form(action, omega).ok
        assert aa.cochain_condition_check(action, chi, omega).ok
    for omega in one_forms:
        assert aa.check_invariant_form(action, omega).ok
        assert aa.cochain_condition_check(action, chi, omega).ok


def test_pairing_form_wedge_semibasic_is_invariant():
    """alpha with alpha(chi) = 1 wedged with a semi-basic invariant form of
    complementary degree is an invariant top form."""
    action = intro_action()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    alpha = cc.DiffForm(M3, 2, {(1, 2): sf.ONE})
    mu = cc.DiffForm(M3, 1, {(0,): sf.function("A", ("x",))})
    assert aa.check_semibasic(action, mu).ok
    assert aa.check_invariant_form(action, mu).ok
    assert sf.equals(cc.interior_multivector(chi, alpha).coefficient(()), 1)
    nu = alpha.wedge(mu)
    assert aa.check_invariant_form(action, nu).ok


def test_sign_coherence_d_commutes_with_rho():
    """d(rho(omega)) equals rho(d omega) whenever the cochain condition
    holds, including the degree-shift sign bookkeeping."""
    action = intro_action()
    chi = cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")])
    alpha, _ = intro_forms()
    assert aa.cochain_condition_check(action, chi, alpha).ok
    d_rho = cc.d_exterior(aa.evaluation_map(action, chi, alpha).form)
    rho_d = aa.evaluation_map(action, chi, cc.d_exterior(alpha)).form
    assert (d_rho - rho_d).is_zero()

    # and on the shear example, where the shift sign is odd for 1-forms
    action = shear_action()
    K = sf.function("K", ("y",))
    chi = cc.MultiVectorField(N2, 1, {(0,): K})
    omega = cc.DiffForm(N2, 1, {(1,): sf.function("b", ("y",))})
    assert aa.cochain_condition_check(action, chi, omega).ok
    d_rho = cc.d_exterior(aa.evaluation_map(action, chi, omega).form)
    rho_d = aa.evaluation_map(action, chi, cc.d_exterior(omega)).form
    assert (d_rho - rho_d).is_zero()


def test_isotropy_members_vanish_nonmembers_do_not():
    action = shear_action()
    point = (5, 2)
    pt = action.chart.point_map(point)
    for xi in aa.isotropy_algebra_at(action, point):
        combo = cc.vector_field(N2, [sf.ZERO, sf.ZERO])
        for c, g in zip(xi, action.generators):
            combo = combo + g.scaled(sf.rational(c))
        assert all(comp.eval_at(pt) == 0 for comp in combo.components)
    # a vector outside the kernel gives a nonzero generator combination
    outside = action.generators[1]
    assert any(comp.eval_at(pt) != 0 for comp in outside.components)


def rotation_action():
    """so(3) rotations of 3-space; orbits are spheres, q = 2."""
    z = sf.coordinate("z")
    algebra = LieAlgebra(3, {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}})
    r1 = cc.vector_field(M3, [sf.ZERO, -z, y])
    r2 = cc.vector_field(M3, [z, sf.ZERO, -x])
    r3 = cc.vector_field(M3, [y, -x, sf.ZERO])
    return aa.ActionSpec(M3, algebra, (r1, r2, r3), 2)


def sphere_area_chain():
    """x dy^dz + y dz^dx + z dx^dy: the invariant vertical 2-chain."""
    z = sf.coordinate("z")
    return cc.MultiVectorField(M3, 2, {(0, 1): z, (0, 2): -y, (1, 2): x})


def test_rotation_chain_invariant_and_vertical():
    action = rotation_action()
    chi = sphere_area_chain()
    assert not aa.bracket_violations(action)
    assert not aa.rank_failures(action, [(0, 0, 1), (1, 0, 0)])
    assert aa.check_invariant_multivector(action, chi).ok
    # at the z-pole the frame {r1, r2} works and r1^r2 = z * chi
    frame, factor = aa.check_vertical(action, chi, [(0, 0, 1)])
    assert frame == (0, 1)
    assert sf.equals(factor, 1 / sf.coordinate("z"))
    # at the x-pole that frame degenerates and {r2, r3} is selected instead
    frame, factor = aa.check_vertical(action, chi, [(1, 0, 0)])
    assert frame == (1, 2)
    assert sf.equals(factor, -1 / x)


def test_rotation_scaling_factors_and_integrability():
    action = rotation_action()
    chi = sphere_area_chain()
    z = sf.coordinate("z")
    euler = cc.vector_field(M3, [x, y, z])
    rsq = x ** 2 + y ** 2 + z ** 2
    scaled_euler = euler.scaled(rsq)
    assert aa.check_invariant_multivector(action, euler).ok
    assert aa.check_invariant_multivector(action, scaled_euler).ok
    lam = aa.scaling_factor(action, chi, euler, [(0, 0, 1)])
    assert sf.equals(lam, -1)
    lam2 = aa.scaling_factor(action, chi, scaled_euler, [(0, 0, 1)])
    assert sf.equals(lam2, -rsq)
    res = aa.integrability_check(action, chi, [euler, scaled_euler], [(0, 0, 1)])
    assert res.ok


def test_rotation_obstruction_unobstructed_off_origin():
    report = aa.obstruction_report(rotation_action(), [(0, 0, 1), (1, 0, 0)])
    assert report.verdict == aa.UNOBSTRUCTED
    for p in report.points:
        assert (p.isotropy_dim, p.relative_dim, p.cohomology_dim) == (1, 1, 1)


def test_invariant_chain_implies_nonzero_relative_space():
    """Chart level meets algebra level: wherever a certified invariant
    vertical chain exists, the degree-q relative space of the isotropy
    subgroup must be nonzero at every sampled point."""
    K = sf.function("K", ("y",))
    cases = [
        (intro_action(),
         cc.wedge_vectorfields([basis_vector(M3, "y"), basis_vector(M3, "z")]),
         [(0, 0, 0), (1, 2, 3)]),
        (shear_action(), cc.MultiVectorField(N2, 1, {(0,): K}), [(0, 1), (3, -2)]),
        (solvable_action(), solvable_chain(), [(0, 1, 0), (2, -1, 5)]),
        (rotation_action(), sphere_area_chain(), [(0, 0, 1), (1, 0, 0)]),
    ]
    for action, chi, points in cases:
        assert aa.check_invariant_multivector(action, chi).ok
        assert aa.check_vertical(action, chi, points) is not None
        report = aa.obstruction_report(action, points)
        for p in report.points:
            assert p.relative_dim > 0


# -- obstruction reports ------------------------------------------------------------


def test_obstruction_solvable():
    report = aa.obstruction_report(solvable_action(), [(0, 1, 0)])
    assert report.verdict == aa.NO_COCHAIN_MAP
    p = report.points[0]
    assert (p.isotropy_dim, p.relative_dim, p.cohomology_dim) == (0, 1, 0)


def test_obstruction_shear():
    report = aa.obstruction_report(shear_action(), [(0, 1), (3, -2)])
    assert report.verdict == aa.UNOBSTRUCTED
    for p in report.points:
        assert (p.isotropy_dim, p.relative_dim, p.cohomology_dim) == (1, 1, 1)


def test_obstruction_intro():
    report = aa.obstruction_report(intro_action(), [(0, 0, 0)])
    assert report.verdict == aa.UNOBSTRUCTED
    assert report.points[0].cohomology_dim == 1


def test_obstruction_no_invariant_chain():
    # rotations of the plane, q = 1: at the origin the isotropy is all of
    # so(2) and the relative space in degree 1 is zero
    rot = cc.vector_field(N2, [-y, x])
    action = aa.ActionSpec(N2, LieAlgebra(1), (rot,), 1)
    report = aa.obstruction_report(action, [(0, 0)])
    assert report.verdict == aa.NO_INVARIANT_CHAIN
    assert report.points[0].relative_dim == 0


def test_obstruction_with_component_reps():
    action = intro_action()
    flip = ((-1, 0), (0, 1))
    report = aa.obstruction_report(action, [(0, 0, 0)], (flip,))
    # the flip negates e1, so no invariant 2-form on the algebra survives
    assert report.points[0].relative_dim == 0
    assert report.verdict == aa.NO_INVARIANT_CHAIN


# -- work of the invariance checks, counted on the chart_swell workspace ------
#
# Deterministic counts in place of wall time: polynomial products, canonical
# fractions and polynomials built, and the partials taken of each tensor
# coefficient and of each cleared numerator.  A passing check decides L_X t
# = 0 on t's cleared numerator P, bare terms of one layout, with one set
# of P's partials for every generator: it builds no fraction, and no
# polynomial once P is cleared; adding zero builds nothing.

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def swell_counts(monkeypatch):
    """The chart_swell workspace of seed 12, counters on `_p_mul`, on
    `_fraction`, on `_make` (with its count when each clearing returns) and
    on `ScalarExpr.partial` by (expression, coordinate), the (terms, steps)
    of each run of the shared partial loop, kept so that no two share an
    id, and the numerators of each clearing a decision makes."""
    monkeypatch.syspath_prepend(str(BENCH))
    import chart_swell

    texts, _ = chart_swell.generate(12)
    ws = dsl.parse(next(iter(texts.values())))
    counts = {"mul": 0, "fraction": 0, "make": 0, "cleared": [], "partial": Counter(),
              "partial_terms": [], "numerators": []}
    p_mul, fraction, make, clear = sf._p_mul, sf._fraction, sf._make, sf._clear
    partial, partial_terms = sf.ScalarExpr.partial, sf._partial_terms

    def counted_mul(p, q):
        counts["mul"] += 1
        return p_mul(p, q)

    def counted_fraction(*args):
        counts["fraction"] += 1
        return fraction(*args)

    def counted_make(*args):
        counts["make"] += 1
        return make(*args)

    def counted_clear(*args):
        out = clear(*args)
        counts["cleared"].append(counts["make"])
        if sys._getframe(1).f_code is sf.operator_vanishes.__code__:
            counts["numerators"].append(out[2])
        return out

    def counted_partial(e, coord):
        counts["partial"][e, coord] += 1
        return partial(e, coord)

    def counted_partial_terms(terms, w, steps):
        counts["partial_terms"].append((terms, tuple(steps)))
        return partial_terms(terms, w, steps)
    monkeypatch.setattr(sf, "_p_mul", counted_mul)
    monkeypatch.setattr(sf, "_fraction", counted_fraction)
    monkeypatch.setattr(sf, "_make", counted_make)
    monkeypatch.setattr(sf, "_clear", counted_clear)
    monkeypatch.setattr(sf.ScalarExpr, "partial", counted_partial)
    monkeypatch.setattr(sf, "_partial_terms", counted_partial_terms)
    return ws, counts


@pytest.mark.parametrize("check,muls,fractions", [
    ("multivector", 0, 0), ("form", 0, 0), ("cochain", 12, 19)])
def test_invariance_checks_differentiate_each_coefficient_once(swell_counts, check, muls,
                                                               fractions):
    ws, counts = swell_counts
    rot, chi, sigma0 = ws.actions["rot"].spec, ws.chains["chi"], ws.forms["sigma0"]
    run = {"multivector": lambda: aa.check_invariant_multivector(rot, chi).ok,
           "form": lambda: aa.check_invariant_form(rot, sigma0).ok,
           "cochain": lambda: not aa.cochain_condition_check(rot, chi, sigma0).ok}[check]
    assert run()
    assert counts["mul"] <= muls
    assert counts["fraction"] <= fractions
    tensor = sigma0 if check == "form" else chi
    assert not any(e in tensor.coeffs.values() for e, _ in counts["partial"])
    # the preconditions of `cochain` are one check of sigma0, then one of chi
    clearings = counts["numerators"][-1:] if check != "cochain" else counts["numerators"]
    numerators = {id(p) for clearing in clearings for p in clearing}
    assert numerators
    # the shared partial loop, once per cleared numerator and coordinate
    taken = Counter((id(p), steps) for p, steps in counts["partial_terms"]
                    if id(p) in numerators)
    assert len(taken) == len(numerators) * 3
    assert max(taken.values()) == 1


def test_passing_check_builds_no_polynomial_after_its_clearing(swell_counts):
    ws, counts = swell_counts
    assert aa.check_invariant_multivector(ws.actions["rot"].spec, ws.chains["chi"]).ok
    assert counts["cleared"] == [counts["make"]]


def test_adding_zero_builds_nothing(swell_counts):
    _, counts = swell_counts
    x, y, z = (sf.coordinate(c) for c in "xyz")
    e = sf.ONE / (x ** 2 + y ** 2 + z ** 2) ** 2
    counts["mul"] = 0
    total = sf.ZERO + e
    assert counts["mul"] == 0
    assert (total.num, total.den) == (e.num, e.den)
    assert e + sf.ZERO is e and sf.ZERO + e is e


def test_work_is_counted_and_canonical_products_skip_make(monkeypatch, capsys):
    """Deterministic counts, with `_mul_terms` and `_make` wrapped, on
    chart_swell's scaling factor along R1 (seed 12) and on a fixture's
    `check cochain`, each under one meter: the meter's reading, the
    `_mul_terms` calls and term products, which the shortcuts of canonical
    products leave as they were, and the `_make` calls, which those
    shortcuts cut from 88 and 14."""
    counts = Counter()
    mul_terms, make = sf._mul_terms, sf._make

    def counted_mul_terms(a, b):
        counts["mul_terms"] += 1
        counts["products"] += len(a) * len(b)
        return mul_terms(a, b)

    def counted_make(*args):
        counts["make"] += 1
        return make(*args)
    readings, hold = [], sf.hold_meter
    monkeypatch.setattr(sf, "hold_meter", lambda held: hold(held) if held else (
        readings.append(sf._work), hold(held)))
    monkeypatch.syspath_prepend(str(BENCH))
    import chart_swell

    texts, _ = chart_swell.generate(12)
    ws = dsl.parse(next(iter(texts.values())))
    monkeypatch.setattr(sf, "_mul_terms", counted_mul_terms)
    monkeypatch.setattr(sf, "_make", counted_make)
    sf.hold_meter(True)
    lam = aa.scaling_factor(ws.actions["rot"].spec, ws.chains["chi"], ws.vector_fields["R1"])
    sf.hold_meter(False)
    assert sf.dsl_str(lam) == "-3/(x^2 + y^2 + z^2)"
    assert (readings, dict(counts)) == ([315], {"mul_terms": 123, "products": 183, "make": 44})
    readings.clear()
    counts.clear()
    fixture = Path(__file__).resolve().parent / "fixtures" / "solvable.lch"
    assert cli.main(["check", "cochain", "--input", str(fixture), "--action", "act",
                     "--chain", "chi", "--forms", "omega", "--fields", "Z1", "Z2",
                     "--points", "P"]) == 1
    capsys.readouterr()
    assert (readings, dict(counts)) == ([37], {"mul_terms": 13, "products": 12, "make": 12})


def test_a_tensor_without_denominators_is_cleared_without_an_lcm(monkeypatch):
    """K(y) D(x) under the shears D(x), y D(x), y^2 D(x): its clearing takes
    the numerators as they are, with no `_lcm`, no cofactor product and no
    rescaling, and the verdict is the exact kernel's."""
    ws = dsl.parse("chart N { coords = [x, y] }\nfunction K(y)\nlie_algebra a3 { dim 3 }\n"
                   "vectorfield w1 on N = D(x)\nvectorfield w2 on N = y*D(x)\n"
                   "vectorfield w3 on N = y^2*D(x)\n"
                   "action act { algebra a3 chart N generators = [w1, w2, w3] orbit_dim 1 }\n"
                   "chain chi on N = K(y)*D(x)\nchain psi on N = -3*K(y)*D(x) + 3/2*y*D(y)\n")
    calls, scales = Counter(), []
    for name in ("_lcm", "_p_mul"):
        def spy(*args, fn=getattr(sf, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(sf, name, spy)
    common_scale = sf._common_scale
    monkeypatch.setattr(sf, "_common_scale",
                        lambda contents: scales.append(common_scale(contents)) or scales[-1])
    act = ws.actions["act"].spec
    assert aa.check_invariant_multivector(act, ws.chains["chi"]).ok
    assert not calls and scales and all(set(s) == {1} for s in scales)
    verdict = aa.check_invariant_multivector(act, ws.chains["psi"])
    assert not calls["_lcm"] and any(set(s) != {1} for s in scales)
    assert (verdict.ok, verdict.generator) == _kernel_verdict(act.generators, ws.chains["psi"])[:2]


# -- invariance verdicts: the decision, and the exact kernel for a witness -----


def _kernel_verdict(generators, t):
    """The verdict of differentiating along each generator in turn with the
    exact kernel: the first nonzero derivative fails it, as its witness."""
    for i, g in enumerate(generators):
        residual = cc._lie_derivative(g, t)
        if not residual.is_zero():
            return False, i, residual
    return True, None, None


def _check(generators, t):
    action = aa.ActionSpec(t.chart, LieAlgebra(len(generators)), tuple(generators), 1)
    check = aa.check_invariant_form if t.kind == "form" else aa.check_invariant_multivector
    v = check(action, t)
    return v.ok, v.generator, v.witness


def _outcome(run, *args):
    """run(*args), or "refused" past the work limit, whose count differs
    between the decision and the kernel."""
    try:
        return run(*args)
    except sf.WorkLimit:
        return "refused"


def test_invariance_verdicts_match_the_exact_kernel():
    """Same verdict, failing generator and witness as differentiating with
    the exact kernel along each generator in turn, or a refusal by both."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    gen = invariance_strategies(st)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(gen.tensors, st.lists(gen.fields, min_size=1, max_size=3),
                      gen.invariants, gen.layouts)
    def check(t, xs, case, layout):
        generators, invariant = case
        assert _outcome(_check, xs, t) == _outcome(_kernel_verdict, xs, t)
        assert _check(generators, invariant) == (True, None, None)
        # an invariant tensor with a generator that moves it put last
        assert _check(generators + (xs[0],), invariant) == _kernel_verdict(
            generators + (xs[0],), invariant)
        assert _outcome(_check, *layout) == _outcome(_kernel_verdict, *layout)
    check()


def _residual(a, b):
    """a - (a_0 / b_0) b, b_0 being b's first nonzero coefficient: zero
    exactly when a is a multiple of b."""
    base = next(idx for idx, c in b.coeffs.items() if not c.is_zero())
    return a - b.scaled(a.coefficient(base) / b.coefficient(base))


def test_proportionality_decision_matches_the_residual():
    """sf.proportional decides what the exact residual decides."""
    hypothesis = pytest.importorskip("hypothesis")
    gen = invariance_strategies(hypothesis.strategies)

    @hypothesis.settings(max_examples=150, deadline=None, database=None)
    @hypothesis.given(gen.pairs)
    def check(pair):
        a, b = pair
        assert sf.proportional(a.coeffs, b.coeffs) == _residual(a, b).is_zero()
    check()


def test_proportionality_of_a_large_pair_is_decided_on_one_clearing():
    """A pair the strategy of the property above draws, whose products
    A_k B_0 and A_0 B_k were over the former sum estimate: decided on one
    clearing, with the residual's answer."""
    x, y, z = (sf.coordinate(c) for c in "xyz")
    K, h = sf.function("K", ("z",)), sf.function("h", ("x", "y"))
    hy = sf.partial(h, "y")
    a = cc.DiffForm(M3, 1, {(0,): sf.ONE / (y * z), (1,): (1 - 3 * K) / (K + 1),
                            (2,): (hy - z * hy - 1) / ((x ** 2 + 1) * (y + z))})
    b = cc.DiffForm(M3, 1, {(0,): (3 * x * h - 3 * x - z ** 131) / (K + z) ** 2,
                            (1,): 3 - 2 * sf.partial(K, "z"),
                            (2,): sf.rational(-3) / (x ** 2 + y ** 2 + z ** 2)})
    assert not _residual(a, b).is_zero()
    assert sf.proportional(a.coeffs, b.coeffs) is False


def test_proportionality_past_the_work_limit_is_refused(monkeypatch):
    """A multiple of b is found, and one changed coefficient is not; below
    the 24 term products of clearing a and b over one denominator, the
    clearing and the decision are refused, with no fallback."""
    x, y, z = (sf.coordinate(c) for c in "xyz")
    b = cc.MultiVectorField(M3, 1, {(0,): 1 / (x + 1), (1,): 1 / (y + 1), (2,): 1 / (z + 1)})
    a = b.scaled(x)
    changed = cc.MultiVectorField(M3, 1, {**a.coeffs, (2,): a.coefficient((2,)) + 1})
    for t, multiple in ((a, True), (changed, False)):
        assert _residual(t, b).is_zero() is multiple
        assert sf.proportional(t.coeffs, b.coeffs) is multiple
    monkeypatch.setattr(sf, "MAX_WORK", 23)
    with pytest.raises(sf.WorkLimit, match="24 term products counted, over the limit of 23"):
        sf.linear_relations([[c] for c in (*a.coeffs.values(), *b.coeffs.values())])
    with pytest.raises(sf.WorkLimit):
        sf.proportional(a.coeffs, b.coeffs)


def test_generators_are_decided_in_order_one_at_a_time(monkeypatch):
    """(x + 1) over the twelve factors x + y_i and x - y_i: outside a
    command each generator's decision is metered on its own, and along D(x)
    it takes 9,353 term products, along D(y0) 38.  Under a limit of 1,000,
    a check that fails at D(y0) never reaches D(x), so it raises nothing;
    D(x) first is refused before D(y0) is looked at."""
    chart = cc.Chart(("x",) + tuple(f"y{i}" for i in range(6)))
    e = x + 1
    for name in chart.coordinates[1:]:
        e = e / (x + sf.coordinate(name)) / (x - sf.coordinate(name))
    t = cc.DiffForm(chart, 0, {(): e})
    along_x, along_y0 = basis_vector(chart, "x"), basis_vector(chart, "y0")
    verdicts = cc.lie_derivatives_vanish([along_y0, along_x], t)
    assert next(verdicts) is False and sf._work == 38
    assert next(verdicts) is False and sf._work == 9_353
    monkeypatch.setattr(sf, "MAX_WORK", 1_000)
    ok, generator, witness = _check((along_y0, along_x), t)
    assert (ok, generator) == (False, 0)
    assert witness == cc._lie_derivative(along_y0, t)
    with pytest.raises(sf.WorkLimit):
        _check((along_x, along_y0), t)


def test_common_denominator_of_long_factors_is_decided_by_the_clearing(monkeypatch):
    """Each coefficient 1/f_c^3, f_c = 1 + c + ... + c^9: their common
    denominator, over the former sum estimate, is cleared in 6,420 term
    products, and the check decides without the exact kernel, with its
    verdicts."""
    chart = cc.Chart(("x", "y", "u", "v", "w"))
    xc, yc = sf.coordinate("x"), sf.coordinate("y")
    coeffs = {}
    for i, name in enumerate(("u", "v", "w"), start=2):
        c = sf.coordinate(name)
        coeffs[(i,)] = (sf.ONE / sum((c ** k for k in range(10)), sf.ZERO)) ** 3
    omega = cc.DiffForm(chart, 1, coeffs)
    assert sf.linear_relations([[c] for c in omega.coeffs.values()]) == []
    assert sf._work == 6_420
    turn = cc.vector_field(chart, [-yc, xc, sf.ZERO, sf.ZERO, sf.ZERO])
    for generators in ((turn,), (turn, basis_vector(chart, "u"))):
        want = _kernel_verdict(generators, omega)
        kernel, calls = cc._lie_derivative, []
        monkeypatch.setattr(cc, "_lie_derivative",
                            lambda *args: calls.append(args) or kernel(*args))
        verdict = _check(generators, omega)
        monkeypatch.setattr(cc, "_lie_derivative", kernel)
        assert verdict == want
        assert len(calls) == (not verdict[0])   # the witness of a failing generator
    assert verdict[:2] == (False, 1)


def test_scalar_invariance_goes_through_the_decision(monkeypatch):
    # lambda and K are checked as 0-forms; their errors stay as they were
    seen = []
    vanishes = cc.lie_derivatives_vanish

    def recorded(xs, t):
        seen.append((t.kind, t.degree))
        return vanishes(xs, t)
    monkeypatch.setattr(cc, "lie_derivatives_vanish", recorded)
    action = solvable_action()
    chi0 = solvable_chain(kfunc=False)
    with pytest.raises(aa.InvalidInput, match="^rescaling function is not invariant$"):
        aa.rescale_verify(action, chi0, y, [], [(0, 1, 0)])
    assert seen == [("form", 0)]
    seen.clear()
    with pytest.raises(aa.InvalidInput, match="^scaling factor is not invariant$"):
        aa.scaling_factor_unchecked(action, chi0, chi0.scaled(y))
    assert seen == [("form", 0)]
