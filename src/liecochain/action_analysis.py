"""Decision procedures for a Lie group action given by chart generators.

An action is a chart, a Lie algebra, and one generator vector field per
basis element.  Everything here is an exact symbolic check: invariance is
infinitesimal (vanishing Lie derivatives along all generators), verticality
is proportionality to a wedge of generators, and the cochain condition
i_chi d w = (-1)^q d(i_chi w) is a syntactic zero test on the residual.
Pointwise data (isotropy, fixed subspaces, ranks) is exact rational linear
algebra at user-supplied sample points.
"""

from __future__ import annotations

from itertools import combinations

from . import chart_calculus as cc
from . import linalg
from . import scalar_field as sf
from .lie_cohomology import SubgroupSpec, relative_cohomology
from .linalg import _Record


class ActionError(Exception):
    pass


class InvalidInput(ActionError):
    """A checked precondition failed."""


class NotProportional(ActionError):
    pass


class NoFrameFound(ActionError):
    pass


class NonInvariantField(ActionError):
    pass


SCALING_NEEDS_INVARIANT_FIELD = "scaling factor requires an invariant field"


class ActionSpec(_Record):
    """Chart + algebra + generators; generator i realizes basis vector e_i."""

    def __init__(self, chart, algebra, generators, orbit_dim):
        if len(generators) != algebra.dim:
            raise ValueError("one generator per algebra basis vector")
        for g in generators:
            if g.chart != chart:
                raise cc.ChartMismatch("generator lives on a different chart")
        if not 1 <= orbit_dim <= min(algebra.dim, chart.dim):
            raise ValueError("orbit dimension out of range")
        self.chart = chart
        self.algebra = algebra
        self.generators = generators
        self.orbit_dim = orbit_dim


class Verdict(_Record):
    def __init__(self, ok, generator=None, witness=None):
        self.ok = ok
        self.generator = generator   # index of the failing generator, if any
        self.witness = witness       # residual tensor/expression on failure


def _generators_at(action, point, jets=False):
    """Row i: the components of generator i at the point, or with jets their
    values and partials by the coordinates there (`ScalarExpr.jet_at`)."""
    pt, names = action.chart.point_map(point), action.chart.coordinates
    return [[c.jet_at(pt, names) if jets else c.eval_at(pt) for c in g.components]
            for g in action.generators]


def bracket_violations(action):
    """(i, j, residual field) for each pair of generators whose bracket is
    not the combination the structure constants ask for."""
    alg, gens = action.algebra, action.generators
    violations = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            expect = cc.MultiVectorField.zero(action.chart, 1)
            for k, c in alg.brackets.get((i, j), {}).items():
                expect = expect + gens[k].scaled(sf.rational(c))
            residual = cc.lie_bracket(gens[i], gens[j]) - expect
            if not residual.is_zero():
                violations.append((i, j, residual))
    return violations


def rank_failures(action, sample_points):
    """(point, observed rank) for each sample point where the generators do
    not span a space of the orbit dimension."""
    failures = []
    for point in sample_points:
        r = linalg.rank(_generators_at(action, point))
        if r != action.orbit_dim:
            pt = action.chart.point_map(point)
            failures.append((tuple(pt[c] for c in action.chart.coordinates), r))
    return failures


def generator_kernel(action):
    """Rational vectors xi with sum_i xi_i * generator_i identically zero;
    none for an effective action."""
    return sf.linear_relations([g.components for g in action.generators])


def isotropy_algebra_at(action, point):
    """Basis of the exact kernel of xi -> sum_i xi_i generator_i(point)."""
    return _isotropy(_generators_at(action, point))


def _isotropy(values):
    # rows indexed by chart coordinate, columns by algebra basis
    return linalg.nullspace(list(zip(*values)), range(len(values)))


def fixed_space_at(action, point):
    """(isotropy basis, dim fixed tangent, dim fixed vertical) at the point,
    the generators evaluated there once, with their Jacobians J_i.  The
    isotropy algebra acts on the tangent space through J(xi) = sum_i xi_i J_i
    (the Jacobian is linear in xi) for xi in its basis, stacked in J: v is
    fixed iff J v = 0.  For the generators' values G, v = G^T c is fixed iff
    J G^T c = 0, and the kernel of c -> G^T c lies in that of J G^T, so the
    fixed vertical space has dimension rank G - rank(J G^T).  Every rank is
    taken on integer rows."""
    n = action.chart.dim
    jets = _generators_at(action, point, jets=True)
    values = [[v for v, _ in row] for row in jets]
    basis = _isotropy(values)
    jacobians = [[{j: x for j, x in enumerate(d) if x} for _, d in row] for row in jets]
    rows = []
    for xi in basis:
        for i in range(n):
            row = {}
            for c, jac in zip(xi, jacobians):
                for j, x in jac[i].items() if c else ():
                    row[j] = row.get(j, 0) + c * x
            rows.append(row)
    return basis, n - linalg.rank(rows), linalg.rank(values) - linalg.product_rank(rows, values)


def _invariant(action, t, lie_derivative):
    """Verdict on L_X t = 0 for the generators X in order, each decided on
    t's cleared numerator over one layout for every generator
    (`lie_derivatives_vanish`), none after the first that fails; the exact
    derivative along that generator is the witness."""
    generators = action.generators
    for i, (g, ok) in enumerate(zip(generators, cc.lie_derivatives_vanish(generators, t))):
        if not ok:
            return Verdict(False, generator=i, witness=lie_derivative(g, t))
    return Verdict(True)


def _invariant_scalar(action, f):
    """Whether X(f) = 0 for every generator X: f as a 0-form."""
    return check_invariant_form(action, cc.DiffForm(action.chart, 0, {(): f})).ok


def check_invariant_form(action, omega):
    return _invariant(action, omega, cc.lie_derivative_form)


def check_invariant_multivector(action, chi):
    return _invariant(action, chi, cc.lie_derivative_multivector)


def _factor(chi, w):
    """chi's coefficient over w's, at w's first nonzero coefficient: the
    factor lambda of chi = lambda * w once `sf.proportional` has found one."""
    base_idx = next(idx for idx, c in w.coeffs.items() if not c.is_zero())
    return chi.coefficient(base_idx) / w.coefficient(base_idx)


def _vanishes_at(w, pt):
    """Whether w counts as zero at the point: no coefficient is nonzero
    there before one without a value (a pole, an unresolved symbol)."""
    try:
        return all(c.eval_at(pt) == 0 for c in w.coeffs.values())
    except (sf.UnresolvedFunctionSymbol, sf.PoleAtPoint):
        return True


def check_vertical(action, chi, sample_points=(), factor=True):
    """Find a q-subset of generators framing chi: chi = J * X_{i1}^...^X_{iq}.

    The subsets are tried in order.  A candidate frame has a nonzero wedge:
    nonzero at some sample point, or symbolically nonzero without samples.
    When the generators have values at every sample point, a subset whose
    values have rank below q at each of them is passed over before its wedge
    is built.  Returns the first candidate frame (generator indices) that
    chi is a multiple of, with the factor J (None unless `factor`), or None
    when there is none; raises NoFrameFound when no subset is a candidate.
    """
    q = chi.degree
    if q != action.orbit_dim:
        raise InvalidInput(f"chain degree {q} differs from orbit dimension {action.orbit_dim}")
    pts = [action.chart.point_map(p) for p in sample_points]
    try:
        values = [_generators_at(action, p) for p in sample_points]
    except (sf.UnresolvedFunctionSymbol, sf.PoleAtPoint):
        values = None
    degenerate = True
    for subset in combinations(range(len(action.generators)), q):
        if values and all(linalg.rank([v[i] for i in subset]) < q for v in values):
            continue
        w = cc.wedge_vectorfields([action.generators[i] for i in subset])
        if w.is_zero() or (values is None and all(_vanishes_at(w, pt) for pt in pts)):
            continue
        degenerate = False
        if sf.proportional(chi.coeffs, w.coeffs):
            return subset, _factor(chi, w) if factor else None
    if degenerate:
        raise NoFrameFound("every generator subset of orbit size is degenerate")
    return None


def check_semibasic(action, eta):
    if eta.degree == 0:
        return Verdict(True)
    for i, g in enumerate(action.generators):
        residual = cc.interior_multivector(g, eta)
        if not residual.is_zero():
            return Verdict(False, generator=i, witness=residual)
    return Verdict(True)


# Preconditions.  Each calls the public check through the module namespace,
# so a wrapped or counted check sees every run.  A caller that has passed a
# precondition once calls the `*_unchecked` core of each check below.


def _require_invariant_form(action, omega):
    if not check_invariant_form(action, omega).ok:
        raise InvalidInput("form is not invariant")


def _require_invariant_field(action, r, message):
    if not check_invariant_multivector(action, r).ok:
        raise NonInvariantField(message)


def _require_invariant_vertical_chain(action, chi, sample_points):
    if chi.is_zero():
        raise InvalidInput("chain vanishes identically")
    if not check_invariant_multivector(action, chi).ok:
        raise InvalidInput("chain is not invariant")
    if check_vertical(action, chi, sample_points, factor=False) is None:
        raise InvalidInput("chain is not vertical")


class RhoResult(_Record):
    def __init__(self, form, sign, semibasic, invariant):
        self.form = form
        self.sign = sign
        self.semibasic = semibasic
        self.invariant = invariant

    @property
    def basic(self):
        return self.semibasic.ok and self.invariant.ok


def evaluation_map(action, chi, omega, sample_points=()):
    """(-1)^((n-k)q) i_chi omega, with certificates that the result is basic.

    The quotient representative is kept on the chart; semi-basic plus
    invariant certifies that it descends.
    """
    _require_invariant_form(action, omega)
    _require_invariant_vertical_chain(action, chi, sample_points)
    n, k, q = action.chart.dim, omega.degree, chi.degree
    if k < q:
        raise cc.DegreeUnderflow(f"form degree {k} below chain degree {q}")
    sign = -1 if ((n - k) * q) % 2 else 1
    result = cc.interior_multivector(chi, omega)
    if sign < 0:
        result = -result
    return RhoResult(result, sign,
                     semibasic=check_semibasic(action, result),
                     invariant=check_invariant_form(action, result))


class Residual(_Record):
    def __init__(self, residual):
        self.residual = residual

    @property
    def ok(self):
        return self.residual.is_zero()


def cochain_condition_check(action, chi, omega, sample_points=()):
    """Residual of i_chi d(omega) - (-1)^q d(i_chi omega); zero means the
    evaluation map commutes with d on this form."""
    _require_invariant_form(action, omega)
    _require_invariant_vertical_chain(action, chi, sample_points)
    return cochain_condition_unchecked(action, chi, omega)


def cochain_condition_unchecked(action, chi, omega):
    """cochain_condition_check for an invariant form and an invariant
    vertical chain."""
    q, n, k = chi.degree, action.chart.dim, omega.degree
    # both sides have degree k+1-q and vanish below degree 0; the left side
    # is 0 for top-degree omega, the right side for k < q (i_chi omega = 0)
    zero = cc.DiffForm.zero(action.chart, max(k + 1 - q, 0))
    lhs = cc.interior_multivector(chi, cc.d_exterior(omega)) if q <= k + 1 and k < n else zero
    rhs = cc.d_exterior(cc.interior_multivector(chi, omega)) if q <= k else zero
    if q % 2:
        rhs = -rhs
    return Residual(lhs - rhs)


class StabilityResult(_Record):
    def __init__(self, entries):
        self.entries = entries

    @property
    def ok(self):
        return all(e.ok for e in self.entries)


def stability_check(action, chi, fields):
    """L_R chi = 0 for each supplied invariant field R."""
    entries = []
    for i, r in enumerate(fields):
        _require_invariant_field(action, r, f"field #{i} is not invariant")
        entries.append(Residual(cc.lie_derivative_multivector(r, chi)))
    return StabilityResult(entries)


def scaling_factor(action, chi, r, sample_points=()):
    """The invariant function lambda with L_R chi = lambda * chi.

    Existence is guaranteed for nonvanishing vertical invariant chains and
    invariant R; anything else raises NotProportional.
    """
    _require_invariant_field(action, r, SCALING_NEEDS_INVARIANT_FIELD)
    _require_invariant_vertical_chain(action, chi, sample_points)
    return scaling_factor_unchecked(action, chi, cc.lie_derivative_multivector(r, chi))


def scaling_factor_unchecked(action, chi, lr):
    """scaling_factor from lr = L_R chi, for an invariant R and an invariant
    vertical chain."""
    if lr.is_zero():
        return sf.ZERO
    if not sf.proportional(lr.coeffs, chi.coeffs):
        raise NotProportional("derivative of the chain is not a multiple of the chain")
    lam = _factor(lr, chi)
    if not _invariant_scalar(action, lam):
        raise InvalidInput("scaling factor is not invariant")
    return lam


class IntegrabilityResult(_Record):
    def __init__(self, pairs):
        self.pairs = pairs   # (s, t, residual ScalarExpr)

    @property
    def ok(self):
        return all(r.is_zero() for _, _, r in self.pairs)


def integrability_check(action, chi, fields, sample_points=()):
    """Residuals Z_s(lambda_t) - Z_t(lambda_s) - lambda_[Z_s,Z_t] per pair."""
    fields = list(fields)
    lams = [scaling_factor(action, chi, z, sample_points) for z in fields]
    return integrability_unchecked(action, chi, fields, lams)


def integrability_unchecked(action, chi, fields, lams):
    """integrability_check given lams[i] = lambda of fields[i], for invariant
    fields and an invariant vertical chain."""
    pairs = []
    for s in range(len(fields)):
        for t in range(s + 1, len(fields)):
            zst = cc.lie_bracket(fields[s], fields[t])
            _require_invariant_field(action, zst,
                                     f"bracket of fields #{s}, #{t} is not invariant")
            lam_bracket = (sf.ZERO if zst.is_zero() else scaling_factor_unchecked(
                action, chi, cc.lie_derivative_multivector(zst, chi)))
            residual = fields[s].apply(lams[t]) - fields[t].apply(lams[s]) - lam_bracket
            pairs.append((s, t, residual))
    return IntegrabilityResult(pairs)


def rescale_verify(action, chi0, k_candidate, fields, sample_points=()):
    """Does chi = K * chi0 satisfy L_Z chi = 0 for each supplied Z?

    K must be a nonzero invariant scalar; the check is the exact residual of
    the rescaled derivative, equivalent to Z(K) + K * lambda_Z = 0.
    """
    k = sf.normalize(k_candidate)
    if k.is_zero():
        raise InvalidInput("rescaling by zero leaves no nonvanishing chain")
    if not _invariant_scalar(action, k):
        raise InvalidInput("rescaling function is not invariant")
    _require_invariant_vertical_chain(action, chi0, sample_points)
    return stability_check(action, chi0.scaled(k), fields)


class SurjectivityResult(_Record):
    def __init__(self, ok, pairing, invariance):
        self.ok = ok
        self.pairing = pairing
        self.invariance = invariance


def surjectivity_certificate(action, chi, alpha, sample_points=()):
    """Certificate alpha(chi) = 1 with alpha invariant."""
    _require_invariant_vertical_chain(action, chi, sample_points)
    if alpha.degree != chi.degree:
        raise InvalidInput(f"certificate form must have degree {chi.degree}")
    paired = cc.interior_multivector(chi, alpha)
    value = paired.coefficient(())
    inv = check_invariant_form(action, alpha)
    return SurjectivityResult(sf.equals(value, 1) and inv.ok, value, inv)


UNOBSTRUCTED = "locally unobstructed"
NO_INVARIANT_CHAIN = "no invariant chain can exist"
NO_COCHAIN_MAP = "no cochain map can exist"


class PointObstruction(_Record):
    def __init__(self, isotropy_dim, relative_dim, cohomology_dim):
        self.isotropy_dim = isotropy_dim
        self.relative_dim = relative_dim      # dim of degree-q relative forms of the isotropy
        self.cohomology_dim = cohomology_dim  # dim of degree-q relative cohomology


class CochainReport(_Record):
    def __init__(self, points, verdict):
        self.points = points
        self.verdict = verdict

    @property
    def ok(self):
        return self.verdict == UNOBSTRUCTED


def obstruction_report(action, sample_points, component_reps=()):
    """Per-point isotropy cohomology in the orbit degree, with the verdict:
    a vanishing relative space forbids any invariant chain, a vanishing
    cohomology forbids any cochain map.  The component matrices, in the
    algebra, join the isotropy subgroup at every point."""
    q = action.orbit_dim
    results = []
    verdict = UNOBSTRUCTED
    for point in sample_points:
        basis = isotropy_algebra_at(action, point)
        sub = SubgroupSpec.from_vectors(basis, component_reps)
        h = relative_cohomology(action.algebra, sub, q)
        a_dim = h.relative_dims[q]
        results.append(PointObstruction(len(basis), a_dim, h.dimension))
        if a_dim == 0:
            verdict = NO_INVARIANT_CHAIN
        elif h.dimension == 0 and verdict != NO_INVARIANT_CHAIN:
            verdict = NO_COCHAIN_MAP
    return CochainReport(results, verdict)
