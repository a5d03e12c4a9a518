"""chart_swell: chart calculus whose rational coefficients grow.

so(3) rotates R^3; the chain is chi = r^-2 (x Dy^Dz - y Dx^Dz + z Dx^Dy) and
the radial fields are R_k = r^-2k E with E the Euler field.  The jobs call
scaling_factor, stability_check, cochain_condition_check and evaluation_map
on that action, run chains of partial derivatives of 1/r^2k, raise
(x + y + 1) to growing powers, and repeat the calls on the solvable action
(a, b).(x, y, z) = (ax + b, ay, z) with coefficients that are rational
functions of z.  Time goes to scalar_field under chart_calculus; linalg is
not involved.

Expected values are closed forms worked out by hand (written next to each
job) and evaluated exactly at seeded rational points in plain Fraction
arithmetic; derivatives are checked against sympy in a child process.
The seed picks points, the order of the partial derivatives (a permutation,
so the cost stays the same) and the coefficients of the rational functions.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb

from common import Job, frac_dsl, random_rational_function, rational_function_dsl
from liecochain import action_analysis as aa
from liecochain import chart_calculus as cc
from liecochain import dsl
from liecochain import scalar_field as sf

RADIAL_K = (0, 1)               # R_k = r^-2k E; k = 2 takes 18 s today
SIGMA_M = (-2, -1, 0, 1)        # sigma_m = r^2m (x dy^dz - y dx^dz + z dx^dy)
VOLUME_M = (-2, -1, 1)          # vol_m = r^2m dx^dy^dz
PARTIAL_K = (1, 2)              # chains of four partials of 1/r^2k
POWERS = (20, 30)               # (x + y + 1)^n
SOLVABLE_DEGREES = (1, 2)       # degree of the rational coefficients in z
N_POINTS = 2

R2 = "(x^2 + y^2 + z^2)"
SIGMA = "(x*d(y)^d(z) - y*d(x)^d(z) + z*d(x)^d(y))"


def _r_power(m):
    """r^2m in workspace syntax."""
    if m == 0:
        return "1"
    return f"{R2}^{m}" if m > 0 else f"1/{R2}^{-m}"


def _poly_value(coeffs, z):
    return sum((c * z ** i for i, c in enumerate(coeffs)), Fraction(0))


def _poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:] or [0]


def _rf_value(rf, z):
    return _poly_value(rf[0], z) / _poly_value(rf[1], z)


def _rf_derivative_value(rf, z):
    n, d = rf
    nz, dz = _poly_value(n, z), _poly_value(d, z)
    dn, dd = _poly_value(_poly_derivative(n), z), _poly_value(_poly_derivative(d), z)
    return (dn * dz - nz * dd) / dz ** 2


def _random_point(rng):
    while True:
        p = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3))
        if any(p):
            return p


def generate(seed):
    """Workspace texts by name, and the plan the jobs are built from."""
    rng = random.Random(seed)
    lines = [
        "chart M { coords = [x, y, z] }",
        "lie_algebra so3 {\n  dim 3\n  bracket [1,2] = e3\n  bracket [1,3] = -e2\n"
        "  bracket [2,3] = e1\n}",
        "vectorfield r1 on M = -z*D(y) + y*D(z)",
        "vectorfield r2 on M = z*D(x) - x*D(z)",
        "vectorfield r3 on M = y*D(x) - x*D(y)",
        "action rot { algebra so3 chart M generators = [r1, r2, r3] orbit_dim 2 }",
        f"chain chi on M = 1/{R2}*(x*D(y)^D(z) - y*D(x)^D(z) + z*D(x)^D(y))",
    ]
    for k in RADIAL_K:
        lines.append(f"vectorfield R{k} on M = {_r_power(-k)}*(x*D(x) + y*D(y) + z*D(z))")
    for m in SIGMA_M:
        lines.append(f"form sigma{m + 2} on M = {_r_power(m)}*{SIGMA}")
    for m in VOLUME_M:
        lines.append(f"form vol{m + 2} on M = {_r_power(m)}*d(x)^d(y)^d(z)")

    # the solvable fixture's action, on a second chart
    lines += [
        "chart N { coords = [x, y, z] }",
        "lie_algebra solv2 {\n  dim 2\n  bracket [1,2] = -e2\n}",
        "vectorfield s1 on N = x*D(x) + y*D(y)",
        "vectorfield s2 on N = D(x)",
        "action solv { algebra solv2 chart N generators = [s1, s2] orbit_dim 2 }",
    ]
    solvable = []
    for d in SOLVABLE_DEGREES:
        k, f, g, h, phi = (random_rational_function(rng, d) for _ in range(5))
        rf = rational_function_dsl
        solvable.append({"degree": d, "K": k, "f": f, "g": g, "h": h, "phi": phi})
        lines += [
            f"chain chiK{d} on N = {rf(k)}*y^2*D(x)^D(y)",
            f"vectorfield Z{d} on N = {rf(f)}*y*D(x) + {rf(g)}*y*D(y) + {rf(h)}*D(z)",
            f"form omega{d} on N = {rf(phi)}/y*d(x)^d(z)",
            f"form eta{d} on N = {rf(phi)}/y^2*d(x)^d(y)",
        ]
    points = []
    while len(points) < N_POINTS:
        p = _random_point(rng)
        if all(_poly_value(s["K"][0], p[2]) != 0 for s in solvable) and p[1] != 0:
            points.append(p)
    order = ["x", "y", "z"]
    rng.shuffle(order)
    plan = {"points": points, "order": order + order[:1], "solvable": solvable}
    return {"chart_swell.lch": "\n".join(lines) + "\n"}, plan


# -- expected values ------------------------------------------------------------


def _r2(p):
    return p[0] ** 2 + p[1] ** 2 + p[2] ** 2


def _chi_coeffs(p):
    """chi's coefficients by index tuple."""
    r2 = _r2(p)
    return {(1, 2): p[0] / r2, (0, 2): -p[1] / r2, (0, 1): p[2] / r2}


def _radial_1form(p, scale):
    return {(i,): scale * p[i] for i in range(3)}


def make_jobs(workspaces, plan):
    ws, = workspaces.values()
    rot, chi = ws.actions["rot"].spec, ws.chains["chi"]
    jobs = []
    tensor = dsl.tensor_dsl

    for k in RADIAL_K:
        r = ws.vector_fields[f"R{k}"]
        # L_{fE} chi = f L_E chi (df is radial, chi is tangent to spheres) and
        # L_E chi = -3 chi, so lambda = -3 r^-2k.
        lam = lambda p, k=k: -3 / _r2(p) ** k
        jobs.append(Job(f"scaling_factor R{k}", lambda r=r: aa.scaling_factor(rot, chi, r),
                        sf.dsl_str, {"kind": "scalar", "expected": lam, "invariant_under": rot}))
        jobs.append(Job(f"stability R{k}",
                        lambda r=r: aa.stability_check(rot, chi, [r]).entries[0].residual,
                        tensor, {"kind": "tensor", "expected": lambda p, lam=lam: {
                            i: lam(p) * c for i, c in _chi_coeffs(p).items()}}))
    for m in SIGMA_M:
        om = ws.forms[f"sigma{m + 2}"]
        # d(r^2m sigma) = (2m + 3) r^2m vol, i_chi vol = r^-2 (x dx + y dy + z dz),
        # i_chi sigma = 1: the residual is 3 r^(2m-2) (x dx + y dy + z dz) and
        # rho = r^2m.
        jobs.append(Job(f"cochain sigma{m + 2}",
                        lambda om=om: aa.cochain_condition_check(rot, chi, om).residual, tensor,
                        {"kind": "tensor", "expected": lambda p, m=m:
                         _radial_1form(p, 3 * _r2(p) ** (m - 1))}))
        jobs.append(Job(f"rho sigma{m + 2}", lambda om=om: aa.evaluation_map(rot, chi, om),
                        lambda res: tensor(res.form),
                        {"kind": "rho", "expected": lambda p, m=m: {(): _r2(p) ** m}}))
    for m in VOLUME_M:
        om = ws.forms[f"vol{m + 2}"]
        # top degree: i_chi d = 0 and i_chi (r^2m vol) = r^(2m-2) (x dx + ...)
        # is closed, so the residual vanishes; rho is that 1-form.
        jobs.append(Job(f"cochain vol{m + 2}",
                        lambda om=om: aa.cochain_condition_check(rot, chi, om).residual, tensor,
                        {"kind": "tensor", "expected": lambda p: {}}))
        jobs.append(Job(f"rho vol{m + 2}", lambda om=om: aa.evaluation_map(rot, chi, om),
                        lambda res: tensor(res.form),
                        {"kind": "rho", "expected": lambda p, m=m:
                         _radial_1form(p, _r2(p) ** (m - 1))}))

    r2 = sf.coordinate("x") ** 2 + sf.coordinate("y") ** 2 + sf.coordinate("z") ** 2
    for k in PARTIAL_K:
        base = sf.ONE / r2 ** k

        def chain(base=base):
            out, e = [], base
            for c in plan["order"]:
                e = sf.partial(e, c)
                out.append(e)
            return out
        jobs.append(Job(f"partials 1/r^{2 * k}", chain,
                        lambda es: "\n".join(sf.dsl_str(e) for e in es),
                        {"kind": "partials", "sympy": f"1/(x**2 + y**2 + z**2)**{k}"}))
    base = sf.coordinate("x") + sf.coordinate("y") + sf.ONE
    for n in POWERS:
        jobs.append(Job(f"power {n}", lambda n=n: base ** n, sf.dsl_str,
                        {"kind": "power", "n": n}))

    solv = ws.actions["solv"].spec
    for s in plan["solvable"]:
        d = s["degree"]
        chi_k, z_field = ws.chains[f"chiK{d}"], ws.vector_fields[f"Z{d}"]
        omega, eta = ws.forms[f"omega{d}"], ws.forms[f"eta{d}"]
        kv = lambda p, s=s: _rf_value(s["K"], p[2])
        dk = lambda p, s=s: _rf_derivative_value(s["K"], p[2])
        phi = lambda p, s=s: _rf_value(s["phi"], p[2])
        # chi = K y^2 Dx^Dy, Z = f y Dx + g y Dy + h Dz: L_Z chi = (g + h K'/K) chi.
        lam = lambda p, s=s, dk=dk, kv=kv: (_rf_value(s["g"], p[2])
                                            + _rf_value(s["h"], p[2]) * dk(p) / kv(p))
        jobs.append(Job(f"scaling_factor Z{d}",
                        lambda c=chi_k, z=z_field: aa.scaling_factor(solv, c, z), sf.dsl_str,
                        {"kind": "scalar", "expected": lam, "invariant_under": solv}))
        jobs.append(Job(f"stability Z{d}",
                        lambda c=chi_k, z=z_field:
                            aa.stability_check(solv, c, [z]).entries[0].residual,
                        tensor, {"kind": "tensor", "expected": lambda p, lam=lam, kv=kv: {
                            (0, 1): lam(p) * kv(p) * p[1] ** 2}}))
        # omega = phi/y dx^dz: d omega = phi/y^2 vol, i_chi omega = 0, so the
        # residual is K phi dz.
        jobs.append(Job(f"cochain omega{d}",
                        lambda c=chi_k, w=omega: aa.cochain_condition_check(solv, c, w).residual,
                        tensor, {"kind": "tensor", "expected":
                                 lambda p, kv=kv, phi=phi: {(2,): kv(p) * phi(p)}}))
        # eta = phi/y^2 dx^dy: i_chi eta = K phi, i_chi d eta = K phi' dz, so
        # the residual is -K' phi dz and rho = K phi.
        jobs.append(Job(f"cochain eta{d}",
                        lambda c=chi_k, w=eta: aa.cochain_condition_check(solv, c, w).residual,
                        tensor, {"kind": "tensor", "expected":
                                 lambda p, dk=dk, phi=phi: {(2,): -dk(p) * phi(p)}}))
        jobs.append(Job(f"rho eta{d}", lambda c=chi_k, w=eta: aa.evaluation_map(solv, c, w),
                        lambda res: tensor(res.form),
                        {"kind": "rho",
                         "expected": lambda p, kv=kv, phi=phi: {(): kv(p) * phi(p)}}))
    return jobs


# -- checks -----------------------------------------------------------------------


def _coeff_values(obj, pt):
    return {idx: c.eval_at(pt) for idx, c in obj.coeffs.items()}


def _matches(obj, expected, pt):
    got = {i: v for i, v in _coeff_values(obj, pt).items() if v != 0}
    want = {i: v for i, v in expected.items() if v != 0}
    return got == want


def _sympy_values(jobs, plan):
    """Exact values of every partial derivative in the chains, from sympy,
    in a child process (sympy is imported only there)."""
    request = {"order": plan["order"],
               "points": [[frac_dsl(c) for c in p] for p in plan["points"]],
               "exprs": [j.meta["sympy"] for j in jobs if j.meta["kind"] == "partials"]}
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sympy_partials.py")
    done = subprocess.run([sys.executable, child], input=json.dumps(request),
                          capture_output=True, text=True, timeout=120, check=True)
    return [[[Fraction(v) for v in per_point] for per_point in per_expr]
            for per_expr in json.loads(done.stdout)]


def check(jobs, outputs, plan):
    failed = {}
    pts = [dict(zip("xyz", p)) for p in plan["points"]]
    reference = iter(_sympy_values(jobs, plan))
    for i, (job, out) in enumerate(zip(jobs, outputs)):
        m = job.meta
        problem = None
        if m["kind"] == "scalar":
            if not all(out.eval_at(pt) == m["expected"](p) for pt, p in zip(pts, plan["points"])):
                problem = "scaling factor differs from the closed form"
            elif any(not g.apply(out).is_zero() for g in m["invariant_under"].generators):
                problem = "a generator does not annihilate the scaling factor"
        elif m["kind"] in ("tensor", "rho"):
            form = out.form if m["kind"] == "rho" else out
            if m["kind"] == "rho" and not out.basic:
                problem = "rho is not certified basic"
            elif not all(_matches(form, m["expected"](p), pt)
                         for pt, p in zip(pts, plan["points"])):
                problem = "value differs from the closed form"
            elif isinstance(form, cc.DiffForm) and form.degree <= 1 and not \
                    cc.d_exterior(cc.d_exterior(form)).is_zero():
                problem = "d(d(form)) is not zero"
        elif m["kind"] == "partials":
            want = next(reference)
            for step, (e, values) in enumerate(zip(out, want)):
                if [e.eval_at(pt) for pt in pts] != values:
                    problem = f"partial {step + 1} differs from sympy"
                    break
        elif m["kind"] == "power":
            n = m["n"]
            if len(out.num) != comb(n + 2, 2) or out.den != sf.ONE.den:
                problem = "wrong number of terms"
            elif any(out.eval_at(pt) != (p[0] + p[1] + 1) ** n
                     for pt, p in zip(pts, plan["points"])):
                problem = "value differs"
        if problem:
            failed[i] = problem
    return failed
