"""ce_spectrum: relative Chevalley-Eilenberg cohomology over a fixed list of
(algebra, subgroup, degree) cases, each computed twice: on the algebra as
written and on a copy transported along a seeded random basis change.

Time goes to lie_cohomology and linalg on sparse rational systems; no
scalar_field arithmetic is involved.  The seed picks the basis changes only,
so that the cost of a round and the size of its output hardly depend on it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from common import (Job, half_turn_adjoint, lie_algebra_dsl, mat_mul, random_basis_change,
                    so_basis, so_table, subgroup_dsl, transport_table)
from liecochain import dsl
from liecochain import lie_cohomology as lc

# (algebra, subgroup, degrees).  A pair listed with every degree 0..dim also
# gets the Euler-characteristic check.  so(5) stops at degree 2 and so(4)/circle
# at 2, and so(4)/so(3) is left out: their next degrees take 0.2-3 s each, and
# a short round (many rounds per run) is what keeps the fastest times steady.
CASES = [
    ("so3", "triv", range(0, 4)),
    ("so3", "circle", range(0, 4)),
    ("so3", "o2", range(0, 4)),
    ("so4", "triv", range(0, 7)),
    ("so4", "circle", range(0, 3)),
    ("so5", "triv", range(0, 3)),
    ("h3", "triv", range(0, 4)),
    ("ab", "triv", None),
    ("ab", "circle", None),
    ("aff1", "triv", range(0, 3)),
]


ABELIAN_DIM = 4


def _tables():
    """name -> (dim, structure constants, {subgroup: (span, components)})."""
    out = {}
    for n in (3, 4, 5):
        dim, table = so_table(n)
        pairs = so_basis(n)
        subs = {"triv": ((), ())}
        if n < 5:
            subs["circle"] = ((pairs.index((0, 1)),), ())
        if n == 3:
            subs["o2"] = ((pairs.index((0, 1)),), (half_turn_adjoint(n),))
        out[f"so{n}"] = (dim, table, subs)
    out["h3"] = (3, {(0, 1): {2: Fraction(1)}}, {"triv": ((), ())})
    out["ab"] = (ABELIAN_DIM, {}, {"triv": ((), ()), "circle": ((0,), ())})
    out["aff1"] = (2, {(0, 1): {1: Fraction(-1)}}, {"triv": ((), ())})
    return out


def expected_betti(alg, sub, dim):
    """Known Betti numbers of the pair, by degree, or None."""
    known = {
        ("so3", "triv"): [1, 0, 0, 1],
        ("so3", "circle"): [1, 0, 1, 0],          # S^2
        ("so3", "o2"): [1, 0, 0, 0],              # RP^2
        ("so4", "triv"): [1, 0, 0, 2, 0, 0, 1],   # (1 + t^3)^2
        ("so4", "circle"): [1, 0, 1, 1, 0, 1, 0],  # S^2 x S^3
        ("so5", "triv"): [1, 0, 0, 1],
        ("h3", "triv"): [1, 2, 2, 1],
        ("aff1", "triv"): [1, 1, 0],
    }
    if alg == "ab":
        k = dim - (1 if sub == "circle" else 0)
        return [comb(k, r) for r in range(dim + 1)]
    return known.get((alg, sub))


def generate(seed):
    """Workspace texts by name, and the plan the jobs are built from."""
    rng = random.Random(seed)
    tables = _tables()
    blocks, plan = [], {"cases": []}
    for alg, (dim, table, subs) in tables.items():
        pure = {i for span, _ in subs.values() for i in span}
        p, p_inv, perm = random_basis_change(rng, dim, pure)
        t_table = transport_table(dim, table, p, p_inv)
        blocks.append(lie_algebra_dsl(alg, dim, table))
        blocks.append(lie_algebra_dsl(f"{alg}_t", dim, t_table))
        for sub, (span, comps) in subs.items():
            if sub == "triv":
                continue
            blocks.append(subgroup_dsl(f"{alg}_{sub}", alg, span, comps))
            t_span = tuple(sorted(perm.index(i) for i in span))
            t_comps = [mat_mul(mat_mul(p_inv, m), p) for m in comps]
            blocks.append(subgroup_dsl(f"{alg}_t_{sub}", f"{alg}_t", t_span, t_comps))
    for alg, sub, degrees in CASES:
        dim = tables[alg][0]
        for degree in (range(dim + 1) if degrees is None else degrees):
            plan["cases"].append({"alg": alg, "sub": sub, "degree": degree, "dim": dim})
    return {"ce_spectrum.lch": "\n".join(blocks) + "\n"}, plan



def make_jobs(workspaces, plan):
    ws, = workspaces.values()
    jobs = []
    for case in plan["cases"]:
        for alg in (case["alg"], case["alg"] + "_t"):
            algebra = ws.lie_algebras[alg]
            sub = (lc.SubgroupSpec.trivial() if case["sub"] == "triv"
                   else ws.subgroups[f"{alg}_{case['sub']}"].spec)
            degree = case["degree"]
            jobs.append(Job(
                f"{alg}/{case['sub']}/H{degree}",
                lambda algebra=algebra, sub=sub, degree=degree:
                    lc.relative_cohomology(algebra, sub, degree),
                lambda res: "\n".join(dsl.altform_dsl(r) for r in res.representatives),
                dict(case, algebra=algebra, spec=sub, transported=alg.endswith("_t"))))
    return jobs


def _representative_problems(job, res):
    algebra, sub, degree = job.meta["algebra"], job.meta["spec"], job.meta["degree"]
    if len(res.representatives) != res.dimension:
        return f"{len(res.representatives)} representatives for H = {res.dimension}"
    for rep in res.representatives:
        if rep.is_zero():
            return "zero representative"
        if degree < algebra.dim and not lc.ce_differential(algebra, rep).is_zero():
            return f"representative {dsl.altform_dsl(rep)} is not closed"
        for v in sub.basis:
            if degree >= 1 and not lc.interior(v, rep).is_zero():
                return f"representative {dsl.altform_dsl(rep)} is not horizontal"
            if not lc.infinitesimal_action(algebra, v, rep).is_zero():
                return f"representative {dsl.altform_dsl(rep)} is not invariant"
        for m in sub.component_reps:
            if lc.coadjoint_matrix_action(m, rep) != rep:
                return f"representative {dsl.altform_dsl(rep)} is not fixed by a component"
    return None


def check(jobs, outputs, plan):
    """Failed job index -> reason."""
    failed = {}
    by_key = {}
    for i, (job, res) in enumerate(zip(jobs, outputs)):
        m = job.meta
        by_key[(m["alg"], m["sub"], m["degree"], m["transported"])] = (i, res)
        problem = _representative_problems(job, res)
        betti = expected_betti(m["alg"], m["sub"], m["dim"])
        if problem is None and betti is not None and res.dimension != betti[m["degree"]]:
            problem = f"H = {res.dimension}, expected {betti[m['degree']]}"
        if problem:
            failed[i] = problem
    for (alg, sub, degree, transported), (i, res) in by_key.items():
        if not transported or (alg, sub, degree, False) not in by_key:
            continue
        _, base = by_key[(alg, sub, degree, False)]
        if (res.dimension, res.relative_dims[degree]) != (base.dimension,
                                                          base.relative_dims[degree]):
            failed.setdefault(i, "dimensions changed under the basis change")
    dims = {job.meta["alg"]: job.meta["dim"] for job in jobs}
    for alg, sub, transported in {(a, s, t) for (a, s, _, t) in by_key}:
        keys = [(alg, sub, r, transported) for r in range(dims[alg] + 1)]
        if not all(k in by_key for k in keys):
            continue
        chi_a = sum((-1) ** r * by_key[k][1].relative_dims[r] for r, k in enumerate(keys))
        chi_h = sum((-1) ** r * by_key[k][1].dimension for r, k in enumerate(keys))
        if chi_a != chi_h:
            for k in keys:
                failed.setdefault(by_key[k][0], f"Euler characteristic {chi_a} != {chi_h}")
    return failed
