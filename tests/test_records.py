"""What the package's record classes promise: `==` where values are
compared, `hash` and immutability where they are hashed, `<` where they are
sorted, and the checks their constructors make.  Nothing here depends on
how the classes are written."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from liecochain import action_analysis as aa
from liecochain import chart_calculus as cc
from liecochain import dsl
from liecochain import scalar_field as sf
from liecochain.lie_cohomology import LieAlgebra, SubgroupSpec, relative_cohomology

FIXTURES = Path(__file__).parent / "fixtures"
BENCH = Path(__file__).resolve().parent.parent / "bench"
M = cc.Chart(("x", "y"))
SO3 = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}})


def _fixture(name, source_name=None):
    return dsl.parse((FIXTURES / f"{name}.lch").read_text(), source_name or f"{name}.lch")


def _function_symbols():
    k0, k1 = sf.FunctionSymbol("K", ("z",), (0,)), sf.FunctionSymbol("K", ("z",), (1,))
    h = sf.FunctionSymbol("h", ("x", "y"), (0, 0))
    assert k0 == sf.FunctionSymbol("K", ("z",), (0,)) != k1
    assert hash(k0) == hash(sf.FunctionSymbol("K", ("z",), (0,)))
    assert len({k0, k1, h, sf.FunctionSymbol("K", ("z",), (0,))}) == 3
    assert sorted([h, k1, k0]) == [k0, k1, h]     # by name, then arguments, then orders
    assert k0.differentiate("z") == k1
    assert h.differentiate("y").differentiate("y") == sf.FunctionSymbol("h", ("x", "y"), (0, 2))


def _hashed_values():
    assert len({cc.Chart(("x", "y")), M, cc.Chart(("y", "x"))}) == 2
    assert SubgroupSpec() == SubgroupSpec.trivial() != SubgroupSpec(((1,),))
    assert hash(SubgroupSpec.from_vectors([[1, 0]])) == hash(SubgroupSpec(((1, 0),)))
    assert len({dsl.SourceSpan("f", 1, 2, 3), dsl.SourceSpan("f", 1, 2, 3)}) == 1
    assert dsl.SourceSpan("f", 1, 2, 3) != dsl.SourceSpan("f", 1, 3, 3)
    assert hash(dsl.SourceSpan("f", 1, 2, 3)) == hash(dsl.SourceSpan("f", 1, 2, 3))
    reps = (((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1))),)
    spec = SubgroupSpec.from_vectors([[1, 0]], [[[-1, 0], [0, 1]]])
    same = SubgroupSpec(((1, 0),), reps)
    assert spec == same and hash(spec) == hash(same)
    assert spec != SubgroupSpec(((1, 0),))


def _lie_algebras():
    """Algebras are equal when their dimension and brackets are, whatever
    type the constants were written in; zero constants are not brackets."""
    half = LieAlgebra(2, {(0, 1): {0: Fraction(1, 2)}})
    assert half == LieAlgebra(2, {(0, 1): {0: Fraction(2, 4), 1: 0}})
    assert SO3 == LieAlgebra(3, {(0, 1): {2: Fraction(1)}, (0, 2): {1: Fraction(-1)},
                                 (1, 2): {0: Fraction(1)}})
    assert SO3 != LieAlgebra(3, {(0, 1): {2: 2}, (0, 2): {1: -2}, (1, 2): {0: 2}})
    assert half != LieAlgebra(2, {(0, 1): {1: Fraction(1, 2)}}) != LieAlgebra(2)
    assert LieAlgebra(2) != LieAlgebra(3) and LieAlgebra(2) == LieAlgebra(2, {(0, 1): {}})


def _assign(make, attribute):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, attribute, None)


def _decls():
    """Declarations and workspaces compare by what was written, not by the
    source's name or the callbacks that build and locate them."""
    ws, other = _fixture("intro"), _fixture("intro", "elsewhere.lch")
    assert ws == other and ws.source_name != other.source_name
    act = ws.actions["act"]
    same = dsl.ActionDecl(act.algebra, act.chart, act.generators, act.orbit_dim, lambda: None)
    assert act.spec is act.spec and same == act
    assert dsl.ActionDecl(act.algebra, act.chart, act.generators, 1, act.build) != act
    check = ws.checks[1]
    assert dsl.CheckDecl(check.kind, check.values, lambda: None) == check
    assert dsl.CheckDecl("rho", {}, check.where) != check
    assert ws == other      # reading `spec` above changed neither side's value
    other.checks.pop()
    assert ws != other


def _results():
    """Two runs of one computation give equal results (the benchmark
    compares the results of its rounds with ==)."""
    so2 = SubgroupSpec.from_vectors([[0, 0, 1]])
    assert relative_cohomology(SO3, so2, 2) == relative_cohomology(SO3, so2, 2)
    assert relative_cohomology(SO3, so2, 2) != relative_cohomology(SO3, so2, 1)
    ws = _fixture("intro")
    act, chi, alpha = ws.actions["act"].spec, ws.chains["chi"], ws.forms["alpha"]
    assert aa.evaluation_map(act, chi, alpha) == aa.evaluation_map(act, chi, alpha)
    assert aa.Verdict(True) == aa.Verdict(True) != aa.Verdict(False)


def _residuals():
    """A condition holds exactly when its residual is zero."""
    ws = _fixture("intro")
    act, chi, r1 = ws.actions["act"].spec, ws.chains["chi"], ws.vector_fields["R1"]
    x_chi = chi.scaled(sf.coordinate("x"))
    for c, holds in ((chi, True), (x_chi, False)):
        res = aa.cochain_condition_check(act, c, ws.forms["alpha"])
        entry = aa.stability_check(act, c, [r1]).entries[0]
        assert res.ok == res.residual.is_zero() == entry.ok == entry.residual.is_zero() == holds


def _action_spec(generators, orbit_dim):
    return lambda: aa.ActionSpec(M, LieAlgebra(2), generators, orbit_dim)


DX = cc.vector_field(M, [sf.ONE, sf.ZERO])
DY = cc.vector_field(M, [sf.ZERO, sf.ONE])
DZ = cc.vector_field(cc.Chart(("x", "z")), [sf.ZERO, sf.ONE])

CASES = {
    "function-symbol-order": _function_symbols,
    "chart-immutable": lambda: _assign(lambda: cc.Chart(("x",)), "coordinates"),
    "function-symbol-immutable": lambda: _assign(
        lambda: sf.FunctionSymbol("K", ("z",), (0,)), "orders"),
    "subgroup-spec-immutable": lambda: _assign(SubgroupSpec, "basis"),
    "source-span-immutable": lambda: _assign(lambda: dsl.SourceSpan("f", 1, 2, 3), "line"),
    "scalar-expr-immutable": lambda: _assign(lambda: sf.coordinate("x"), "num"),
    "lie-algebras": _lie_algebras,
    "hashed-values": _hashed_values,
    "chart-empty": lambda: pytest.raises(ValueError, cc.Chart, ()),
    "chart-repeated": lambda: pytest.raises(ValueError, cc.Chart, ("x", "x")),
    "function-symbol-repeated": lambda: pytest.raises(
        ValueError, sf.FunctionSymbol, "K", ("z", "z"), (0, 0)),
    "function-symbol-empty": lambda: pytest.raises(
        ValueError, sf.FunctionSymbol, "K", (), ()),
    "function-symbol-orders": lambda: pytest.raises(
        ValueError, sf.FunctionSymbol, "K", ("z",), (0, 0)),
    "function-symbol-negative": lambda: pytest.raises(
        ValueError, sf.FunctionSymbol, "K", ("z",), (-1,)),
    "action-generators": lambda: pytest.raises(
        ValueError, _action_spec((DX,), 1)),
    "action-orbit-dim": lambda: pytest.raises(
        ValueError, _action_spec((DX, DY), 3)),
    "action-chart": lambda: pytest.raises(
        cc.ChartMismatch, _action_spec((DX, DZ), 1)),
    "declarations": _decls,
    "results": _results,
    "residuals": _residuals,
}


@pytest.mark.parametrize("case", CASES)
def test_record_behaviour(case):
    CASES[case]()


@pytest.mark.parametrize("workload", ["ce_spectrum", "chart_swell", "cli_workspaces"])
def test_benchmark_rounds_agree_and_pass_their_check(workload, monkeypatch):
    """The benchmark's own rules of correctness, which `bench/run.py` applies:
    for seed 12 each job's output in a second round is equal to its first,
    compared with `!=` as there, and the workload's check finds no fault."""
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module(workload)
    texts, plan = module.generate(12)
    jobs = module.make_jobs({name: dsl.parse(text, name) for name, text in texts.items()}, plan)
    first = [job.run() for job in jobs]
    assert [job.name for job, out in zip(jobs, first) if job.run() != out] == []
    assert module.check(jobs, first, plan) == {}
