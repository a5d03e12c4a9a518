"""What the package's record classes promise: `==` where values are
compared, `hash` and immutability where they are hashed, `<` where they are
sorted, and the checks their constructors make.  Nothing here depends on
how the classes are written."""

from pathlib import Path

import pytest

from liecochain import action_analysis as aa
from liecochain import chart_calculus as cc
from liecochain import dsl
from liecochain import scalar_field as sf
from liecochain.lie_cohomology import LieAlgebra, SubgroupSpec, relative_cohomology

FIXTURES = Path(__file__).parent / "fixtures"
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
}


@pytest.mark.parametrize("case", CASES)
def test_record_behaviour(case):
    CASES[case]()
