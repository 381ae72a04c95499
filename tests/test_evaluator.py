"""Unit tests for plan evaluation (operators + environment + stats)."""

import pytest

from repro.errors import EvaluationError, UnknownDocumentError, UnknownSourceError
from repro.core.algebra.evaluator import Environment, SourceAdapter, evaluate
from repro.core.algebra.expressions import Const, FunCall, Var, eq
from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    DistinctOp,
    GroupOp,
    IntersectOp,
    JoinOp,
    LiteralOp,
    MapOp,
    ProjectOp,
    PushedOp,
    SelectOp,
    SortOp,
    SourceOp,
    TreeOp,
    UnionOp,
    UnitOp,
)
from repro.core.algebra.tab import Row, Tab
from repro.core.algebra.tree import CElem, CIterate, CLeaf
from repro.model.filters import FStar, FVar, felem
from repro.model.trees import atom_leaf, elem, ref
from repro.testing import FaultSchedule, FaultyWrapper, InjectedFaultError


class FakeSource(SourceAdapter):
    """A minimal in-memory source for evaluator tests."""

    def __init__(self, documents, index=None):
        self._documents = documents
        self._index = index or {}
        self.pushed_plans = []

    def document_names(self):
        return tuple(self._documents)

    def document(self, name):
        return self._documents[name]

    def ident_index(self):
        return self._index

    def execute_pushed(self, plan, outer=None):
        self.pushed_plans.append((plan, outer))
        tab = Tab(("x",), [Row(("x",), (1,))])
        return tab, "fake-native"


def literal(columns, rows):
    return LiteralOp(Tab(columns, [Row(columns, cells) for cells in rows]))


@pytest.fixture
def source():
    doc = elem(
        "works",
        elem("work", atom_leaf("title", "A"), atom_leaf("year", 1900)),
        elem("work", atom_leaf("title", "B"), atom_leaf("year", 1700)),
    )
    return FakeSource({"artworks": doc})


@pytest.fixture
def env(source):
    return Environment({"src": source})


def bind_plan():
    flt = felem(
        "works",
        FStar(felem("work", felem("title", FVar("t")), felem("year", FVar("y")))),
    )
    return BindOp(SourceOp("src", "artworks"), flt, on="artworks")


class TestSourceAndBind:
    def test_source_transfers_whole_document(self, env):
        tab = evaluate(SourceOp("src", "artworks"), env)
        assert len(tab) == 1
        assert env.stats.total_bytes_transferred > 0
        assert env.stats.source_calls["src"] == 1

    def test_unknown_source(self, env):
        with pytest.raises(UnknownSourceError):
            evaluate(SourceOp("ghost", "x"), env)

    def test_unknown_document(self, env):
        with pytest.raises(UnknownDocumentError):
            evaluate(SourceOp("src", "ghost"), env)

    def test_bind_rows(self, env):
        tab = evaluate(bind_plan(), env)
        assert sorted(row["t"] for row in tab) == ["A", "B"]

    def test_bind_drops_on_column_by_default(self, env):
        tab = evaluate(bind_plan(), env)
        assert tab.columns == ("t", "y")

    def test_bind_keep_on(self, env):
        plan = bind_plan()
        keep = BindOp(plan.input, plan.filter, on="artworks", keep_on=True)
        tab = evaluate(keep, env)
        assert tab.columns == ("artworks", "t", "y")

    def test_bind_on_collection_cell(self, env):
        fields = (atom_leaf("cplace", "Giverny"),)
        plan = BindOp(
            literal(("f",), [(fields,)]), felem("cplace", FVar("c")), on="f"
        )
        tab = evaluate(plan, env)
        assert [row["c"] for row in tab] == ["Giverny"]

    def test_bind_unknown_target_column(self, env):
        plan = BindOp(literal(("a",), [(1,)]), felem("x", FVar("v")), on="zzz")
        with pytest.raises(EvaluationError):
            evaluate(plan, env)

    def test_bind_dereferences_through_source_index(self):
        person = elem("class", elem("person", atom_leaf("name", "X")), ident="p1")
        doc = elem("owners", ref("class", "p1"))
        source = FakeSource({"d": doc}, index={"p1": person})
        env = Environment({"s": source})
        flt = felem(
            "owners",
            felem("class", felem("person", felem("name", FVar("n")))),
        )
        tab = evaluate(BindOp(SourceOp("s", "d"), flt, on="d"), env)
        assert [r["n"] for r in tab] == ["X"]


class TestRelationalOperators:
    def test_select(self, env):
        plan = SelectOp(literal(("x",), [(1,), (2,)]), eq(Var("x"), Const(2)))
        assert [r["x"] for r in evaluate(plan, env)] == [2]

    def test_project_renames(self, env):
        plan = ProjectOp(literal(("x", "y"), [(1, 2)]), [("y", "z")])
        tab = evaluate(plan, env)
        assert tab.columns == ("z",)
        assert tab.rows[0]["z"] == 2

    def test_join(self, env):
        plan = JoinOp(
            literal(("x",), [(1,), (2,)]),
            literal(("y",), [(2,), (3,)]),
            eq(Var("x"), Var("y")),
        )
        tab = evaluate(plan, env)
        assert len(tab) == 1
        assert tab.rows[0].as_dict() == {"x": 2, "y": 2}

    def test_djoin_outer_visibility(self, env):
        left = literal(("x",), [(1,), (2,)])
        right = SelectOp(literal(("y",), [(1,), (2,)]), eq(Var("y"), Var("x")))
        tab = evaluate(DJoinOp(left, right), env)
        assert len(tab) == 2
        assert all(row["x"] == row["y"] for row in tab)

    def test_union_distinct(self, env):
        plan = UnionOp(literal(("x",), [(1,), (2,)]), literal(("x",), [(2,), (3,)]))
        assert sorted(r["x"] for r in evaluate(plan, env)) == [1, 2, 3]

    def test_intersect(self, env):
        plan = IntersectOp(
            literal(("x",), [(1,), (2,)]), literal(("x",), [(2,), (3,)])
        )
        assert [r["x"] for r in evaluate(plan, env)] == [2]

    def test_distinct(self, env):
        plan = DistinctOp(literal(("x",), [(1,), (1,), (2,)]))
        assert len(evaluate(plan, env)) == 2

    def test_group_nests_remaining_columns(self, env):
        plan = GroupOp(
            literal(("a", "t"), [("m", 1), ("m", 2), ("n", 3)]),
            by=("a",),
            into="rows",
        )
        tab = evaluate(plan, env)
        assert tab.columns == ("a", "rows")
        first = tab.rows[0]
        assert first["a"] == "m"
        assert [r["t"] for r in first["rows"]] == [1, 2]

    def test_sort(self, env):
        plan = SortOp(literal(("x",), [(3,), (1,), (2,)]), by=("x",))
        assert [r["x"] for r in evaluate(plan, env)] == [1, 2, 3]

    def test_sort_descending(self, env):
        plan = SortOp(literal(("x",), [(1,), (2,)]), by=("x",), descending=True)
        assert [r["x"] for r in evaluate(plan, env)] == [2, 1]

    def test_map_with_function(self, env):
        env.functions["double"] = lambda v: v * 2
        plan = MapOp(literal(("x",), [(3,)]), [("y", FunCall("double", [Var("x")]))])
        assert evaluate(plan, env).rows[0]["y"] == 6

    def test_tree(self, env):
        plan = TreeOp(
            literal(("t",), [("A",), ("B",)]),
            CElem("doc", [CIterate(CLeaf("title", Var("t")))]),
            "result",
        )
        tab = evaluate(plan, env)
        doc = tab.rows[0]["result"]
        assert [c.atom for c in doc.children] == ["A", "B"]

    def test_unit(self, env):
        tab = evaluate(UnitOp(), env)
        assert len(tab) == 1
        assert tab.columns == ()

    def test_operator_stats_recorded(self, env):
        evaluate(SelectOp(literal(("x",), [(1,)]), eq(Var("x"), Const(1))), env)
        assert env.stats.operator_counts["Select"] == 1


class TestPushed:
    def test_pushed_records_transfer(self, env, source):
        tab = evaluate(PushedOp("src", bind_plan()), env)
        assert len(tab) == 1
        assert source.pushed_plans
        assert env.stats.rows_transferred["src"] == 1
        assert env.stats.operator_counts["Pushed"] == 1

    def test_pushed_receives_outer_row(self, env, source):
        left = literal(("k",), [(7,)])
        plan = DJoinOp(left, PushedOp("src", bind_plan()))
        evaluate(plan, env)
        _plan, outer = source.pushed_plans[-1]
        assert outer["k"] == 7


class CountingSource(FakeSource):
    """A :class:`FakeSource` that counts the documents it hands out."""

    def __init__(self, documents):
        super().__init__(documents)
        self.calls = 0

    def document(self, name):
        self.calls += 1
        return super().document(name)


class TestSerialShortCircuit:
    """Under the default (serial) policy a failing input ends its
    operator before a sibling input is evaluated at all."""

    @pytest.fixture
    def sources(self):
        dead = FakeSource({"a": elem("a")})
        dead.name = "dead"
        live = CountingSource({"a": elem("a"), "b": elem("b")})
        faulty = FaultyWrapper(dead, FaultSchedule().dead_source())
        return {"dead": faulty, "live": live}, live

    def test_a_failing_join_input_leaves_the_right_unread(self, sources):
        adapters, live = sources
        plan = JoinOp(SourceOp("dead", "a"), SourceOp("live", "b"), Const(True))
        with pytest.raises(InjectedFaultError):
            evaluate(plan, Environment(adapters))
        assert live.calls == 0

    def test_a_fail_fast_union_leaves_its_second_branch_unread(self, sources):
        adapters, live = sources
        plan = UnionOp(SourceOp("dead", "a"), SourceOp("live", "a"))
        with pytest.raises(InjectedFaultError):
            evaluate(plan, Environment(adapters))
        assert live.calls == 0
