"""Set-valued information passing: one pushed call per DJoin.

The paper's DJoin calls the inner source once per outer row (Section
5.3); the engine ships all distinct outer bindings in one call and
re-expands the answer by key.  ``ExecutionPolicy.serial()`` keeps the
per-row nested loop and is the oracle here: every test compares the two
byte for byte, then counts the calls.
"""

import sqlite3

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ExecutionPolicy,
    Mediator,
    O2Wrapper,
    ResiliencePolicy,
    RetryPolicy,
    SqlWrapper,
    WaisWrapper,
)
from repro.core.algebra.expressions import Cmp, Const, Var, conjunction, eq
from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    LiteralOp,
    ProjectOp,
    PushedOp,
    SelectOp,
    SourceOp,
)
from repro.core.algebra.tab import Row, Tab, tab_to_xml
from repro.datasets import CulturalDataset, Q2, VIEW1_YAT
from repro.mediator.execution import run_plan
from repro.model.filters import FStar, FVar, felem
from repro.model.trees import atom_leaf, elem
from repro.observability.metrics import MetricsRegistry, record_execution
from repro.sources.objectdb import (
    AtomicType,
    ClassDef,
    ObjectDatabase,
    Schema,
    TupleType,
    evaluate_oql,
    parse_oql,
)
from repro.sources.relational import SqlColumn, SqlDatabase, SqlTable
from repro.sources.sharded import ReplicaSet
from repro.testing import FaultSchedule, FaultyWrapper, VirtualClock

from tests.conftest import transfer, wan_ms

SERIAL = ExecutionPolicy.serial()

# Items whose ``code`` mixes ints and floats under one Float attribute, so
# that outer keys 5 / 5.0 / True / "5" land on, beside and between them.
ITEMS = [
    (5, "x", "five-a"), (5.0, "y", "five-b"), (1, "x", "one"),
    (2.5, "x", "half"), (0, "y", "zero"), (5, "x", "five-c"), (7, "z", "seven"),
    (2**53 + 1, "x", "big"),
]
KEY_POOL = [
    5, 5.0, True, False, 1, 1.0, 0, 2.5, "5", "x", "y", 42, "none",
    2**53, 2**53 + 1,  # one float, two keys
]


@pytest.fixture(scope="module")
def o2():
    schema = Schema("inventory")
    schema.add_class(
        ClassDef(
            "item",
            TupleType([
                ("code", AtomicType("Float")),
                ("tag", AtomicType("String")),
                ("label", AtomicType("String")),
            ]),
            extent="items",
        )
    )
    database = ObjectDatabase(schema)
    for code, tag, label in ITEMS:
        database.insert("item", {"code": code, "tag": tag, "label": label})
    return O2Wrapper("o2", database)


def o2_fragment(pairs, project=None):
    """``[Project] Select(passed equalities) Bind(items)`` keyed on *pairs*."""
    flt = felem(
        "set",
        FStar(felem("class", felem("item", felem(
            "tuple",
            felem("code", FVar("c")), felem("tag", FVar("g")),
            felem("label", FVar("l")),
        )))),
    )
    plan = SelectOp(
        BindOp(SourceOp("o2", "items"), flt, on="items"),
        conjunction([eq(Var(column), Var(variable)) for column, variable in pairs]),
    )
    if project is not None:
        plan = ProjectOp.keep(plan, project)
    return PushedOp("o2", plan, keyed=pairs)


def literal(columns, rows):
    return LiteralOp(Tab(columns, [Row(columns, cells) for cells in rows]))


def both(plan, adapters):
    """(default report, serial report), asserted byte-identical."""
    fast = run_plan(plan, adapters)
    oracle = run_plan(plan, adapters, execution=SERIAL)
    assert tab_to_xml(fast.tab) == tab_to_xml(oracle.tab)
    return fast, oracle


# -- (i) the differential, through O2 -----------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(KEY_POOL), max_size=12))
def test_single_column_keys_equal_the_nested_loop(o2, keys):
    plan = DJoinOp(
        literal(("k", "n"), [(key, index) for index, key in enumerate(keys)]),
        o2_fragment((("c", "k"),)),
    )
    fast, oracle = both(plan, {"o2": o2})
    assert oracle.stats.source_calls["o2"] == len(keys)
    # Duplicates and 5 / 5.0 / True-style twins are one binding; a lone
    # binding needs no set, and strings beside numbers are never one.
    distinct = len(set(keys))
    if distinct > 1 and len({isinstance(key, str) for key in keys}) == 1:
        assert fast.stats.source_calls["o2"] == 1
        assert fast.stats.passed_keys == distinct
        assert fast.stats.batched_calls == len(keys) - 1
    else:
        assert fast.stats.passed_keys == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from([5, 5.0, 1, 0, 9]), st.sampled_from(["x", "y", "q"])),
    max_size=10,
))
def test_multi_column_keys_equal_the_nested_loop(o2, keys):
    plan = DJoinOp(
        literal(("k", "h"), keys), o2_fragment((("c", "k"), ("g", "h")))
    )
    fast, _oracle = both(plan, {"o2": o2})
    if len(set(keys)) > 1:
        assert fast.stats.source_calls["o2"] == 1


def test_passed_set_is_one_replayable_oql_text(o2):
    plan = DJoinOp(
        literal(("k", "h"), [(5, "x"), (1, "x"), (5.0, "x"), (9, "q")]),
        o2_fragment((("c", "k"), ("g", "h"))),
    )
    fast, _oracle = both(plan, {"o2": o2})
    ((_source, native),) = fast.stats.native_queries
    assert native.endswith(
        "where ((R1.code = 5) and (R1.tag = \"x\")) or "
        "((R1.code = 1) and (R1.tag = \"x\")) or "
        "((R1.code = 9) and (R1.tag = \"q\"))"
    )
    assert parse_oql(native).text() == native
    assert len(evaluate_oql(native, o2._db)) == len(fast.tab) - 2  # (5, x) twice
    assert fast.stats.batched_calls == 3 and fast.stats.passed_keys == 3


def test_projected_away_key_column_falls_back_to_per_key_calls(o2):
    plan = DJoinOp(
        literal(("k",), [(5,), (1,), (5,), (2.5,)]),
        o2_fragment((("c", "k"),), project=("l",)),
    )
    fast, _oracle = both(plan, {"o2": o2})
    assert fast.stats.source_calls["o2"] == 3  # one per distinct key
    assert fast.stats.passed_keys == 0


def test_tree_cell_key_is_passed_per_binding(o2):
    tree = elem("code", atom_leaf("value", 5))
    plan = DJoinOp(
        literal(("k",), [(5,), (tree,), (1,)]), o2_fragment((("c", "k"),))
    )
    fast, _oracle = both(plan, {"o2": o2})
    assert fast.stats.source_calls["o2"] == 3
    assert fast.stats.passed_keys == 0


def test_unkeyed_fragment_and_mediator_side_right_input_keep_per_key_calls(o2):
    keyed = o2_fragment((("c", "k"),))
    left = literal(("k",), [(5,), (1,), (5,)])
    unkeyed = PushedOp("o2", keyed.plan)
    fast, _oracle = both(DJoinOp(left, unkeyed), {"o2": o2})
    assert fast.stats.source_calls["o2"] == 2
    # A Select above the fragment that reads the left row pins it too.
    guarded = SelectOp(keyed, Cmp("!=", Var("l"), Var("k")))
    fast, _oracle = both(DJoinOp(left, guarded), {"o2": o2})
    assert fast.stats.source_calls["o2"] == 2 and fast.stats.passed_keys == 0


def test_mediator_side_select_over_the_fragment_runs_once_over_the_set(o2):
    plan = DJoinOp(
        literal(("k",), [(5,), (1,), (0,)]),
        SelectOp(o2_fragment((("c", "k"),)), Cmp("!=", Var("l"), Const("one"))),
    )
    fast, _oracle = both(plan, {"o2": o2})
    assert fast.stats.source_calls["o2"] == 1
    assert fast.stats.operator_counts["Select"] == 1


# -- (ii) the same property through SQL, past the engine's variable limit ----------


def make_sales():
    database = SqlDatabase("salesdb")
    database.create_table(SqlTable("sales", [
        SqlColumn("title", "String"), SqlColumn("creator", "String"),
        SqlColumn("price", "Float"),
    ]))
    database.insert_rows("sales", [
        {"title": f"Work {i % 9}", "creator": f"Artist {i % 4}", "price": 10.0 * i}
        for i in range(30)
    ])
    return database


@pytest.fixture
def sales():
    database = make_sales()
    yield database
    database.close()


def sql_fragment():
    flt = felem("rows", FStar(felem(
        "row", felem("title", FVar("t")), felem("creator", FVar("c")),
        felem("price", FVar("p")),
    )))
    plan = SelectOp(
        SelectOp(
            BindOp(SourceOp("salesdb", "sales"), flt, on="sales"),
            Cmp("<", Var("p"), Const(250.0)),
        ),
        conjunction([eq(Var("t"), Var("t2")), eq(Var("c"), Var("c2"))]),
    )
    return PushedOp("salesdb", plan, keyed=(("t", "t2"), ("c", "c2")))


@pytest.mark.skipif(
    not hasattr(sqlite3.Connection, "setlimit"), reason="needs Python >= 3.11"
)
@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 10).map("Work {}".format),
              st.integers(0, 4).map("Artist {}".format)),
    min_size=6, max_size=16, unique=True,
))
def test_sql_keys_split_only_at_the_engines_variable_limit(keys):
    database = make_sales()
    try:
        database._connection.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 9)
        plan = DJoinOp(literal(("t2", "c2"), keys + keys[:2]), sql_fragment())
        fast, oracle = both(plan, {"salesdb": SqlWrapper("salesdb", database)})
        assert oracle.stats.source_calls["salesdb"] == len(keys) + 2
        assert fast.stats.source_calls["salesdb"] == 1
        # 9 variables, 1 taken by the price constant: 4 two-column keys each.
        ((_source, native),) = fast.stats.native_queries
        assert native.count("IN (VALUES") == -(-len(keys) // 4)
    finally:
        database.close()


class _ConnectionWithoutGetlimit:
    """What ``sqlite3.Connection`` offers on Python 3.10."""

    def __init__(self, connection, compile_options=None):
        self._connection = connection
        self._compile_options = compile_options

    def execute(self, sql, *parameters):
        if sql == "PRAGMA compile_options" and self._compile_options is not None:
            return self._connection.execute(
                "SELECT ?" + " UNION ALL SELECT ?" * (len(self._compile_options) - 1),
                self._compile_options,
            )
        return self._connection.execute(sql, *parameters)

    def close(self):
        self._connection.close()


def test_variable_limit_without_getlimit_is_the_engines_compile_option(sales):
    keys = [("Work 1", "Artist 1"), ("Work 2", "Artist 2"), ("Work 3", "Artist 3")]
    plan = DJoinOp(literal(("t2", "c2"), keys), sql_fragment())
    real = sales._connection
    # The real PRAGMA: the limit this build was compiled with, where the
    # run-time one starts (a build that does not state it reports none) ...
    sales._connection = _ConnectionWithoutGetlimit(real)
    if hasattr(real, "getlimit"):
        assert sales.variable_limit() in (
            None, real.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
        )
    # ... a lower one splits exactly there: 5 variables, 1 taken by the
    # price constant, so two two-column keys per statement ...
    sales._connection = _ConnectionWithoutGetlimit(
        real, ["ENABLE_FTS5", "MAX_VARIABLE_NUMBER=5", "THREADSAFE=1"]
    )
    assert sales.variable_limit() == 5
    fast, _oracle = both(plan, {"salesdb": SqlWrapper("salesdb", sales)})
    ((_source, native),) = fast.stats.native_queries
    assert native.count("IN (VALUES") == 2
    # ... and an engine that reports none gets no guessed one: one statement.
    sales._connection = _ConnectionWithoutGetlimit(real, ["THREADSAFE=1"])
    assert sales.variable_limit() is None
    fast, _oracle = both(plan, {"salesdb": SqlWrapper("salesdb", sales)})
    ((_source, native),) = fast.stats.native_queries
    assert native.count("IN (VALUES") == 1 and fast.stats.source_calls["salesdb"] == 1


def test_sql_set_under_the_limit_is_one_statement(sales):
    keys = [("Work 1", "Artist 1"), ("Work 2", "Artist 2"), ("Work 1", "Artist 1")]
    plan = DJoinOp(literal(("t2", "c2"), keys), sql_fragment())
    fast, _oracle = both(plan, {"salesdb": SqlWrapper("salesdb", sales)})
    ((_source, native),) = fast.stats.native_queries
    assert native.startswith(
        "SELECT title AS t, creator AS c, price AS p FROM sales WHERE "
        "price < ? AND (title, creator) IN (VALUES (?, ?), (?, ?)) -- params"
    )


# sqlite compares by column affinity: the key 5 equals the TEXT cell '5',
# the key '10.0' equals the REAL cell 10.0.  The mediator's ``=`` relates
# neither pair, so such an answer must not be partitioned with it.
MIXED_SALES = [
    ("5", 10.0), ("7", 10.0), ("x", 20.0), ("5.0", 5.0), ("10", 7.0),
    (str(2**53 + 1), 1.0), ("5", 20.0),
]
MIXED_KEYS = [
    5, 7, "5", "x", 5.0, "5.0", "10.0", "10", 10, 20, 20.0, True, "1", 1,
    2**53, 2**53 + 1, str(2**53 + 1), "none", 42,
]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["t", "p"]), st.lists(st.sampled_from(MIXED_KEYS), max_size=8))
def test_sql_keys_of_another_type_than_the_column_equal_the_nested_loop(column, keys):
    database = SqlDatabase("salesdb")
    try:
        database.create_table(SqlTable("sales", [
            SqlColumn("title", "String"), SqlColumn("price", "Float"),
        ]))
        database.insert_rows(
            "sales", [{"title": t, "price": p} for t, p in MIXED_SALES]
        )
        flt = felem("rows", FStar(felem(
            "row", felem("title", FVar("t")), felem("price", FVar("p")),
        )))
        plan = DJoinOp(
            literal(("k", "n"), [(key, index) for index, key in enumerate(keys)]),
            PushedOp(
                "salesdb",
                SelectOp(
                    BindOp(SourceOp("salesdb", "sales"), flt, on="sales"),
                    eq(Var(column), Var("k")),
                ),
                keyed=((column, "k"),),
            ),
        )
        fast, oracle = both(plan, {"salesdb": SqlWrapper("salesdb", database)})
        assert oracle.stats.source_calls["salesdb"] == len(keys)
        # Keys of the column's own type are still one call.
        kind = str if column == "t" else (int, float)
        if all(isinstance(key, kind) for key in keys) and len(set(keys)) > 1:
            assert fast.stats.source_calls["salesdb"] == 1
    finally:
        database.close()


def test_an_answer_of_another_kind_than_the_keys_is_not_partitioned(sales):
    """The reviewer's case, pinned: int keys against a String column."""
    sales.insert_rows("sales", [
        {"title": "5", "creator": "Artist 0", "price": 1.0},
        {"title": "7", "creator": "Artist 0", "price": 2.0},
    ])
    flt = felem("rows", FStar(felem(
        "row", felem("title", FVar("t")), felem("price", FVar("p")),
    )))
    fragment = PushedOp(
        "salesdb",
        SelectOp(
            BindOp(SourceOp("salesdb", "sales"), flt, on="sales"),
            eq(Var("t"), Var("k")),
        ),
        keyed=(("t", "k"),),
    )
    plan = DJoinOp(literal(("k",), [(5,), (7,), (9,)]), fragment)
    fast, _oracle = both(plan, {"salesdb": SqlWrapper("salesdb", sales)})
    assert len(fast.tab) == 2
    # One set call whose answer came back as strings, then one per key.
    assert fast.stats.source_calls["salesdb"] == 4


# -- (iii) E3 as counters: no crossover left ------------------------------------------


def federation(fraction, n=150, wrap=lambda wrapper: wrapper, **options):
    database, store = CulturalDataset(
        n_artifacts=n, impressionist_fraction=fraction, seed=6
    ).build()
    mediator = Mediator(**options)
    mediator.connect(wrap(O2Wrapper("o2artifact", database)))
    mediator.connect(wrap(WaisWrapper("xmlartwork", store)))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


#: EXPERIMENTS E3: impressionist fraction -> (bytes, calls) of the default
#: set-valued plan, the paper's per-row plan (``serial()``) and the bulk
#: join (rounds 1-2).
E3_TRANSFER = {
    0.05: ((2_209, 2), (2_317, 6), (56_709, 2)),
    0.3: ((17_768, 2), (18_848, 42), (66_787, 2)),
    0.9: ((55_695, 2), (59_166, 131), (91_681, 2)),
}


@pytest.mark.parametrize("fraction", sorted(E3_TRANSFER))
def test_e3_default_plan_makes_two_calls_and_never_loses(fraction):
    mediator = federation(fraction)
    default = mediator.query(Q2)
    per_row = mediator.query(Q2, execution=SERIAL)
    bulk = mediator.query(Q2, rounds=(1, 2))
    assert default.document() == per_row.document() == bulk.document()
    assert any(isinstance(node, DJoinOp) for node in default.plan.walk())
    assert tuple(
        transfer(result) for result in (default, per_row, bulk)
    ) == E3_TRANSFER[fraction]
    assert wan_ms(default.report.stats) <= wan_ms(per_row.report.stats)
    assert wan_ms(default.report.stats) <= wan_ms(bulk.report.stats)


def test_wais_fragments_are_never_keyed():
    """Wais declares no ``eq``: its capability description, not the
    mediator, keeps key sets away from it (Section 4)."""
    plan = federation(0.3).query(Q2).plan
    pushed = [node for node in plan.walk() if isinstance(node, PushedOp)]
    assert {node.source: bool(node.keyed) for node in pushed} == {
        "xmlartwork": False, "o2artifact": True,
    }


# -- (iv) resilience: the set call is one call ------------------------------------------


def test_failed_set_call_is_retried_as_one_call():
    clock = VirtualClock()
    schedule = FaultSchedule().fail("execute_pushed", times=1)
    faulty = {}

    def wrap(wrapper):
        if wrapper.name != "o2artifact":
            return wrapper
        faulty["o2"] = FaultyWrapper(wrapper, schedule, sleep=clock.sleep)
        return faulty["o2"]

    mediator = federation(0.3, n=60, wrap=wrap)
    policy = ResiliencePolicy.default(
        retry=RetryPolicy(max_attempts=3), clock=clock.time, sleep=clock.sleep
    )
    result = mediator.query(Q2, policy=policy)
    assert result.document() == mediator.query(Q2, optimize=False).document()
    stats = result.report.stats
    assert stats.retries["o2artifact"] == 1 and stats.failures["o2artifact"] == 1
    assert stats.source_calls["o2artifact"] == 1
    assert faulty["o2"].injector.call_counts["execute_pushed"] == 2
    assert not result.degraded


def test_replica_set_fails_the_whole_set_over(o2):
    dead = FaultyWrapper(o2, FaultSchedule().dead_source())
    healthy = FaultyWrapper(o2, FaultSchedule())
    plan = DJoinOp(
        literal(("k",), [(5,), (1,), (0,), (5.0,)]), o2_fragment((("c", "k"),))
    )
    fast = run_plan(plan, {"o2": ReplicaSet("o2", [dead, healthy])})
    oracle = run_plan(plan, {"o2": o2}, execution=SERIAL)
    assert tab_to_xml(fast.tab) == tab_to_xml(oracle.tab)
    assert dead.injector.call_counts["execute_pushed"] == 1
    assert healthy.injector.call_counts["execute_pushed"] == 1


def test_injected_delay_is_paid_once_per_djoin():
    clock = VirtualClock()
    schedule = FaultSchedule().delay("execute_pushed", 0.002)
    mediator = federation(
        0.3, n=60,
        wrap=lambda wrapper: FaultyWrapper(wrapper, schedule, sleep=clock.sleep),
    )
    mediator.query(Q2)
    assert clock.now == pytest.approx(2 * 0.002)  # one Wais call, one O2 call
    clock.now = 0.0
    per_row = mediator.query(Q2, execution=SERIAL).report.stats
    assert clock.now == pytest.approx(per_row.total_source_calls * 0.002)


# -- observability ----------------------------------------------------------------------


def test_explain_analyze_shows_keys_and_elides_the_text_in_rendering_only():
    mediator = federation(0.3, n=60)
    explanation = mediator.explain(Q2, analyze=True)
    stats = explanation.report.stats
    keys = stats.passed_keys
    assert keys > 1 and stats.batched_calls >= keys - 1
    rendered = explanation.render()
    line = next(l for l in rendered.splitlines() if "Pushed@o2artifact" in l)
    assert "evals=1 " in line and "calls=1 " in line and f"keys={keys}" in line
    assert f"[{keys - 1} more keys]" in rendered
    (native,) = [text for source, text in stats.native_queries
                 if source == "o2artifact"]
    assert native.count(") or (") == keys - 1 and native not in rendered
    span = next(s for s in explanation.tracer.spans if s.attrs.get("keys"))
    assert span.attrs["keys"] == keys and span.attrs["native"] == native
    registry = MetricsRegistry()
    record_execution(registry, explanation.report)
    assert f"yat_djoin_passed_keys_total {keys}" in registry.exposition()
