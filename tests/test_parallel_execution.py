"""Federated execution scheduler: policy, parallel dispatch, batching.

Everything here asserts one invariant from two directions: the scheduler
may change *when* and *how often* sources are called, but never *what*
the plan produces.  Serial, batched and parallel runs of the
same plan must agree row for row.
"""

import threading
import time

import pytest

from repro import ExecutionPolicy, Mediator, ResiliencePolicy
from repro.core.algebra.evaluator import Environment, SourceAdapter, evaluate
from repro.core.algebra.expressions import Var, eq
from repro.core.algebra.operators import (
    DJoinOp,
    JoinOp,
    LiteralOp,
    PushedOp,
    SelectOp,
    SourceOp,
    UnionOp,
)
from repro.core.algebra.scheduling import (
    ABSENT,
    PlanScheduler,
    identity_cell_key,
    outer_binding_key,
    plan_parameters,
)
from repro.core.algebra.stats import ExecutionStats
from repro.core.algebra.tab import Row, Tab
from repro.datasets import CulturalDataset, Q1, Q2
from repro.errors import SourceError
from repro.model.filters import MissingValue
from repro.mediator.execution import run_plan
from repro.model.trees import atom_leaf, elem
from repro.testing import FaultSchedule
from repro.wrappers import O2Wrapper, WaisWrapper

from tests.conftest import VIEW1_YAT

pytestmark = pytest.mark.usefixtures("deadlock_guard")


def literal(columns, rows):
    return LiteralOp(Tab(columns, [Row(columns, cells) for cells in rows]))


class CountingSource(SourceAdapter):
    """In-memory source that counts data-plane calls.

    ``execute_pushed`` filters its rows by the outer column ``x`` when
    present, mirroring how a wrapper inlines outer constants.
    """

    def __init__(self, rows=(1, 2, 3), latency=0.0):
        self.rows = tuple(rows)
        self.latency = latency
        self.pushed_calls = 0
        self.document_calls = 0
        self.index_calls = 0
        self._lock = threading.Lock()

    def document_names(self):
        return ("doc",)

    def document(self, name):
        with self._lock:
            self.document_calls += 1
        if self.latency:
            time.sleep(self.latency)
        return elem("doc", *[atom_leaf("v", value) for value in self.rows])

    def ident_index(self):
        with self._lock:
            self.index_calls += 1
        return {}

    def execute_pushed(self, plan, outer=None):
        with self._lock:
            self.pushed_calls += 1
        if self.latency:
            time.sleep(self.latency)
        values = self.rows
        if outer is not None and "x" in outer:
            wanted = outer["x"]
            values = tuple(v for v in values if v == wanted)
        tab = Tab(("r",), [Row(("r",), (v,)) for v in values])
        return tab, f"native({outer['x'] if outer is not None and 'x' in outer else '*'})"


def pushed_by_x(source="src"):
    """A pushed fragment observing the outer column ``x``."""
    inner = SelectOp(SourceOp(source, "doc"), eq(Var("doc"), Var("x")))
    return PushedOp(source, inner)


# ---------------------------------------------------------------------------
# ExecutionPolicy
# ---------------------------------------------------------------------------

class TestExecutionPolicy:
    def test_default_is_the_optimized_engine_in_serial_order(self):
        policy = ExecutionPolicy()
        assert policy.parallelism == 1
        assert not policy.concurrent
        assert not policy.reference

    def test_serial_is_the_reference_engine(self):
        policy = ExecutionPolicy.serial()
        assert policy.parallelism == 1
        assert policy.reference
        assert repr(policy) == "ExecutionPolicy.serial()"

    def test_parallel_constructor(self):
        policy = ExecutionPolicy.parallel(8)
        assert policy.parallelism == 8
        assert policy.concurrent
        assert not policy.reference

    @pytest.mark.parametrize("knob", [
        "cache_source_calls", "batch_djoin", "compile_kernels",
        "use_document_indexes", "vectorize", "twig_joins", "reference",
    ])
    def test_removed_knobs_are_type_errors(self, knob):
        # parallelism is the only constructor argument; the reference
        # engine is reachable through serial() alone and read-only after.
        with pytest.raises(TypeError):
            ExecutionPolicy(**{knob: False})
        with pytest.raises(AttributeError):
            setattr(ExecutionPolicy(), knob, False)

    def test_parallelism_must_be_positive(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(parallelism=0)

    def test_scheduler_requires_concurrency(self):
        with pytest.raises(ValueError):
            PlanScheduler(1)


# ---------------------------------------------------------------------------
# PlanScheduler
# ---------------------------------------------------------------------------

class TestPlanScheduler:
    def test_runs_thunks_in_order(self):
        scheduler = PlanScheduler(4)
        try:
            outcomes = scheduler.run([lambda i=i: i * i for i in range(10)])
        finally:
            scheduler.shutdown()
        assert [value for value, _ in outcomes] == [i * i for i in range(10)]
        assert all(error is None for _, error in outcomes)

    def test_captures_errors_per_thunk(self):
        def boom():
            raise SourceError("boom")

        scheduler = PlanScheduler(2)
        try:
            outcomes = scheduler.run([lambda: 1, boom, lambda: 3])
        finally:
            scheduler.shutdown()
        assert outcomes[0] == (1, None)
        assert isinstance(outcomes[1][1], SourceError)
        assert outcomes[2] == (3, None)

    def test_nested_runs_do_not_deadlock(self):
        # More nested tasks than pool threads: a naive bounded pool
        # deadlocks here; the reclaim-and-run-inline rule must not.
        scheduler = PlanScheduler(2)

        def inner(depth):
            if depth == 0:
                return 1
            outcomes = scheduler.run(
                [lambda: inner(depth - 1), lambda: inner(depth - 1)]
            )
            return sum(value for value, _ in outcomes)

        try:
            assert inner(5) == 2 ** 5
        finally:
            scheduler.shutdown()


# ---------------------------------------------------------------------------
# Outer-parameter analysis and cache keys
# ---------------------------------------------------------------------------

class TestPlanParameters:
    def test_select_free_variable(self):
        plan = SelectOp(SourceOp("src", "doc"), eq(Var("doc"), Var("x")))
        assert plan_parameters(plan) == frozenset({"x"})

    def test_pushed_exposes_inner_parameters(self):
        assert plan_parameters(pushed_by_x()) == frozenset({"x"})

    def test_local_columns_are_not_parameters(self):
        plan = SelectOp(literal(("a", "b"), [(1, 2)]), eq(Var("a"), Var("b")))
        assert plan_parameters(plan) == frozenset()

    def test_djoin_right_parameters_supplied_by_left(self):
        left = literal(("x",), [(1,)])
        plan = DJoinOp(left, pushed_by_x())
        # x comes from the left branch, so the DJoin itself is closed.
        assert plan_parameters(plan) == frozenset()

    def test_outer_binding_key_projects_parameters(self):
        row = Row(("x", "y"), (1, 2))
        assert outer_binding_key(row, frozenset({"x"})) == (
            ("x", identity_cell_key(1)),
        )
        assert outer_binding_key(row, frozenset()) == ()
        assert outer_binding_key(None, frozenset({"x"})) == (("x", ABSENT),)

    def test_identity_key_distinguishes_node_idents(self):
        a = elem("obj", atom_leaf("t", "same"), ident="o1")
        b = elem("obj", atom_leaf("t", "same"), ident="o2")
        assert a._value_key() == b._value_key()  # structural equality...
        assert identity_cell_key(a) != identity_cell_key(b)  # ...identity not

    def test_identity_key_missing_value(self):
        assert identity_cell_key(MissingValue()) == ("missing",)


# ---------------------------------------------------------------------------
# Ident index + document-name caching (satellites)
# ---------------------------------------------------------------------------

class TestEnvironmentCaches:
    def test_ident_index_merged_once(self):
        source = CountingSource()
        env = Environment({"src": source})
        for _ in range(5):
            env.ident_index()
        assert source.index_calls == 1

    def test_wrapper_document_name_set_cached(self):
        database, store = CulturalDataset(n_artifacts=5).build()
        wrapper = O2Wrapper("o2artifact", database)
        first = wrapper.document_name_set()
        assert first == frozenset(wrapper.document_names())
        assert wrapper.document_name_set() is first

    def test_unknown_document_still_rejected(self):
        source = CountingSource()
        env = Environment({"src": source})
        from repro.errors import UnknownDocumentError

        with pytest.raises(UnknownDocumentError):
            evaluate(SourceOp("src", "nope"), env)


# ---------------------------------------------------------------------------
# DJoin batching semantics
# ---------------------------------------------------------------------------

def run_djoin(policy, left_rows):
    source = CountingSource()
    left = literal(("x",), left_rows)
    plan = DJoinOp(left, pushed_by_x())
    env = Environment({"src": source}, policy=policy)
    try:
        tab = evaluate(plan, env)
    finally:
        env.shutdown()
    return tab, source, env.stats


class TestDJoinBatching:
    def test_duplicate_outer_values_share_one_call(self):
        rows = [(1,), (2,), (1,), (1,), (2,)]
        serial_tab, serial_source, _ = run_djoin(ExecutionPolicy.serial(), rows)
        batched_tab, batched_source, stats = run_djoin(ExecutionPolicy(), rows)
        assert batched_tab.columns == serial_tab.columns
        assert list(batched_tab.rows) == list(serial_tab.rows)
        assert serial_source.pushed_calls == 5
        assert batched_source.pushed_calls == 2  # distinct x values
        assert stats.batched_calls == 3

    def test_missing_bindings_batch_together(self):
        rows = [(MissingValue(),), (MissingValue(),), (1,)]
        serial_tab, serial_source, _ = run_djoin(ExecutionPolicy.serial(), rows)
        batched_tab, batched_source, _ = run_djoin(ExecutionPolicy(), rows)
        assert list(batched_tab.rows) == list(serial_tab.rows)
        assert serial_source.pushed_calls == 3
        assert batched_source.pushed_calls == 2

    def test_parallel_djoin_identical_rows(self):
        rows = [(1,), (2,), (3,), (1,), (2,)]
        serial_tab, _, _ = run_djoin(ExecutionPolicy.serial(), rows)
        parallel_tab, source, stats = run_djoin(ExecutionPolicy.parallel(4), rows)
        assert list(parallel_tab.rows) == list(serial_tab.rows)
        assert source.pushed_calls == 3
        assert stats.parallel_branches >= 3

    def test_empty_left_keeps_output_columns(self):
        tab, source, _ = run_djoin(ExecutionPolicy(), [])
        assert source.pushed_calls == 0
        assert len(tab) == 0

    def test_nodes_with_distinct_idents_not_conflated(self):
        # Structurally equal nodes with different identifiers must NOT
        # share a batched call: a pushed fragment can distinguish them.
        a = elem("obj", atom_leaf("t", "same"), ident="o1")
        b = elem("obj", atom_leaf("t", "same"), ident="o2")
        source = CountingSource()
        left = literal(("x",), [(a,), (b,)])
        plan = DJoinOp(left, pushed_by_x())
        env = Environment({"src": source})
        evaluate(plan, env)
        assert source.pushed_calls == 2


# ---------------------------------------------------------------------------
# Parallel evaluation == serial evaluation
# ---------------------------------------------------------------------------

def fresh_mediator(execution=None):
    database, store = CulturalDataset(n_artifacts=12, extra_works=3, seed=11).build()
    mediator = Mediator(execution=execution)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("query", [Q1, Q2], ids=["Q1", "Q2"])
    @pytest.mark.parametrize("optimize", [False, True], ids=["naive", "opt"])
    def test_q1_q2_documents_equal_across_policies(self, query, optimize):
        documents = {}
        for label, execution in (
            ("seed", ExecutionPolicy.serial()),
            ("default", None),
            ("parallel", ExecutionPolicy.parallel(4)),
        ):
            mediator = fresh_mediator(execution=execution)
            result = mediator.query(query, optimize=optimize)
            documents[label] = result.document()
        assert documents["default"] == documents["seed"]
        assert documents["parallel"] == documents["seed"]

    def test_union_parallel_branches_recorded(self):
        source = CountingSource(latency=0.0)
        plan = UnionOp(SourceOp("src", "doc"), SourceOp("src", "doc"))
        env = Environment({"src": source}, policy=ExecutionPolicy.parallel(2))
        try:
            evaluate(plan, env)
        finally:
            env.shutdown()
        assert env.stats.parallel_branches == 2

    def test_join_inputs_evaluate_in_parallel(self):
        left = literal(("l",), [(1,), (2,)])
        right = pushed_by_x()
        plan = JoinOp(left, right, eq(Var("l"), Var("r")))
        source = CountingSource()
        env = Environment({"src": source}, policy=ExecutionPolicy.parallel(2))
        try:
            tab = evaluate(plan, env, outer=Row(("x",), (2,)))
        finally:
            env.shutdown()
        assert env.stats.parallel_branches == 2
        assert [row["l"] for row in tab] == [2]

    def test_serial_error_propagation_order_preserved(self):
        class Dead(CountingSource):
            def document(self, name):
                raise SourceError("left source down")

        plan = UnionOp(SourceOp("dead", "doc"), SourceOp("ok", "doc"))
        env = Environment(
            {"dead": Dead(), "ok": CountingSource()},
            policy=ExecutionPolicy.parallel(2),
        )
        try:
            with pytest.raises(SourceError, match="left source down"):
                evaluate(plan, env)
        finally:
            env.shutdown()


# ---------------------------------------------------------------------------
# Degradation under the scheduler
# ---------------------------------------------------------------------------

class TestDegradationInteraction:
    @pytest.mark.parametrize(
        "execution",
        [ExecutionPolicy.serial(), ExecutionPolicy(), ExecutionPolicy.parallel(4)],
        ids=["seed", "default", "parallel"],
    )
    def test_partial_results_identical_across_policies(self, execution):
        from tests.test_resilience import Q1_UNION_PLAN, adapters, build_sources

        database, store = build_sources(n=8, seed=3)
        healthy = run_plan(
            Q1_UNION_PLAN, adapters(database, store), execution=execution
        )
        report = run_plan(
            Q1_UNION_PLAN,
            adapters(database, store, FaultSchedule().dead_source()),
            policy=ResiliencePolicy.default(
                allow_partial_results=True, sleep=lambda _s: None
            ),
            execution=execution,
        )
        assert report.degraded
        assert "xmlartwork" in report.stats.dropped_sources
        # The surviving O2 branch still answers, and the healthy run is
        # never degraded under any scheduler policy.
        assert len(report.tab) > 0
        assert not healthy.degraded


# ---------------------------------------------------------------------------
# Stats thread safety
# ---------------------------------------------------------------------------

class TestStatsThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        stats = ExecutionStats()
        threads = 8
        per_thread = 500

        def hammer(index):
            for _ in range(per_thread):
                stats.record_call(f"s{index % 2}")
                stats.record_transfer("s", rows=1, size=3)
                stats.record_operator("Op", 2)
                stats.record_batched(1)
                stats.record_parallel(1)

        workers = [
            threading.Thread(target=hammer, args=(i,)) for i in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        total = threads * per_thread
        assert stats.total_source_calls == total
        assert stats.total_rows_transferred == total
        assert stats.bytes_transferred["s"] == 3 * total
        assert stats.mediator_rows == 2 * total
        assert stats.batched_calls == total
        assert stats.parallel_branches == total

    def test_summary_mentions_scheduler_counters(self):
        stats = ExecutionStats()
        stats.record_batched(2)
        stats.record_parallel(3)
        text = stats.summary()
        assert "2 batched calls" in text
        assert "3 parallel branches" in text


# ---------------------------------------------------------------------------
# Wall-clock speedup (light smoke; the benchmark owns the real numbers)
# ---------------------------------------------------------------------------

class TestSpeedupSmoke:
    def test_three_source_union_faster_in_parallel(self):
        delay = 0.05

        def build(policy):
            sources = {
                name: CountingSource(latency=delay) for name in ("a", "b", "c")
            }
            plan = UnionOp(
                UnionOp(SourceOp("a", "doc"), SourceOp("b", "doc")),
                SourceOp("c", "doc"),
            )
            env = Environment(sources, policy=policy)
            started = time.perf_counter()
            try:
                tab = evaluate(plan, env)
            finally:
                env.shutdown()
            return tab, time.perf_counter() - started

        serial_tab, serial_time = build(ExecutionPolicy.serial())
        parallel_tab, parallel_time = build(ExecutionPolicy.parallel(4))
        assert list(parallel_tab.rows) == list(serial_tab.rows)
        # Serial pays 3 x delay; parallel overlaps them.  Assert a loose
        # bound so slow CI machines do not flake.
        assert parallel_time < serial_time
