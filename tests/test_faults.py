"""The fault-injection harness itself: schedules must be deterministic."""

import pytest

import repro.testing
from repro import (
    Mediator,
    O2Wrapper,
    StoredXmlSource,
    StoreWrapper,
    WaisWrapper,
)
from repro.datasets import CulturalDataset
from repro.errors import SourceError
from repro.testing import (
    FaultSchedule,
    FaultyWrapper,
    InjectedFaultError,
    VirtualClock,
)
from repro.core.algebra.tab import Row, Tab
from repro.core.algebra.evaluator import SourceAdapter
from repro.model.trees import atom_leaf, elem


class FakeSource(SourceAdapter):
    """Minimal healthy source to wrap with faults."""

    def __init__(self):
        self.name = "fake"
        self.calls = []

    def document_names(self):
        return ("doc",)

    def document(self, name):
        self.calls.append(("document", name))
        return elem("doc", [atom_leaf("x", 1)])

    def ident_index(self):
        self.calls.append(("ident_index",))
        return {}

    def execute_pushed(self, plan, outer=None):
        self.calls.append(("execute_pushed",))
        return Tab(("x",), [Row(("x",), (1,))]), "native"


def drive(adapter, n_calls=12):
    """Call each operation round-robin, recording success/failure kinds."""
    trace = []
    for i in range(n_calls):
        operation = ("document", "ident_index", "execute_pushed")[i % 3]
        try:
            if operation == "document":
                adapter.document("doc")
            elif operation == "ident_index":
                adapter.ident_index()
            else:
                adapter.execute_pushed(None)
            trace.append((operation, "ok"))
        except InjectedFaultError as error:
            trace.append((operation, error.kind))
    return trace


class TestScriptedSchedules:
    def test_transient_recovers_after_n(self):
        adapter = FaultyWrapper(FakeSource(), FaultSchedule().fail("document", times=2))
        with pytest.raises(InjectedFaultError):
            adapter.document("doc")
        with pytest.raises(InjectedFaultError):
            adapter.document("doc")
        assert adapter.document("doc").label == "doc"
        assert adapter.injected == [
            ("document", 0, "transient"),
            ("document", 1, "transient"),
        ]

    def test_permanent_never_recovers(self):
        adapter = FaultyWrapper(FakeSource(), FaultSchedule().fail_forever("document"))
        for _ in range(5):
            with pytest.raises(InjectedFaultError) as excinfo:
                adapter.document("doc")
            assert excinfo.value.kind == "permanent"

    def test_injected_faults_are_source_errors(self):
        adapter = FaultyWrapper(FakeSource(), FaultSchedule().fail("ident_index"))
        with pytest.raises(SourceError):
            adapter.ident_index()

    def test_other_operations_unaffected(self):
        adapter = FaultyWrapper(FakeSource(), FaultSchedule().fail_forever("document"))
        assert adapter.ident_index() == {}
        tab, native = adapter.execute_pushed(None)
        assert native == "native"
        assert adapter.document_names() == ("doc",)

    def test_dead_source_fails_everything(self):
        adapter = FaultyWrapper(FakeSource(), FaultSchedule().dead_source())
        for thunk in (lambda: adapter.document("doc"), adapter.ident_index,
                      lambda: adapter.execute_pushed(None)):
            with pytest.raises(InjectedFaultError):
                thunk()

    def test_latency_advances_the_clock_without_failing(self):
        clock = VirtualClock()
        adapter = FaultyWrapper(
            FakeSource(),
            FaultSchedule().delay("document", seconds=0.25, times=2),
            sleep=clock.sleep,
        )
        adapter.document("doc")
        adapter.document("doc")
        adapter.document("doc")
        assert clock.time() == pytest.approx(0.5)
        assert [kind for _op, _i, kind in adapter.injected] == ["latency", "latency"]


class TestSeededSchedules:
    def test_same_seed_same_failure_sequence(self):
        trace_a = drive(FaultyWrapper(
            FakeSource(), FaultSchedule.seeded(seed=42, fault_rate=0.5)))
        trace_b = drive(FaultyWrapper(
            FakeSource(), FaultSchedule.seeded(seed=42, fault_rate=0.5)))
        assert trace_a == trace_b
        assert any(kind != "ok" for _op, kind in trace_a)

    def test_different_seeds_differ(self):
        traces = {
            tuple(drive(FaultyWrapper(
                FakeSource(), FaultSchedule.seeded(seed=seed, fault_rate=0.5))))
            for seed in range(6)
        }
        assert len(traces) > 1

    def test_decisions_independent_of_other_operations(self):
        # The document-call fault sequence must not depend on how many
        # ident_index calls are interleaved.
        schedule_a = FaultSchedule.seeded(seed=9, fault_rate=0.5)
        schedule_b = FaultSchedule.seeded(seed=9, fault_rate=0.5)
        adapter_a = FaultyWrapper(FakeSource(), schedule_a)
        adapter_b = FaultyWrapper(FakeSource(), schedule_b)

        def doc_kinds(adapter, interleave):
            kinds = []
            for _ in range(8):
                if interleave:
                    try:
                        adapter.ident_index()
                    except InjectedFaultError:
                        pass
                try:
                    adapter.document("doc")
                    kinds.append("ok")
                except InjectedFaultError as error:
                    kinds.append(error.kind)
            return kinds

        assert doc_kinds(adapter_a, False) == doc_kinds(adapter_b, True)

    def test_seeded_rates_are_roughly_respected(self):
        schedule = FaultSchedule.seeded(seed=3, fault_rate=1.0)
        adapter = FaultyWrapper(FakeSource(), schedule)
        trace = drive(adapter, n_calls=9)
        assert all(kind != "ok" for _op, kind in trace)

    def test_scripted_windows_override_seeded(self):
        schedule = FaultSchedule.seeded(seed=3, fault_rate=0.0)
        schedule.fail("document", times=1)
        adapter = FaultyWrapper(FakeSource(), schedule)
        with pytest.raises(InjectedFaultError):
            adapter.document("doc")
        assert adapter.document("doc").label == "doc"


class TestFaultyWrapper:
    def test_connectable_and_planning_is_fault_free(self):
        database, store = CulturalDataset(n_artifacts=5, seed=3).build()
        wrapper = FaultyWrapper(
            WaisWrapper("xmlartwork", store), FaultSchedule().dead_source()
        )
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        interface = mediator.connect(wrapper)
        assert "artworks" in interface.documents
        # Planning-time metadata bypasses the data plane.
        assert wrapper.document_names() == ("artworks",)
        assert wrapper.injected == []

    def test_execution_calls_are_faulted(self):
        database, store = CulturalDataset(n_artifacts=5, seed=3).build()
        wrapper = FaultyWrapper(
            WaisWrapper("xmlartwork", store), FaultSchedule().fail("document")
        )
        with pytest.raises(InjectedFaultError):
            wrapper.document("artworks")
        assert wrapper.document("artworks").label == "works"

    def test_memo_rows_are_the_inner_wrappers(self):
        """A faulted source exports the memos that do its work, not the
        proxy's own never-used (all-zero) ones."""
        _database, store = CulturalDataset(n_artifacts=5, seed=3).build()
        inner = WaisWrapper("xmlartwork", store)
        wrapper = FaultyWrapper(inner, FaultSchedule())
        wrapper.document("artworks")
        assert wrapper.memo_stats() == inner.memo_stats()
        assert wrapper.memo_stats()["documents"]["misses"] == 1


def test_every_faulty_proxy_reports_the_stores_version_after_a_write():
    """A faulted mutable source still says when its data moves: a proxy
    that answered the default version 0 would call it immutable."""
    proxies = [
        exported
        for exported in map(vars(repro.testing).get, repro.testing.__all__)
        if isinstance(exported, type) and issubclass(exported, SourceAdapter)
    ]
    for proxy in proxies:
        stored = StoredXmlSource()
        stored.add_tree("works", elem("works", atom_leaf("title", "A")))
        inner = StoreWrapper("depot", stored)
        faulty = proxy(inner, FaultSchedule().dead_source())
        before = faulty.data_version()
        stored.add_tree("works", elem("works", atom_leaf("title", "B")))
        assert faulty.data_version() == inner.data_version() != before
    assert proxies == [FaultyWrapper]
