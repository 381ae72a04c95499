"""The serving layer: admission control, shedding, quotas, drain, soak.

Three kinds of coverage:

* admission unit tests against a *blocking* fake mediator, so queue
  depths are exact and every tier (degrade, shed, reject, quota,
  deadline expiry, drain) is hit deterministically;
* concurrency-correctness tests against the real federation — many
  parallel sessions through one shared mediator must produce answers
  byte-identical to serial runs, with zero tracer/kernel-flag bleed
  between requests, including under injected source faults;
* hammer regressions for the shared mutable structures the server
  exposes to true concurrency: the plan cache and the document-index
  registry.
"""

from __future__ import annotations

import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro import (
    ExecutionPolicy,
    Mediator,
    MediatorServer,
    O2Wrapper,
    OverloadedError,
    QuotaExceededError,
    ResiliencePolicy,
    RetryPolicy,
    ServerConfig,
    StoredXmlSource,
    StoreWrapper,
    Tracer,
    WaisWrapper,
)
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.errors import QueryDeadlineError
from repro.model.xml_io import tree_to_xml
from repro.observability.context import (
    RequestContext,
    activate_context,
    current_context,
    current_tracer,
)
from repro.server import ServiceEstimator, TokenBucket
from repro.server.server import _degraded_variant
from repro.server.workload import zipf_weights
from repro.testing import FaultSchedule, FaultyWrapper, VirtualClock

from tests.conftest import build_mediator
from tests.test_sharding import build_pair, dead_primary

#: A twig the store answers in SQL, and an ``FRest`` it must scan.
STORE_TWIG_Q = """MAKE doc [ * hit [ title: $t ] ]
MATCH stored_artworks WITH works .. work [ cplace . "Giverny", title . $t ]
"""
STORE_REST_Q = """MAKE doc [ * hit [ title: $t, more: $f ] ]
MATCH stored_artworks WITH works . work [ title . $t, cplace . "Giverny", *($f) ]
"""


# ---------------------------------------------------------------------------
# admission primitives


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        assert bucket.acquire(0.0) == (True, 0.0)
        assert bucket.acquire(0.0) == (True, 0.0)
        ok, wait = bucket.acquire(0.0)
        assert not ok
        assert wait == pytest.approx(0.1)
        # One token refills after 1/rate seconds.
        assert bucket.acquire(0.11)[0]

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=3.0)
        for _ in range(3):
            assert bucket.acquire(1000.0)[0]
        assert not bucket.acquire(1000.0)[0]

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)


class TestServiceEstimator:
    def test_ewma_and_retry_after(self):
        estimator = ServiceEstimator(initial=0.1, alpha=0.5)
        estimator.observe(0.3)
        assert estimator.mean == pytest.approx(0.2)
        # Five waiting + me, two workers: three rounds of 0.2s each.
        assert estimator.retry_after(5, 2) == pytest.approx(0.6)


class TestWorkloadHelpers:
    def test_zipf_weights_decrease(self):
        weights = zipf_weights(4)
        assert weights == sorted(weights, reverse=True)


# ---------------------------------------------------------------------------
# admission tiers, deterministically, against a blocking mediator


class BlockingMediator:
    """A fake mediator whose queries block until released."""

    def __init__(self, execution=None):
        #: The defaults the server reads instead of restating them.
        self.execution = execution
        self.policy = None
        self.release = threading.Event()
        self.contexts = []
        self.policies = []
        self.executions = []
        self._lock = threading.Lock()

    def query(self, text, policy=None, execution=None, context=None):
        with self._lock:
            self.contexts.append(context)
            self.policies.append(policy)
            self.executions.append(execution)
        if not self.release.wait(20):  # pragma: no cover - guard
            raise TimeoutError("BlockingMediator never released")
        return SimpleNamespace(text=text)


@pytest.mark.usefixtures("deadlock_guard")
class TestAdmission:
    def _saturated(self, **overrides):
        """One worker stuck in a query, so queued depth is exact."""
        settings = dict(workers=1, queue_limit=4, degrade_depth=1,
                        shed_depth=2)
        settings.update(overrides)
        mediator = BlockingMediator()
        server = MediatorServer(mediator, ServerConfig(**settings))
        blocker = server.submit("blocker")
        deadline = time.monotonic() + 5
        while not mediator.contexts:  # wait for the worker to pick it up
            assert time.monotonic() < deadline
            time.sleep(0.001)
        return mediator, server, blocker

    def test_rejects_unknown_priority(self):
        mediator = BlockingMediator()
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            with pytest.raises(ValueError):
                server.submit("q", priority="urgent")
            mediator.release.set()

    def test_queue_limit_rejects_everyone(self):
        mediator, server, blocker = self._saturated(
            degrade_depth=4, shed_depth=4
        )
        tickets = [server.submit(f"q{i}") for i in range(4)]
        with pytest.raises(OverloadedError) as caught:
            server.submit("one too many", priority="high")
        assert caught.value.retry_after > 0
        mediator.release.set()
        server.close()
        assert blocker.result(5).text == "blocker"
        assert all(t.result(5) is not None for t in tickets)
        assert server.counters["shed_overload"] == 1

    def test_low_priority_sheds_before_normal(self):
        mediator, server, _ = self._saturated()
        server.submit("fill1")
        server.submit("fill2")  # depth 2 == shed_depth
        with pytest.raises(OverloadedError):
            server.submit("sheddable", priority="low")
        server.submit("still fine", priority="normal")
        mediator.release.set()
        server.close()

    def test_degrade_tier_forces_partial_results(self):
        mediator, server, _ = self._saturated(shed_depth=4)
        server.submit("fill")  # depth 1 == degrade_depth
        degraded = server.submit("degrade me", priority="low")
        assert degraded.degrade
        normal = server.submit("not me", priority="normal")
        assert not normal.degrade
        mediator.release.set()
        server.close()
        assert server.counters["degraded_forced"] == 1
        assert degraded.result(5).text == "degrade me"
        # The ticket is the admission record: it was queued, then run.
        assert degraded.submitted_at <= degraded.started_at
        # The degraded request ran under allow_partial_results.
        degraded_policy = mediator.policies[
            [c.request_id for c in mediator.contexts].index(
                degraded.request_id
            )
        ]
        assert degraded_policy is not None
        assert degraded_policy.allow_partial_results

    def test_degraded_policy_is_its_base_with_partial_results(self):
        clock = VirtualClock()
        base = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=7),
            circuit_failure_threshold=9,
            call_timeout=0.25,
            query_deadline=3.0,
            clock=clock.time,
            sleep=clock.sleep,
        )
        default = ResiliencePolicy()
        others = [n for n in base.__slots__ if n != "allow_partial_results"]
        # The base sets every field off its default, so a field the
        # derivation dropped would show.
        assert all(getattr(base, n) != getattr(default, n) for n in others)
        degraded = _degraded_variant(base)
        assert degraded.allow_partial_results
        assert all(getattr(degraded, n) is getattr(base, n) for n in others)

    def test_rejection_is_fast_and_carries_retry_after(self):
        mediator, server, _ = self._saturated(queue_limit=2, shed_depth=2,
                                              degrade_depth=2)
        server.submit("fill1")
        server.submit("fill2")
        start = time.perf_counter()
        with pytest.raises(OverloadedError) as caught:
            server.submit("rejected")
        elapsed = time.perf_counter() - start
        assert elapsed < 0.005
        assert caught.value.retry_after > 0
        mediator.release.set()
        server.close()

    def test_quota_rejection_with_exact_retry_after(self):
        mediator = BlockingMediator()
        mediator.release.set()
        config = ServerConfig(workers=1, quotas={"metered": (10.0, 2.0)})
        with MediatorServer(mediator, config) as server:
            server.submit("a", tenant="metered")
            server.submit("b", tenant="metered")
            with pytest.raises(QuotaExceededError) as caught:
                server.submit("c", tenant="metered")
            assert 0 < caught.value.retry_after <= 0.1
            # Other tenants are unaffected.
            server.submit("fine", tenant="other").result(5)
            assert server.counters["shed_quota"] == 1

    def test_default_quota_applies_to_unlisted_tenants(self):
        mediator = BlockingMediator()
        mediator.release.set()
        config = ServerConfig(workers=1, default_quota=(5.0, 1.0))
        with MediatorServer(mediator, config) as server:
            server.submit("a", tenant="anyone")
            with pytest.raises(QuotaExceededError):
                server.submit("b", tenant="anyone")

    def test_deadline_expires_in_queue(self):
        mediator, server, blocker = self._saturated(
            degrade_depth=4, shed_depth=4
        )
        doomed = server.submit("doomed", deadline=0.02)
        time.sleep(0.05)
        mediator.release.set()
        with pytest.raises(QueryDeadlineError):
            doomed.result(5)
        server.close()
        assert server.counters["expired"] == 1
        # The expired request never reached the mediator.
        assert all(
            c is None or c.request_id != doomed.request_id
            for c in mediator.contexts
        )

    def test_deadline_travels_in_the_context(self):
        mediator = BlockingMediator()
        mediator.release.set()
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            ticket = server.submit("q", deadline=30.0)
            ticket.result(5)
            context = mediator.contexts[-1]
            assert context.deadline is not None
            assert context.deadline > time.monotonic()
            assert context.request_id == ticket.request_id

    def test_drain_finishes_queued_work_then_rejects(self):
        mediator, server, blocker = self._saturated(
            degrade_depth=4, shed_depth=4
        )
        queued = server.submit("queued")
        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(server.drain(timeout=10))
        )
        drainer.start()
        time.sleep(0.02)
        mediator.release.set()
        drainer.join(10)
        assert drained == [True]
        assert queued.result(1) is not None
        with pytest.raises(OverloadedError):
            server.submit("after drain")
        server.close()

    def test_stats_snapshot(self):
        mediator = BlockingMediator()
        mediator.release.set()
        with MediatorServer(mediator, ServerConfig(workers=2)) as server:
            server.submit("q").result(5)
            stats = server.stats()
        assert stats["admitted"] == 1
        assert stats["completed"] == 1
        assert stats["queue_depth"] == 0


# ---------------------------------------------------------------------------
# per-request execution overrides


@pytest.mark.usefixtures("deadlock_guard")
class TestExecutionOverride:
    def test_override_reaches_the_mediator(self):
        mediator = BlockingMediator(ExecutionPolicy(parallelism=2))
        mediator.release.set()
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            serial = ExecutionPolicy.serial()
            server.submit("q", execution=serial).result(5)
            server.submit("q2").result(5)
        assert mediator.executions[0] is serial
        # Without an override the server passes None, and the mediator's
        # own default applies.
        assert mediator.executions[1] is None

    def test_override_above_server_parallelism_is_rejected(self):
        mediator = BlockingMediator(ExecutionPolicy(parallelism=2))
        mediator.release.set()
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            with pytest.raises(ValueError) as caught:
                server.submit("q", execution=ExecutionPolicy(parallelism=8))
            assert "parallelism" in str(caught.value)
            # The rejection happened before admission.
            assert server.counters["admitted"] == 0
            # A compliant override is fine.
            server.submit(
                "ok", execution=ExecutionPolicy(parallelism=2)
            ).result(5)

    def test_override_unconstrained_without_server_policy(self):
        mediator = BlockingMediator()
        mediator.release.set()
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            wide = ExecutionPolicy(parallelism=8)
            server.submit("q", execution=wide).result(5)
        assert mediator.executions[0] is wide

    def test_serial_override_matches_default_answers(self, cultural_sources):
        reference = build_mediator(*cultural_sources)
        expected = tree_to_xml(reference.query(Q1).document())
        mediator = _server_mediator(
            cultural_sources, execution=ExecutionPolicy(parallelism=2)
        )
        with MediatorServer(mediator, ServerConfig(workers=2)) as server:
            vectorized = server.submit(Q1)
            serial = server.submit(Q1, execution=ExecutionPolicy.serial())
            assert tree_to_xml(vectorized.result(30).document()) == expected
            assert tree_to_xml(serial.result(30).document()) == expected


# ---------------------------------------------------------------------------
# real federation: shared caches, isolated requests


def _server_mediator(sources, execution=None):
    database, store = sources
    mediator = Mediator(execution=execution, plan_cache_size=64)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


SOAK_QUERIES = [
    Q1,
    Q2,
    Q2.replace("2000000.0", "1500000.0"),
    Q2.replace("2000000.0", "3000000.0"),
]


@pytest.mark.usefixtures("deadlock_guard")
class TestConcurrentServing:
    def test_answers_match_serial_runs(self, cultural_sources):
        reference_mediator = build_mediator(*cultural_sources)
        references = [
            tree_to_xml(reference_mediator.query(text).document())
            for text in SOAK_QUERIES
        ]
        mediator = _server_mediator(cultural_sources)
        with MediatorServer(mediator, ServerConfig(workers=4)) as server:
            tickets = [
                (i % len(SOAK_QUERIES), server.submit(
                    SOAK_QUERIES[i % len(SOAK_QUERIES)],
                    tenant=f"tenant{i % 3}",
                ))
                for i in range(24)
            ]
            for which, ticket in tickets:
                result = ticket.result(30)
                assert tree_to_xml(result.document()) == references[which]
                assert ticket.submitted_at <= ticket.started_at
                assert ticket.started_at <= ticket.completed_at
        assert len({ticket.request_id for _, ticket in tickets}) == 24

    def test_soak_with_injected_faults(self, cultural_sources):
        database, store = cultural_sources
        reference_mediator = build_mediator(database, store)
        references = [
            tree_to_xml(reference_mediator.query(text).document())
            for text in SOAK_QUERIES
        ]
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=4, base_delay=0.0, jitter=0.0),
            circuit_failure_threshold=1000,
        )
        mediator = Mediator(policy=policy, plan_cache_size=64)
        mediator.connect(O2Wrapper("o2artifact", database))
        faulty = FaultyWrapper(
            WaisWrapper("xmlartwork", store),
            FaultSchedule.seeded(seed=11, fault_rate=0.15),
        )
        mediator.connect(faulty)
        mediator.declare_containment("artworks", "artifacts")
        mediator.load_program(VIEW1_YAT)
        with MediatorServer(mediator, ServerConfig(workers=4)) as server:
            tickets = [
                (i % len(SOAK_QUERIES),
                 server.submit(SOAK_QUERIES[i % len(SOAK_QUERIES)]))
                for i in range(16)
            ]
            for which, ticket in tickets:
                result = ticket.result(60)
                assert tree_to_xml(result.document()) == references[which]
        assert faulty.injected  # the schedule actually fired

    def test_no_tracer_bleed_between_requests(self, cultural_sources):
        mediator = _server_mediator(cultural_sources)
        traced, silent = Tracer(), Tracer()
        with MediatorServer(mediator, ServerConfig(workers=4)) as server:
            tickets = []
            for i in range(8):
                tracer = traced if i == 0 else (silent if i == 1 else None)
                tickets.append(server.submit(Q1, tracer=tracer))
            for ticket in tickets:
                ticket.result(30)
        roots_traced = [s for s in traced.spans if s.parent_id is None]
        roots_silent = [s for s in silent.spans if s.parent_id is None]
        assert len(roots_traced) == 1
        assert len(roots_silent) == 1
        # The submitting thread's ambient context is untouched.
        assert current_tracer() is None
        assert current_context() is None

    def test_context_isolation_across_threads(self):
        barrier = threading.Barrier(2, timeout=10)
        seen = {}

        def session(name, flag, tracer):
            context = RequestContext(
                request_id=name, reference=flag, tracer=tracer
            )
            with activate_context(context):
                barrier.wait()  # both contexts active simultaneously
                seen[name] = (
                    current_context().request_id,
                    current_context().reference,
                    current_tracer(),
                )
                barrier.wait()

        tracer = Tracer()
        threads = [
            threading.Thread(target=session, args=("a", True, tracer)),
            threading.Thread(target=session, args=("b", False, None)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen["a"] == ("a", True, tracer)
        assert seen["b"] == ("b", False, None)

    def test_execute_leaves_the_callers_context_untouched(self, cultural_sources):
        mediator = _server_mediator(cultural_sources)
        result = mediator.query(Q1)
        context = RequestContext(request_id="mine", params=result.params)
        report = mediator.execute(
            result.plan, execution=ExecutionPolicy.serial(), context=context
        )
        assert tree_to_xml(report.document()) == tree_to_xml(result.document())
        assert context.reference is False
        assert context.tracer is None and context.stats is None

    def test_request_counters_stay_with_their_request(self):
        # Store work and replica failovers are counted into the request
        # that caused them, however the threads interleave.
        stored = StoredXmlSource()
        stored.add_tree(
            "stored_artworks",
            CulturalDataset(n_artifacts=40, seed=7).build()[1].collection_tree(),
        )
        store_mediator = Mediator()
        store_mediator.connect(StoreWrapper("depot", stored))
        _mono, sharded, _partition, _stores = build_pair(
            n_artifacts=16, replicas=2, wrap=dead_primary
        )

        def store_counts(report):
            return report.stats.store_pushdowns, report.stats.store_scans

        def failovers(report):
            return report.stats.shard_failovers

        streams = [
            (store_mediator, STORE_TWIG_Q, store_counts, 30),
            (store_mediator, STORE_REST_Q, store_counts, 30),
            (sharded, Q1, failovers, 4),
            (sharded, Q1, failovers, 4),
        ]
        expected = [
            count(mediator.query(text).report)
            for mediator, text, count, _runs in streams
        ]
        assert expected[:2] == [(1, 0), (0, 1)] and expected[2] > 0
        seen = [[] for _ in streams]

        def client(index):
            mediator, text, count, runs = streams[index]
            for _ in range(runs):
                seen[index].append(count(mediator.query(text).report))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(index,))
                for index in range(len(streams))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert seen == [
            [value] * runs
            for value, (_m, _t, _c, runs) in zip(expected, streams)
        ]

    def test_overload_sheds_and_recovers(self, cultural_sources):
        mediator = _server_mediator(cultural_sources)
        config = ServerConfig(workers=1, queue_limit=2, degrade_depth=1,
                              shed_depth=1)
        with MediatorServer(mediator, config) as server:
            outcomes = {"ok": 0, "shed": 0}
            tickets = []
            for _ in range(50):
                try:
                    tickets.append(server.submit(Q2))
                except OverloadedError as caught:
                    assert caught.retry_after >= 0
                    outcomes["shed"] += 1
                else:
                    outcomes["ok"] += 1
            for ticket in tickets:
                assert ticket.result(60) is not None
            assert outcomes["shed"] > 0  # queue stayed bounded
            assert outcomes["ok"] >= 2
            # After the burst drains, the server admits again.
            assert server.submit(Q1).result(30) is not None


# ---------------------------------------------------------------------------
# hammer regressions for shared structures


@pytest.mark.usefixtures("deadlock_guard")
class TestConcurrentHammer:
    def test_plan_cache_hammer(self, cultural_sources):
        mediator = _server_mediator(cultural_sources)
        reference = {
            text: tree_to_xml(mediator.query(text).document())
            for text in SOAK_QUERIES
        }
        errors = []

        def worker(index):
            try:
                for round_ in range(6):
                    text = SOAK_QUERIES[(index + round_) % len(SOAK_QUERIES)]
                    answer = tree_to_xml(mediator.query(text).document())
                    assert answer == reference[text]
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert errors == []
        cache = mediator.plan_cache.stats()
        assert cache["hits"] >= 1
