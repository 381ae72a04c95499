"""Resilience semantics: retry, backoff, breakers, deadlines, degradation.

The acceptance scenario throughout is the cultural portal's Q1 served
from a ``Union`` plan: the Wais branch answers "artifacts created at
Giverny" from the descriptive XML source, and the O2 branch contributes
the trading catalogue's titles as the portal's fallback listing.  With
every source healthy the union is the full answer; with the Wais source
down, a degradation-enabled policy returns the surviving O2 rows and
flags the result as partial.
"""

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper, ResiliencePolicy, RetryPolicy
from repro.datasets import CulturalDataset
from repro.errors import (
    ExecutionReportError,
    PartialResultError,
    PushdownRejectedError,
    QueryDeadlineError,
    SourceUnavailableError,
)
from repro.mediator.execution import run_plan
from repro.mediator.resilience import (
    CLOSED,
    OPEN,
    CircuitBreaker,
    PolicyRuntime,
)
from repro.testing import FaultSchedule, FaultyWrapper, VirtualClock
from repro.core.algebra.expressions import Cmp, Const, Var
from repro.core.algebra.operators import (
    BindOp,
    ProjectOp,
    SelectOp,
    SourceOp,
    UnionOp,
)
from repro.core.algebra.stats import ExecutionStats
from repro.core.algebra.tab import Row, Tab
from repro.observability.context import RequestContext
from repro.model.filters import FStar, FVar, felem


# ---------------------------------------------------------------------------
# The Q1 union plan over the two cultural sources
# ---------------------------------------------------------------------------

WAIS_GIVERNY_BRANCH = ProjectOp(
    SelectOp(
        BindOp(
            SourceOp("xmlartwork", "artworks"),
            felem("works", FStar(felem("work", felem("title", FVar("t")),
                                       felem("cplace", FVar("cl"))))),
            on="artworks",
        ),
        Cmp("=", Var("cl"), Const("Giverny")),
    ),
    [("t", "t")],
)

O2_TITLES_BRANCH = ProjectOp(
    BindOp(
        SourceOp("o2artifact", "artifacts"),
        felem("set", FStar(felem("class", felem("artifact", felem("tuple",
              felem("title", FVar("t"))))))),
        on="artifacts",
    ),
    [("t", "t")],
)

Q1_UNION_PLAN = UnionOp(WAIS_GIVERNY_BRANCH, O2_TITLES_BRANCH)


def build_sources(n=20, seed=7):
    return CulturalDataset(n_artifacts=n, seed=seed).build()


def adapters(database, store, wais_schedule=None, clock=None):
    wais = WaisWrapper("xmlartwork", store)
    if wais_schedule is not None:
        wais = FaultyWrapper(wais, wais_schedule,
                             sleep=clock.sleep if clock else None)
    return {"o2artifact": O2Wrapper("o2artifact", database), "xmlartwork": wais}


def virtual_policy(clock, **overrides):
    settings = dict(clock=clock.time, sleep=clock.sleep)
    settings.update(overrides)
    return ResiliencePolicy.default(**settings)


# ---------------------------------------------------------------------------
# Retry and backoff
# ---------------------------------------------------------------------------

class TestRetry:
    def test_transient_failure_recovered_by_retry_is_byte_identical(self):
        database, store = build_sources()
        baseline = run_plan(Q1_UNION_PLAN, adapters(database, store))

        clock = VirtualClock()
        schedule = FaultSchedule().fail("document", times=2)
        report = run_plan(
            Q1_UNION_PLAN,
            adapters(database, store, schedule, clock),
            policy=virtual_policy(clock),
        )
        assert report.tab == baseline.tab
        assert not report.degraded
        assert report.stats.retries == {"xmlartwork": 2}
        assert report.stats.total_retries == 2
        outcome = {o.source: o for o in report.outcomes}["xmlartwork"]
        assert outcome.retries == 2 and outcome.circuit == CLOSED

    def test_retries_exhausted_raises_source_unavailable(self):
        database, store = build_sources(n=8)
        clock = VirtualClock()
        schedule = FaultSchedule().fail("document", times=10)
        with pytest.raises(SourceUnavailableError) as excinfo:
            run_plan(
                Q1_UNION_PLAN,
                adapters(database, store, schedule, clock),
                policy=virtual_policy(clock),
            )
        assert excinfo.value.source == "xmlartwork"
        assert excinfo.value.attempts == 3

    def test_backoff_is_exponential_with_deterministic_jitter(self):
        retry = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0,
                            jitter=0.5, seed=1)
        first = retry.delay_for("wais", 1)
        second = retry.delay_for("wais", 2)
        third = retry.delay_for("wais", 3)
        assert retry.delay_for("wais", 1) == first  # deterministic
        assert 0.1 <= first <= 0.15
        assert 0.2 <= second <= 0.30
        assert 0.4 <= third <= 0.60
        assert retry.delay_for("other", 1) != first  # spread across sources

    def test_backoff_sleeps_through_the_policy_clock(self):
        database, store = build_sources(n=5)
        clock = VirtualClock()
        schedule = FaultSchedule().fail("document", times=2)
        run_plan(
            Q1_UNION_PLAN,
            adapters(database, store, schedule, clock),
            policy=virtual_policy(clock),
        )
        assert clock.time() > 0.0  # two backoff sleeps happened

    def test_pushdown_rejection_is_not_retried(self):
        database, store = build_sources(n=5)
        clock = VirtualClock()
        source_adapters = adapters(database, store)
        stats = ExecutionStats()
        runtime = virtual_policy(clock).start(RequestContext(stats=stats))
        calls = []

        def reject():
            calls.append(1)
            raise PushdownRejectedError("fragment outside capabilities")

        with pytest.raises(SourceUnavailableError):
            runtime.call("xmlartwork", "execute_pushed", reject)
        assert len(calls) == 1  # deterministic rejection: no second attempt
        assert stats.total_retries == 0


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_opens_after_n_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_circuit_stops_mid_plan_retries(self):
        """Once the breaker opens, later calls to the dead source fail
        fast — the inner adapter is not called again."""
        database, store = build_sources(n=8)
        clock = VirtualClock()
        schedule = FaultSchedule().dead_source()
        faulty = FaultyWrapper(WaisWrapper("xmlartwork", store), schedule,
                               sleep=clock.sleep)
        source_adapters = {
            "o2artifact": O2Wrapper("o2artifact", database),
            "xmlartwork": faulty,
        }
        policy = virtual_policy(
            clock,
            retry=RetryPolicy(max_attempts=3),
            circuit_failure_threshold=2,
            allow_partial_results=True,
        )
        report = run_plan(Q1_UNION_PLAN, source_adapters, policy=policy)
        assert report.degraded
        # Breaker opened on the 2nd failure, so the retry loop stopped at
        # 2 attempts and every later wais call was refused without
        # touching the adapter.
        assert faulty.injector.call_counts["document"] == 2
        assert faulty.injector.call_counts["ident_index"] == 0
        outcome = {o.source: o for o in report.outcomes}["xmlartwork"]
        assert outcome.circuit == OPEN

    def test_a_refused_call_is_no_failure(self):
        """Only attempts count as failures: the calls the open breaker
        refused never reached the source, and the last error recorded
        stays the source's real fault."""
        database, store = build_sources(n=8)
        clock = VirtualClock()
        faulty = FaultyWrapper(WaisWrapper("xmlartwork", store),
                               FaultSchedule().dead_source(), sleep=clock.sleep)
        policy = virtual_policy(
            clock,
            retry=RetryPolicy(max_attempts=3),
            circuit_failure_threshold=2,
            allow_partial_results=True,
        )
        report = run_plan(
            Q1_UNION_PLAN,
            {"o2artifact": O2Wrapper("o2artifact", database),
             "xmlartwork": faulty},
            policy=policy,
        )
        outcome = {o.source: o for o in report.outcomes}["xmlartwork"]
        assert outcome.failures == outcome.calls == 2
        assert "injected permanent fault" in outcome.error
        assert "injected permanent fault" in report.stats.last_errors["xmlartwork"]
        # A later call to the open circuit is still refused by name.
        runtime = PolicyRuntime(policy, RequestContext(stats=ExecutionStats()))
        runtime.breaker("xmlartwork").record_failure()
        runtime.breaker("xmlartwork").record_failure()
        with pytest.raises(SourceUnavailableError, match="circuit open"):
            runtime.call("xmlartwork", "document", lambda: None)
        assert not runtime.stats.failures


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------

class TestDegradation:
    def test_union_branch_drop_names_the_lost_source(self):
        database, store = build_sources()
        clock = VirtualClock()
        schedule = FaultSchedule().dead_source()
        report = run_plan(
            Q1_UNION_PLAN,
            adapters(database, store, schedule, clock),
            policy=virtual_policy(clock, allow_partial_results=True),
        )
        assert report.degraded
        assert "xmlartwork" in report.stats.dropped_sources
        assert "xmlartwork" in report.stats.failures
        # The surviving O2 branch answered: one row per artifact title.
        o2_only = run_plan(O2_TITLES_BRANCH, adapters(database, store))
        assert set(report.tab.rows) == set(o2_only.tab.distinct().rows)
        outcome = {o.source: o for o in report.outcomes}["xmlartwork"]
        assert outcome.dropped and outcome.error is not None
        # The outcome restates the request's stats; it keeps no copy.
        assert outcome.error == report.stats.dropped_sources["xmlartwork"]
        assert outcome.failures == report.stats.failures["xmlartwork"]

    def test_degradation_is_off_by_default(self):
        database, store = build_sources(n=8)
        clock = VirtualClock()
        schedule = FaultSchedule().dead_source()
        with pytest.raises(SourceUnavailableError):
            run_plan(
                Q1_UNION_PLAN,
                adapters(database, store, schedule, clock),
                policy=virtual_policy(clock),
            )

    def test_both_branches_down_raises_partial_result_error(self):
        database, store = build_sources(n=5)
        clock = VirtualClock()
        wais = FaultyWrapper(WaisWrapper("xmlartwork", store),
                             FaultSchedule().dead_source(), sleep=clock.sleep)
        o2 = FaultyWrapper(O2Wrapper("o2artifact", database),
                           FaultSchedule().dead_source(), sleep=clock.sleep)
        with pytest.raises(PartialResultError):
            run_plan(
                Q1_UNION_PLAN,
                {"o2artifact": o2, "xmlartwork": wais},
                policy=virtual_policy(clock, allow_partial_results=True),
            )

    def test_non_union_failures_still_propagate_under_degradation(self):
        database, store = build_sources(n=5)
        clock = VirtualClock()
        schedule = FaultSchedule().dead_source()
        with pytest.raises(SourceUnavailableError):
            run_plan(
                WAIS_GIVERNY_BRANCH,  # no Union to degrade through
                adapters(database, store, schedule, clock),
                policy=virtual_policy(clock, allow_partial_results=True),
            )


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_query_deadline_exceeded_raises(self):
        database, store = build_sources(n=8)
        clock = VirtualClock()
        schedule = FaultSchedule().delay("document", seconds=2.0)
        with pytest.raises(QueryDeadlineError):
            run_plan(
                Q1_UNION_PLAN,
                adapters(database, store, schedule, clock),
                policy=virtual_policy(clock, query_deadline=0.5),
            )

    def test_fast_queries_meet_the_deadline(self):
        database, store = build_sources(n=8)
        clock = VirtualClock()
        report = run_plan(
            Q1_UNION_PLAN,
            adapters(database, store),
            policy=virtual_policy(clock, query_deadline=10.0),
        )
        assert len(report.tab) > 0 and not report.degraded

    def test_backoff_respects_the_query_deadline(self):
        # Retries whose backoff sleeps past the deadline must abort.
        database, store = build_sources(n=8)
        clock = VirtualClock()
        schedule = FaultSchedule().fail("document", times=10, latency=0.4)
        with pytest.raises(QueryDeadlineError):
            run_plan(
                Q1_UNION_PLAN,
                adapters(database, store, schedule, clock),
                policy=virtual_policy(clock, query_deadline=0.5),
            )

    def test_per_call_timeout_counts_as_retryable_failure(self):
        database, store = build_sources(n=8)
        clock = VirtualClock()
        schedule = FaultSchedule().delay("document", seconds=0.5, times=2)
        report = run_plan(
            Q1_UNION_PLAN,
            adapters(database, store, schedule, clock),
            policy=virtual_policy(clock, call_timeout=0.1),
        )
        # Two slow calls were discarded and retried; the third was fast.
        assert report.stats.retries == {"xmlartwork": 2}
        assert not report.degraded


# ---------------------------------------------------------------------------
# Policy plumbing
# ---------------------------------------------------------------------------

class TestPolicyPlumbing:
    def test_direct_policy_is_a_no_op(self):
        # No policy is the one spelling of "no resilience": nothing is
        # wrapped, so there are no outcomes, and the answer is the one a
        # guarded run gives.
        database, store = build_sources(n=8)
        implicit = run_plan(Q1_UNION_PLAN, adapters(database, store))
        guarded = run_plan(Q1_UNION_PLAN, adapters(database, store),
                           policy=ResiliencePolicy())
        assert implicit.tab == guarded.tab
        assert implicit.outcomes == () and guarded.outcomes != ()
        assert not implicit.degraded
        assert not hasattr(ResiliencePolicy, "direct")

    def test_mediator_accepts_a_policy(self):
        database, store = build_sources(n=10)
        clock = VirtualClock()
        schedule = FaultSchedule().fail("document", times=1)
        mediator = Mediator(policy=virtual_policy(clock))
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.connect(FaultyWrapper(WaisWrapper("xmlartwork", store),
                                       schedule, sleep=clock.sleep))
        result = mediator.query(
            'MAKE doc [ * title: $t ] '
            'MATCH artworks WITH works . work [ title . $t ]'
        )
        assert result.report.stats.total_retries == 1
        assert not result.degraded
        assert len(result.document().children) == 10

    def test_report_document_error_is_a_mediator_error(self):
        database, store = build_sources(n=5)
        report = run_plan(Q1_UNION_PLAN, adapters(database, store))
        with pytest.raises(ExecutionReportError):
            report.document()  # a Tab of titles, not a single document

    def test_stats_as_dict_carries_resilience_fields(self):
        database, store = build_sources(n=8)
        clock = VirtualClock()
        schedule = FaultSchedule().dead_source()
        report = run_plan(
            Q1_UNION_PLAN,
            adapters(database, store, schedule, clock),
            policy=virtual_policy(clock, allow_partial_results=True),
        )
        data = report.stats.as_dict()
        assert data["degraded"] is True
        assert "xmlartwork" in data["dropped_sources"]
        assert data["failures"]["xmlartwork"] >= 1
        assert "DEGRADED" in report.stats.summary()
