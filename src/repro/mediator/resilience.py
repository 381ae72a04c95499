"""Resilience policies for federated execution.

The paper's mediator (Figure 2) is fail-fast: one unreachable source
aborts the whole federated query.  This module adds the failure handling
real mediation stacks need, while keeping the happy path unchanged:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (hash of source and attempt, not a global RNG),
  so runs are reproducible;
* :class:`CircuitBreaker` — per-source closed/open breaker, so a dead
  source stops being retried mid-plan and later calls fail fast;
* per-call time budgets and a per-query deadline
  (:class:`~repro.errors.QueryDeadlineError`);
* graceful degradation — when ``allow_partial_results`` is set, the
  evaluator may drop a failed ``Union`` branch and return a partial
  answer, recorded on :class:`~repro.core.algebra.stats.ExecutionStats`
  and surfaced as ``degraded`` on the execution report.

A policy object is immutable configuration; :meth:`ResiliencePolicy.start`
creates the per-query mutable state (:class:`PolicyRuntime`: breakers,
deadline, outcome records).  No policy (``policy=None``, the default
at every call site) means no wrapping and no overhead.

Clocks and sleeping are injectable so tests drive time with a
:class:`~repro.testing.faults.VirtualClock`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro.errors import (
    PushdownRejectedError,
    QueryDeadlineError,
    SourceError,
    SourceTimeoutError,
    SourceUnavailableError,
)
from repro.core.algebra.evaluator import ForwardingAdapter, SourceAdapter
from repro.observability.context import RequestContext

T = TypeVar("T")

#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"


class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter."""

    __slots__ = ("max_attempts", "base_delay", "multiplier", "max_delay",
                 "jitter", "seed")

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        multiplier: float = 2.0,
        max_delay: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.seed = seed

    def delay_for(self, source: str, attempt: int) -> float:
        """Backoff before retry number *attempt* (1-based) against *source*.

        Jitter spreads delays over ``[raw, raw * (1 + jitter)]`` using a
        hash of ``(seed, source, attempt)`` — two runs with the same seed
        back off identically.
        """
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        digest = hashlib.sha256(
            f"{self.seed}:{source}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return raw * (1.0 + self.jitter * fraction)

    @staticmethod
    def is_retryable(error: BaseException) -> bool:
        """Transient-looking source errors are retryable; deterministic
        capability rejections and final unavailability verdicts are not."""
        if isinstance(error, (SourceUnavailableError, PushdownRejectedError)):
            return False
        return isinstance(error, SourceError)


class CircuitBreaker:
    """Per-source breaker: closed -> open after N consecutive failures.

    A breaker lives as long as its :class:`PolicyRuntime`, one query, so
    an open circuit stays open for the rest of that query: later calls
    to the source fail fast instead of retrying against it again.
    """

    __slots__ = ("failure_threshold", "state", "consecutive_failures")

    def __init__(self, failure_threshold: int = 5) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.state = CLOSED
        self.consecutive_failures = 0

    def allow(self) -> bool:
        """May a call proceed?"""
        return self.state == CLOSED

    def record_success(self) -> None:
        if self.state == CLOSED:
            self.consecutive_failures = 0

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.consecutive_failures >= self.failure_threshold:
            self.state = OPEN


class SourceOutcome:
    """What happened to one source over one query execution."""

    __slots__ = ("source", "calls", "retries", "failures", "circuit",
                 "dropped", "error")

    def __init__(
        self,
        source: str,
        calls: int = 0,
        retries: int = 0,
        failures: int = 0,
        circuit: str = CLOSED,
        dropped: bool = False,
        error: Optional[str] = None,
    ) -> None:
        self.source = source
        self.calls = calls
        self.retries = retries
        self.failures = failures
        self.circuit = circuit
        self.dropped = dropped
        #: Why the source was dropped, else its last failure message
        #: (``None`` when it never failed).
        self.error = error

    @property
    def ok(self) -> bool:
        return not self.dropped and self.circuit == CLOSED

    def __repr__(self) -> str:
        status = "dropped" if self.dropped else self.circuit
        return (
            f"SourceOutcome({self.source!r}, {status}, calls={self.calls}, "
            f"retries={self.retries}, failures={self.failures})"
        )


class ResiliencePolicy:
    """Immutable resilience configuration for federated execution.

    No policy at all (``policy=None``, the default everywhere) disables
    the whole layer: adapters are not wrapped and the evaluator behaves
    exactly as before.  ``ResiliencePolicy.default()`` enables retries
    and the breaker with conservative settings.
    """

    __slots__ = ("retry", "circuit_failure_threshold", "call_timeout",
                 "query_deadline", "allow_partial_results", "clock", "sleep")

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        circuit_failure_threshold: int = 5,
        call_timeout: Optional[float] = None,
        query_deadline: Optional[float] = None,
        allow_partial_results: bool = False,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.retry = retry
        self.circuit_failure_threshold = circuit_failure_threshold
        self.call_timeout = call_timeout
        self.query_deadline = query_deadline
        self.allow_partial_results = allow_partial_results
        self.clock = clock
        self.sleep = sleep

    @classmethod
    def default(cls, **overrides) -> "ResiliencePolicy":
        """Retrying defaults: 3 attempts, breaker at 5 consecutive failures."""
        settings = dict(retry=RetryPolicy())
        settings.update(overrides)
        return cls(**settings)

    def start(self, context: RequestContext) -> "PolicyRuntime":
        """Per-query runtime state for the request *context*.

        The runtime records into the context's ``stats``, traces guarded
        calls under its ``tracer``, and enforces whichever of the
        context's absolute ``deadline`` (on this policy's clock — the
        serving layer's per-request deadline) and the policy's own
        ``query_deadline`` comes first.
        """
        return PolicyRuntime(self, context)


class PolicyRuntime:
    """Mutable per-query state: breakers, deadline, per-source records.

    Safe under concurrent wrapped calls: breaker transitions and the
    per-source counters are guarded by one re-entrant lock, while the
    source call itself (and any backoff sleep) runs outside it — a slow
    source never serializes calls to other sources.
    """

    def __init__(self, policy: ResiliencePolicy, context: RequestContext) -> None:
        self.policy = policy
        self.stats = context.stats
        #: The request's tracer, or ``None``: when set, every guarded
        #: source call gets a ``source_call`` span recording attempts,
        #: retries and the final error.
        self.tracer = context.tracer
        deadline = context.deadline
        self._lock = threading.RLock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        #: Guarded attempts per scope (a replica set's replicas each
        #: have their own), the one count ``ExecutionStats`` lacks.
        self._calls: Dict[str, int] = {}
        self._started = policy.clock()
        own = (
            self._started + policy.query_deadline
            if policy.query_deadline is not None
            else None
        )
        # The earlier of the policy's relative budget and the absolute
        # deadline a serving layer imposed on this request.
        if own is None:
            self._deadline = deadline
        elif deadline is None:
            self._deadline = own
        else:
            self._deadline = min(own, deadline)

    # -- wiring ---------------------------------------------------------------

    def wrap(self, adapters: Dict[str, SourceAdapter]) -> Dict[str, SourceAdapter]:
        """Adapters guarded by this runtime (idempotent per name).

        A :class:`~repro.sources.sharded.adapter.ReplicaSet` is guarded
        *replica by replica*: it becomes a replica set of guarded
        replicas, each called under its own scope (``shard/r0``,
        ``shard/r1``, ...) with its own breaker and outcome record.  A
        replica whose guarded call still fails — retries exhausted or
        circuit open — fails over to the next one through the set's own
        loop, the one failover implementation.
        """
        from repro.sources.sharded.adapter import ReplicaSet

        wrapped: Dict[str, SourceAdapter] = {}
        for name, adapter in adapters.items():
            if isinstance(adapter, ReplicaSet):
                wrapped[name] = ReplicaSet(name, [
                    ResilientAdapter(adapter.replica_name(index), replica, self)
                    for index, replica in enumerate(adapter.replicas)
                ])
            else:
                wrapped[name] = ResilientAdapter(name, adapter, self)
        return wrapped

    def breaker(self, source: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(source)
            if breaker is None:
                breaker = CircuitBreaker(self.policy.circuit_failure_threshold)
                self._breakers[source] = breaker
            return breaker

    # -- deadlines ------------------------------------------------------------

    def check_deadline(self) -> None:
        if self._deadline is not None and self.policy.clock() > self._deadline:
            budget = self._deadline - self._started
            raise QueryDeadlineError(
                f"query exceeded its {budget:.3f}s deadline"
            )

    # -- the guarded call -------------------------------------------------------

    def call(self, source: str, operation: str, thunk: Callable[[], T]) -> T:
        """Run one source call under retry/backoff, breaker, and deadlines.

        Raises :class:`QueryDeadlineError` when the query is out of time
        and :class:`SourceUnavailableError` when the breaker is open or
        every attempt failed.
        """
        tracer = self.tracer
        if tracer is None:
            return self._guarded_call(source, operation, thunk, None)
        with tracer.start(
            f"{source}.{operation}",
            kind="source_call",
            source=source,
            operation=operation,
        ) as span:
            return self._guarded_call(source, operation, thunk, span)

    def _guarded_call(
        self, source: str, operation: str, thunk: Callable[[], T], span
    ) -> T:
        self.check_deadline()
        breaker = self.breaker(source)
        with self._lock:
            allowed = breaker.allow()
            consecutive = breaker.consecutive_failures
        if not allowed:
            self.stats.record_failure(source, "circuit open")
            raise SourceUnavailableError(
                f"source {source!r} is unavailable: circuit open after "
                f"{consecutive} consecutive failures",
                source=source,
            )
        retry = self.policy.retry
        max_attempts = retry.max_attempts if retry is not None else 1
        last_error: Optional[SourceError] = None
        attempt = 0
        while attempt < max_attempts:
            attempt += 1
            if span is not None:
                span.annotate(attempts=attempt)
            self.check_deadline()
            started = self.policy.clock()
            with self._lock:
                self._calls[source] = self._calls.get(source, 0) + 1
            try:
                result = thunk()
            except SourceUnavailableError:
                raise
            except SourceError as error:
                last_error = error
            else:
                elapsed = self.policy.clock() - started
                if (
                    self.policy.call_timeout is not None
                    and elapsed > self.policy.call_timeout
                ):
                    last_error = SourceTimeoutError(
                        f"{source}.{operation} took {elapsed:.3f}s "
                        f"(budget {self.policy.call_timeout:.3f}s)"
                    )
                else:
                    with self._lock:
                        breaker.record_success()
                    self.check_deadline()
                    return result
            # One attempt failed (error or per-call timeout).
            self.stats.record_failure(source, str(last_error))
            with self._lock:
                breaker.record_failure()
                breaker_open = breaker.state == OPEN
            if (
                attempt >= max_attempts
                or not RetryPolicy.is_retryable(last_error)
                or breaker_open
            ):
                break
            self.stats.record_retry(source)
            if span is not None:
                span.add("retries")
            self.policy.sleep(retry.delay_for(source, attempt))
        raise SourceUnavailableError(
            f"source {source!r} is unavailable after {attempt} attempt(s): "
            f"{last_error}",
            source=source,
            attempts=attempt,
        ) from last_error

    # -- reporting ---------------------------------------------------------------

    def outcomes(self) -> Tuple[SourceOutcome, ...]:
        """Per-source records for every source this runtime touched.

        Failures, retries, drops and their causes are read from the
        request's :class:`~repro.core.algebra.stats.ExecutionStats`;
        the runtime adds only its attempt counts and breaker states.
        """
        stats = self.stats
        with self._lock:
            # Every guarded scope gets its breaker before its first call.
            sources = set(self._breakers) | set(stats.dropped_sources)
            records = []
            for source in sorted(sources):
                breaker = self._breakers.get(source)
                records.append(
                    SourceOutcome(
                        source,
                        calls=self._calls.get(source, 0),
                        retries=stats.retries.get(source, 0),
                        failures=stats.failures.get(source, 0),
                        circuit=breaker.state if breaker is not None else CLOSED,
                        dropped=source in stats.dropped_sources,
                        error=stats.dropped_sources.get(
                            source, stats.last_errors.get(source)
                        ),
                    )
                )
            return tuple(records)


class ResilientAdapter(ForwardingAdapter):
    """A source adapter guarded by a :class:`PolicyRuntime`.

    Catalog metadata is forwarded unguarded (it is read during
    planning); each data-plane call goes through
    :meth:`PolicyRuntime.call` under the scope *name*.
    """

    def __init__(
        self, name: str, inner: SourceAdapter, runtime: PolicyRuntime
    ) -> None:
        super().__init__(inner)
        self.name = name
        self.runtime = runtime

    def _call(self, operation, invoke):
        return self.runtime.call(
            self.name, operation, lambda: invoke(self.inner)
        )
