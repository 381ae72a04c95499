"""The concurrent serving front-end over one :class:`Mediator`.

A :class:`MediatorServer` is a thread-pool front-end (the same bounded
worker model as :class:`~repro.core.algebra.scheduling.PlanScheduler`)
that accepts many simultaneous YATL sessions against one mediator — all
of them sharing its plan cache and compiled kernels, none of them
sharing per-request state, which travels in an explicit
:class:`~repro.observability.context.RequestContext` per admitted query.

Overload robustness is the design center:

* **bounded admission queue** — at ``queue_limit`` pending requests,
  submission fails immediately with
  :class:`~repro.errors.OverloadedError` instead of queuing without
  bound;
* **tiered shedding** — before outright rejection, low-priority requests
  are first flipped into the existing graceful-degradation mode
  (``allow_partial_results``), then shed, while high/normal traffic
  still queues;
* **per-tenant quotas** — token buckets reject over-quota tenants with
  :class:`~repro.errors.QuotaExceededError` before they touch the queue;
* **deadlines** — a per-request time budget becomes an absolute deadline
  on ``time.monotonic`` carried by the request context and enforced by
  the existing :class:`~repro.mediator.resilience.PolicyRuntime`
  machinery (and checked again when a worker picks the request up: a
  request that expired while queued fails without executing);
* **graceful drain** — :meth:`MediatorServer.drain` stops admission and
  lets in-flight work finish, so shutdown loses nothing it accepted.

Every rejection happens on the submitting caller's thread in constant
time and carries a ``retry_after`` hint, so clients back off instead of
hammering a server that is already busy.

How an admitted query executes is the mediator's, stated once on it:
the server reads ``mediator.execution`` (the ceiling of a per-request
override, and the parallelism a ticket's fan-out report compares with)
and ``mediator.policy`` (the base of a forced degradation), and
otherwise passes ``None`` so the mediator's own defaults apply.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Optional, Tuple

from repro.errors import (
    OverloadedError,
    QueryDeadlineError,
    QuotaExceededError,
)
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.mediator.resilience import ResiliencePolicy
from repro.observability.context import RequestContext
from repro.server.admission import PRIORITIES, ServiceEstimator, TokenBucket


class ServerConfig:
    """Immutable configuration of a :class:`MediatorServer`: its workers,
    admission tiers, quotas and metrics.  How an admitted query executes
    is not configured here: the server reads the mediator's own
    ``execution`` and ``policy`` defaults.

    ``degrade_depth`` and ``shed_depth`` default to half and
    three-quarters of ``queue_limit``: degradation starts when the queue
    is half full, low-priority shedding at three quarters, and the hard
    limit rejects everyone.  ``quotas`` maps tenant names to
    ``(rate, burst)`` token-bucket parameters; ``default_quota`` (same
    shape) applies to tenants not listed, and ``None`` — the default —
    means unmetered.
    """

    __slots__ = ("workers", "queue_limit", "degrade_depth", "shed_depth",
                 "quotas", "default_quota", "metrics")

    def __init__(
        self,
        workers: int = 4,
        queue_limit: int = 64,
        degrade_depth: Optional[int] = None,
        shed_depth: Optional[int] = None,
        quotas: Optional[Dict[str, Tuple[float, float]]] = None,
        default_quota: Optional[Tuple[float, float]] = None,
        metrics=None,
    ) -> None:
        if workers < 1:
            raise ValueError("a server needs at least one worker")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.workers = workers
        self.queue_limit = queue_limit
        self.degrade_depth = (
            degrade_depth if degrade_depth is not None else queue_limit // 2
        )
        self.shed_depth = (
            shed_depth if shed_depth is not None else (queue_limit * 3) // 4
        )
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        #: Optional :class:`~repro.observability.metrics.MetricsRegistry`
        #: receiving live ``yat_server_*`` series.
        self.metrics = metrics


def _degraded_variant(policy: Optional[ResiliencePolicy]) -> ResiliencePolicy:
    """*policy* with graceful degradation forced on.

    An absent base policy degrades to the minimal policy — no retries,
    no breaker tuning changes — because without a policy there is no
    runtime to drop branches with.  Every other field is the base's own,
    copied slot by slot.
    """
    if policy is None:
        return ResiliencePolicy(allow_partial_results=True)
    if policy.allow_partial_results:
        return policy
    fields = {name: getattr(policy, name) for name in policy.__slots__}
    fields["allow_partial_results"] = True
    return ResiliencePolicy(**fields)


class Ticket:
    """Handle on one admitted request; :meth:`result` blocks for it.

    The ticket is the request's one admission record: its tenant,
    priority, absolute deadline, ``degrade`` (shedding forced partial
    results) and queue time ``started_at - submitted_at``.
    """

    __slots__ = ("context", "request_id", "text", "tenant", "priority",
                 "deadline", "degrade", "execution", "submitted_at",
                 "shard_fanout", "fanout_capped",
                 "started_at", "completed_at", "_event", "_result", "_error")

    def __init__(
        self,
        context: RequestContext,
        text: str,
        degrade: bool,
        submitted_at: float,
        execution: Optional[ExecutionPolicy] = None,
        shard_fanout: int = 0,
        fanout_capped: bool = False,
    ) -> None:
        #: The request's :class:`RequestContext` (identity, absolute
        #: deadline, tracer), built once at admission; the worker executes
        #: under it.
        self.context = context
        self.request_id = context.request_id
        self.text = text
        self.tenant = context.tenant
        self.priority = context.priority
        self.deadline = context.deadline
        #: True when shedding flipped this request into degraded mode.
        self.degrade = degrade
        #: Per-request :class:`ExecutionPolicy` override (``None`` defers
        #: to the mediator's own).
        self.execution = execution
        #: Largest scatter fan-out a sharded source of this mediator can
        #: produce (0 when nothing is sharded).
        self.shard_fanout = shard_fanout
        #: True when that fan-out exceeds the request's effective
        #: scheduler parallelism: the scatter still runs and the answer
        #: is unchanged, but branches are (partially) serialized instead
        #: of all running at once.
        self.fanout_capped = fanout_capped
        self.submitted_at = submitted_at
        self.started_at: Optional[float] = None
        self.completed_at: Optional[float] = None
        self._event = threading.Event()
        self._result = None
        self._error: Optional[BaseException] = None

    def result(self, timeout: Optional[float] = None):
        """The :class:`~repro.mediator.mediator.QueryResult`, blocking
        until the request completes; re-raises the execution's error."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} did not complete in {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def _complete(self, result, error, now: float) -> None:
        self.completed_at = now
        self._result = result
        self._error = error
        self._event.set()

    def __repr__(self) -> str:
        state = "done" if self._event.is_set() else "pending"
        return (
            f"Ticket({self.request_id}, {self.tenant!r}/{self.priority}, "
            f"{state})"
        )


class MediatorServer:
    """Concurrent YATL serving with admission control over one mediator."""

    def __init__(self, mediator, config: Optional[ServerConfig] = None) -> None:
        self.mediator = mediator
        self.config = config if config is not None else ServerConfig()
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        #: One FIFO per priority; workers pop ``high`` before ``normal``
        #: before ``low``.
        self._queues: Dict[str, deque] = {p: deque() for p in PRIORITIES}
        self._depth = 0
        self._in_flight = 0
        self._buckets: Dict[str, Optional[TokenBucket]] = {}
        self._estimator = ServiceEstimator()
        self._draining = False
        self._stopping = False
        self._next_id = 0
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "admitted": 0,
            "completed": 0,
            "failed": 0,
            "expired": 0,
            "shed_overload": 0,
            "shed_quota": 0,
            "degraded_forced": 0,
            "result_cache_hits": 0,
        }
        self._init_metrics(self.config.metrics)
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"yat-serve-{index}",
                daemon=True,
            )
            for index in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- metrics ----------------------------------------------------------------

    def _init_metrics(self, registry) -> None:
        if registry is None:
            self._m_requests = None
            return
        self._m_requests = registry.counter(
            "yat_server_requests_total",
            "Requests by tenant and final outcome.",
            ("tenant", "outcome"),
        )
        self._m_depth = registry.gauge(
            "yat_server_queue_depth", "Requests waiting for a worker."
        )
        self._m_latency = registry.histogram(
            "yat_server_latency_seconds",
            "Submit-to-completion latency of admitted requests.",
            ("priority",),
        )
        self._m_queue_wait = registry.histogram(
            "yat_server_queue_seconds",
            "Time admitted requests spent waiting in the queue.",
        )

    def _record(self, tenant: str, outcome: str) -> None:
        if self._m_requests is not None:
            self._m_requests.labels(tenant=tenant, outcome=outcome).inc()

    # -- admission ----------------------------------------------------------------

    def _bucket(self, tenant: str) -> Optional[TokenBucket]:
        bucket = self._buckets.get(tenant)
        if bucket is None and tenant not in self._buckets:
            spec = self.config.quotas.get(tenant, self.config.default_quota)
            bucket = TokenBucket(*spec) if spec is not None else None
            self._buckets[tenant] = bucket
        return bucket

    def submit(
        self,
        text: str,
        tenant: str = "default",
        priority: str = "normal",
        deadline: Optional[float] = None,
        tracer=None,
        execution: Optional[ExecutionPolicy] = None,
    ) -> Ticket:
        """Admit one YATL query; returns a :class:`Ticket` or raises.

        *deadline* is a relative time budget in seconds (``None``: no
        budget); it bounds queueing *and* execution.  *tracer* records
        the request's execution: like the deadline, it is put on the
        request's context once, here.
        *execution* overrides the mediator's own
        :class:`ExecutionPolicy` for this one request — a client can run
        the ``serial()`` oracle for a differential check — but it must
        not claim more parallel workers than the
        mediator's policy grants (``ValueError`` otherwise, decided at
        submission so the caller finds out immediately, not through the
        ticket).  When the mediator serves sharded sources, the ticket
        additionally reports the largest possible scatter fan-out and
        whether the request's effective parallelism caps it
        (``Ticket.shard_fanout`` / ``Ticket.fanout_capped``) — a capped
        scatter is answer-preserving but partially serialized, and the
        server surfaces that instead of hiding it.
        Raises :class:`~repro.errors.QuotaExceededError` or
        :class:`~repro.errors.OverloadedError` — both carrying
        ``retry_after`` — when the request cannot be accepted; rejection
        never blocks on running queries.
        """
        if priority not in PRIORITIES:
            raise ValueError(
                f"unknown priority {priority!r}; expected one of {PRIORITIES}"
            )
        granted = self.mediator.execution
        if execution is not None and granted is not None:
            if execution.parallelism > granted.parallelism:
                raise ValueError(
                    f"per-request execution override asks for parallelism "
                    f"{execution.parallelism}, above the mediator's "
                    f"{granted.parallelism}"
                )
        now = time.monotonic()
        config = self.config
        with self._lock:
            self.counters["submitted"] += 1
            depth = self._depth
            if self._draining or self._stopping:
                self.counters["shed_overload"] += 1
                self._record(tenant, "shed")
                raise OverloadedError(
                    "server is draining; not accepting new requests",
                    retry_after=self._estimator.retry_after(
                        depth + self._in_flight, config.workers
                    ),
                )
            bucket = self._bucket(tenant)
            if bucket is not None:
                ok, wait = bucket.acquire(now)
                if not ok:
                    self.counters["shed_quota"] += 1
                    self._record(tenant, "quota")
                    raise QuotaExceededError(
                        f"tenant {tenant!r} is over its rate quota",
                        retry_after=wait,
                    )
            degrade = False
            if depth >= config.queue_limit or (
                depth >= config.shed_depth and priority == "low"
            ):
                self.counters["shed_overload"] += 1
                self._record(tenant, "shed")
                raise OverloadedError(
                    f"admission queue is full ({depth} pending)",
                    retry_after=self._estimator.retry_after(
                        depth, config.workers
                    ),
                )
            if depth >= config.degrade_depth and priority == "low":
                degrade = True
                self.counters["degraded_forced"] += 1
            absolute = now + deadline if deadline is not None else None
            effective = execution if execution is not None else granted
            catalog = getattr(self.mediator, "catalog", None)
            topologies = getattr(
                catalog, "shard_topologies", lambda: {}
            )()
            fanout = max(
                (topology.total for topology in topologies.values()), default=0
            )
            parallelism = effective.parallelism if effective is not None else 1
            self._next_id += 1
            ticket = Ticket(
                RequestContext(
                    request_id=f"r{self._next_id}",
                    tenant=tenant,
                    priority=priority,
                    deadline=absolute,
                    tracer=tracer,
                ),
                text=text,
                degrade=degrade,
                submitted_at=now,
                execution=execution,
                shard_fanout=fanout,
                fanout_capped=fanout > parallelism,
            )
            self._queues[priority].append(ticket)
            self._depth += 1
            self.counters["admitted"] += 1
            if self._m_requests is not None:
                self._m_depth.set(self._depth)
            self._work.notify()
        return ticket

    # -- the worker side ----------------------------------------------------------

    def _pop(self) -> Optional[Ticket]:
        for priority in PRIORITIES:
            queue = self._queues[priority]
            if queue:
                self._depth -= 1
                if self._m_requests is not None:
                    self._m_depth.set(self._depth)
                return queue.popleft()
        return None

    def _worker_loop(self) -> None:
        while True:
            with self._work:
                while self._depth == 0 and not self._stopping:
                    self._work.wait()
                if self._depth == 0 and self._stopping:
                    return
                ticket = self._pop()
                self._in_flight += 1
            try:
                self._execute(ticket)
            finally:
                with self._work:
                    self._in_flight -= 1
                    self._work.notify_all()

    def _execute(self, ticket: Ticket) -> None:
        now = time.monotonic()
        ticket.started_at = now
        queued = now - ticket.submitted_at
        if ticket.deadline is not None and now > ticket.deadline:
            # Expired while queued: fail without executing, under the
            # same typed error the in-flight deadline machinery raises.
            budget = ticket.deadline - ticket.submitted_at
            with self._lock:
                self.counters["expired"] += 1
            self._record(ticket.tenant, "expired")
            ticket._complete(
                None,
                QueryDeadlineError(
                    f"request {ticket.request_id} spent {queued:.3f}s in the "
                    f"admission queue, past its {budget:.3f}s deadline"
                ),
                time.monotonic(),
            )
            return
        # ``None`` defers to the mediator's own policy; a forced
        # degradation is that policy with partial results allowed.
        policy = (
            _degraded_variant(self.mediator.policy) if ticket.degrade else None
        )
        result = None
        error: Optional[BaseException] = None
        try:
            result = self.mediator.query(
                ticket.text,
                policy=policy,
                execution=ticket.execution,
                context=ticket.context,
            )
        except BaseException as exc:  # delivered through Ticket.result
            error = exc
        completed = time.monotonic()
        self._estimator.observe(completed - ticket.started_at)
        with self._lock:
            self.counters["completed" if error is None else "failed"] += 1
            if result is not None and getattr(result, "result_cached", False):
                self.counters["result_cache_hits"] += 1
        self._record(ticket.tenant, "ok" if error is None else "error")
        if self._m_requests is not None:
            self._m_latency.labels(priority=ticket.priority).observe(
                completed - ticket.submitted_at
            )
            self._m_queue_wait.observe(queued)
        ticket._complete(result, error, completed)

    # -- lifecycle ----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Snapshot of admission counters and current load."""
        with self._lock:
            snapshot: Dict[str, object] = dict(self.counters)
            snapshot["queue_depth"] = self._depth
            snapshot["in_flight"] = self._in_flight
            snapshot["mean_service_seconds"] = self._estimator.mean
            return snapshot

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting and wait for queued + in-flight work to finish.

        Returns ``True`` when the server is idle, ``False`` on timeout
        (work is still running; admission stays closed either way).
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._work:
            self._draining = True
            while self._depth > 0 or self._in_flight > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._work.wait(remaining)
        return True

    def close(self, timeout: Optional[float] = None) -> None:
        """Drain, then stop the worker threads."""
        self.drain(timeout)
        with self._work:
            self._stopping = True
            self._work.notify_all()
        for worker in self._workers:
            worker.join(timeout)

    def __enter__(self) -> "MediatorServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"MediatorServer(workers={self.config.workers}, "
            f"depth={stats['queue_depth']}, in_flight={stats['in_flight']}, "
            f"admitted={stats['admitted']}, shed={stats['shed_overload']})"
        )
