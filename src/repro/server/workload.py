"""A deterministic workload driver for :class:`MediatorServer`.

Two driver shapes, matching the two standard ways to load a server:

* :func:`run_closed_loop` — N clients, each submitting its next query
  as soon as the previous one answers.  Throughput self-limits to what
  the server sustains; this measures *capacity* (peak QPS, uncontended
  latency at 1 client).
* :func:`run_open_loop` — requests arrive on an exponential schedule at
  a fixed offered rate, regardless of how the server is doing.  Offered
  load can exceed capacity; this measures *overload behaviour* (shed
  rate, rejection latency, admitted-request p99, goodput).

The query mix is zipfian over the paper's Q1/Q2 and a portal grouping
query, with Q2's price constant drawn from a small set so one cached plan
serves several parameter vectors, and tenants drawn zipfian so
quotas see realistic skew.  Everything is seeded (``random.Random``);
two runs with the same seed offer the same requests in the same order.
Source faults are injected outside the driver — wrap the mediator's
adapters with :class:`repro.testing.faults.FaultyWrapper` before
starting the server (see ``tests/test_server.py``).
"""

from __future__ import annotations

import math
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datasets.paper_queries import Q1, Q2
from repro.errors import (
    AdmissionError,
    QueryDeadlineError,
    QuotaExceededError,
)

#: The portal grouping query (regroup titles under each artist).
PORTAL = """
MAKE catalogue [ *($a) artist [ name: $a, * title: $t ] ]
MATCH artworks WITH doc . work [ title . $t, artist . $a ]
"""

#: Q2 price constants — same plan shape, different binding, so repeats
#: execute the one cached parametric plan rather than re-planning.
Q2_PRICES = (1500000.0, 2000000.0, 2500000.0, 3000000.0)


def zipf_weights(n: int, s: float = 1.1) -> List[float]:
    """Unnormalized zipfian weights ``1/rank^s`` for *n* ranks."""
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]


def default_mix() -> List[Tuple[str, float, Callable[[random.Random], str]]]:
    """``(name, weight, text_factory)`` triples, zipf-weighted q1>q2>portal."""
    w1, w2, w3 = zipf_weights(3)
    return [
        ("q1", w1, lambda rng: Q1),
        ("q2", w2, lambda rng: Q2.replace(
            "2000000.0", repr(rng.choice(Q2_PRICES))
        )),
        ("portal", w3, lambda rng: PORTAL),
    ]


def default_tenants(n: int = 4) -> List[str]:
    return [f"tenant{i}" for i in range(n)]


#: Priority draw used by both drivers: mostly normal, a sheddable tail.
PRIORITY_WEIGHTS = (("high", 0.1), ("normal", 0.6), ("low", 0.3))


def _weighted_choice(rng: random.Random, pairs: Sequence[Tuple[str, float]]):
    total = sum(weight for _, weight in pairs)
    point = rng.random() * total
    for value, weight in pairs:
        point -= weight
        if point <= 0:
            return value
    return pairs[-1][0]


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty sample set."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class WorkloadResult:
    """Aggregated outcome of one driver run."""

    __slots__ = ("mode", "offered", "completed", "failed", "expired",
                 "shed", "quota_rejected", "degraded", "duration",
                 "latencies", "reject_seconds", "by_query")

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.offered = 0
        self.completed = 0
        self.failed = 0
        self.expired = 0
        self.shed = 0
        self.quota_rejected = 0
        self.degraded = 0
        self.duration = 0.0
        #: Submit-to-answer latency of each completed request (seconds).
        self.latencies: List[float] = []
        #: Time each *rejected* submit call took (the <5ms budget).
        self.reject_seconds: List[float] = []
        self.by_query: Dict[str, int] = {}

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies, 99)

    @property
    def qps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def shed_rate(self) -> float:
        rejected = self.shed + self.quota_rejected
        return rejected / self.offered if self.offered else 0.0

    @property
    def degraded_rate(self) -> float:
        return self.degraded / self.offered if self.offered else 0.0

    @property
    def goodput(self) -> float:
        """Completed fraction of offered load."""
        return self.completed / self.offered if self.offered else 0.0

    @property
    def max_reject_seconds(self) -> float:
        return max(self.reject_seconds) if self.reject_seconds else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "offered": self.offered,
            "completed": self.completed,
            "failed": self.failed,
            "expired": self.expired,
            "shed": self.shed,
            "quota_rejected": self.quota_rejected,
            "degraded": self.degraded,
            "duration_s": self.duration,
            "p50_s": self.p50,
            "p99_s": self.p99,
            "qps": self.qps,
            "shed_rate": self.shed_rate,
            "degraded_rate": self.degraded_rate,
            "goodput": self.goodput,
            "max_reject_s": self.max_reject_seconds,
            "by_query": dict(self.by_query),
        }

    def __repr__(self) -> str:
        return (
            f"WorkloadResult({self.mode}, offered={self.offered}, "
            f"completed={self.completed}, qps={self.qps:.1f}, "
            f"p99={self.p99 * 1e3:.1f}ms, shed={self.shed})"
        )


class _Draw:
    """One seeded request stream: query, tenant, priority per draw."""

    def __init__(self, seed, mix, tenants) -> None:
        self.rng = random.Random(seed)
        self.mix = mix if mix is not None else default_mix()
        tenants = tenants if tenants is not None else default_tenants()
        self.tenants = list(zip(tenants, zipf_weights(len(tenants))))
        self.query_weights = [(name, w) for name, w, _ in self.mix]
        self.factories = {name: factory for name, _, factory in self.mix}

    def next(self) -> Tuple[str, str, str, str]:
        name = _weighted_choice(self.rng, self.query_weights)
        return (
            name,
            self.factories[name](self.rng),
            _weighted_choice(self.rng, self.tenants),
            _weighted_choice(self.rng, PRIORITY_WEIGHTS),
        )


def _record_rejection(result: WorkloadResult, exc: AdmissionError,
                      elapsed: float, lock: threading.Lock) -> None:
    with lock:
        result.reject_seconds.append(elapsed)
        if isinstance(exc, QuotaExceededError):
            result.quota_rejected += 1
        else:
            result.shed += 1


def _record_completion(result: WorkloadResult, ticket,
                       lock: threading.Lock,
                       latency: Optional[float] = None) -> None:
    try:
        answer = ticket.result(timeout=60.0)
    except QueryDeadlineError:
        with lock:
            result.failed += 1
            result.expired += 1
        return
    except Exception:
        with lock:
            result.failed += 1
        return
    if latency is None:
        # Both stamps come from the server's clock, set by completion.
        latency = ticket.completed_at - ticket.submitted_at
    with lock:
        result.completed += 1
        result.latencies.append(latency)
        if answer.admission is not None and answer.admission.degraded_forced:
            result.degraded += 1


def run_closed_loop(
    server,
    clients: int = 4,
    requests_per_client: int = 25,
    seed: int = 0,
    mix=None,
    tenants: Optional[Sequence[str]] = None,
    deadline: Optional[float] = None,
) -> WorkloadResult:
    """*clients* synchronous sessions, each issuing its next query only
    after the previous answer arrives.  Measures sustainable capacity."""
    result = WorkloadResult("closed")
    lock = threading.Lock()

    def client(index: int) -> None:
        draw = _Draw(f"{seed}:closed:{index}", mix, tenants)
        for _ in range(requests_per_client):
            name, text, tenant, priority = draw.next()
            with lock:
                result.offered += 1
                result.by_query[name] = result.by_query.get(name, 0) + 1
            start = time.perf_counter()
            try:
                ticket = server.submit(
                    text, tenant=tenant, priority=priority, deadline=deadline
                )
            except AdmissionError as exc:
                _record_rejection(
                    result, exc, time.perf_counter() - start, lock
                )
                continue
            try:
                ticket.result(timeout=60.0)
            except Exception:
                pass  # accounted for in _record_completion below
            latency = time.perf_counter() - start
            _record_completion(result, ticket, lock, latency=latency)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"closed-{i}")
        for i in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.duration = time.perf_counter() - start
    return result


def run_open_loop(
    server,
    rate: float,
    requests: int = 100,
    seed: int = 0,
    mix=None,
    tenants: Optional[Sequence[str]] = None,
    deadline: Optional[float] = None,
) -> WorkloadResult:
    """Offer *requests* arrivals at *rate*/s (exponential inter-arrival),
    independent of how fast the server answers.  Measures overload
    behaviour: offered load above capacity must shed, not queue forever."""
    if rate <= 0:
        raise ValueError("open-loop rate must be positive")
    result = WorkloadResult("open")
    lock = threading.Lock()
    draw = _Draw(f"{seed}:open", mix, tenants)
    pending: List[Tuple[object, float]] = []
    start = time.perf_counter()
    next_arrival = 0.0
    for _ in range(requests):
        next_arrival += draw.rng.expovariate(rate)
        sleep_for = start + next_arrival - time.perf_counter()
        if sleep_for > 0:
            time.sleep(sleep_for)
        name, text, tenant, priority = draw.next()
        result.offered += 1
        result.by_query[name] = result.by_query.get(name, 0) + 1
        submit_start = time.perf_counter()
        try:
            ticket = server.submit(
                text, tenant=tenant, priority=priority, deadline=deadline
            )
        except AdmissionError as exc:
            _record_rejection(result, exc, time.perf_counter() - submit_start, lock)
            continue
        pending.append((ticket, submit_start))
    for ticket, _submitted in pending:
        _record_completion(result, ticket, lock)
    result.duration = time.perf_counter() - start
    return result
