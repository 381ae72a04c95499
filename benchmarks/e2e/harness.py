"""Rounds, clients and the end-to-end metrics.

One workload run is ``rounds`` rounds.  A round builds fresh state,
replays the warm-up ops (charged to set-up: they fill the plan cache,
kernels, document indexes and the result cache), replays the timed ops
— the *identical* op list in every round — and tears down.  Op counts
are fixed, never durations, so every count repeats exactly.

Noise is handled by replication.  On a shared machine noise only ever
*adds* time — a neighbour steals the core, an fsync stalls — while
everything the program itself decides (its own GC pauses included: they
fall on the same allocation counts in every round) repeats in every
round.  With one serial client nothing inside the program contends, so
an op's latency is the **best across rounds of that op's latency**,
percentiles are taken over those per-op values, and throughput is the
op count over their sum (a serial closed loop's wall time *is* the sum
of its latencies).  With several clients the contention between them —
the GIL, the worker pool — is what the workload prices, and a per-op
minimum would pick for every op the round in which it happened not to
wait; there the latencies and the throughput are those of the **best
round as a whole**.  Set-up is the best round's.  A noisy-neighbour
episode that ruins four rounds out of five moves nothing.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import sys
import threading
import time
import traceback
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from benchmarks.e2e import tracing
from benchmarks.e2e.opmix import Op

#: The paper's transfer-cost currency, priced with the constants of
#: ``benchmarks/report.py``'s ``wan_ms``: one source round trip is 20 ms
#: and the link moves 1 MB/s.  Modeled, deterministic, no wall clock.
WAN_RTT_MS = 20.0
WAN_BYTES_PER_MS = 1000.0

#: Warm-up ops per timed op (noise rule 3).
WARMUP_FRACTION = 0.25


def wan_ms(calls: int, nbytes: int) -> float:
    return calls * WAN_RTT_MS + nbytes / WAN_BYTES_PER_MS


class OpRecord(NamedTuple):
    """What the client saw of one op."""

    op: Op
    seconds: float
    answer: bytes
    calls: int
    nbytes: int
    failed: bool
    #: The op's ``ExecutionStats`` — kept in traced rounds only.
    stats: object
    root: Optional[tracing.Span]


class RoundResult:
    """Measurements of one round."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        #: The process's high-water mark when the timed window closed —
        #: before ``inspect``, so verification and probes stay out of it.
        self.peak_rss_mb = 0.0
        #: Per client, in op order.
        self.records: List[List[OpRecord]] = []
        self.counters_before: Dict[str, float] = {}
        self.counters_after: Dict[str, float] = {}
        #: Whatever the round's ``inspect`` hook returned.
        self.inspected = None

    @property
    def flat(self) -> List[OpRecord]:
        return [record for client in self.records for record in client]

    @property
    def latencies_ms(self) -> List[float]:
        return [record.seconds * 1e3 for record in self.flat]

    @property
    def failed(self) -> int:
        return sum(record.failed for record in self.flat)

    @property
    def answers_digest(self) -> str:
        digest = hashlib.sha256()
        for record in self.flat:
            digest.update(record.answer)
            digest.update(b"\0")
        return digest.hexdigest()

    @property
    def source_wan_ms_per_op(self) -> float:
        flat = self.flat
        calls = sum(record.calls for record in flat)
        nbytes = sum(record.nbytes for record in flat)
        return wan_ms(calls, nbytes) / len(flat)


#: Seconds a client waits at a rendezvous before giving up on its peers.
RENDEZVOUS_TIMEOUT = 120.0


def _client(session, ops: Sequence[Optional[Op]], recorder, out: List[OpRecord],
            rendezvous: Optional[threading.Barrier] = None) -> None:
    """One closed-loop client: the next op starts when the last answered.

    A ``None`` in the op list is a rendezvous with the other clients, not
    an op: nothing is recorded for it.
    """
    for op in ops:
        if op is None:
            rendezvous.wait(RENDEZVOUS_TIMEOUT)
            continue
        root = recorder.span(tracing.OP, len(out)) if recorder is not None else None
        stats = None
        calls = nbytes = 0
        started = time.perf_counter()
        try:
            if root is None:
                answer, report = session.run(op)
            else:
                with root:
                    answer, report = session.run(op, root)
            failed = False
            if report is not None:
                failed = report.degraded
                calls = report.stats.total_source_calls
                nbytes = report.stats.total_bytes_transferred
                if recorder is not None:
                    stats = report.stats
        except Exception:  # the client survives; the op counts as failed
            answer, failed = traceback.format_exc().encode(), True
        seconds = time.perf_counter() - started
        out.append(OpRecord(op, seconds, answer, calls, nbytes, failed, stats, root))


def drive(session, streams, recorder=None) -> List[List[OpRecord]]:
    """Replay one op list per client; one client runs on this thread."""
    outs: List[List[OpRecord]] = [[] for _ in streams]
    if len(streams) == 1:
        _client(session, streams[0], recorder, outs[0])
        return outs
    rendezvous = threading.Barrier(len(streams))
    threads = [
        threading.Thread(
            target=_client, args=(session, ops, recorder, out, rendezvous),
            name=f"e2e-client-{index}",
        )
        for index, (ops, out) in enumerate(zip(streams, outs))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outs


def run_round(
    workload,
    warm: Sequence[Sequence[Op]],
    timed: Sequence[Sequence[Op]],
    scratch: str,
    recorder: Optional[tracing.SpanRecorder] = None,
    inspect: Optional[Callable] = None,
) -> RoundResult:
    """Build, warm up, time, (inspect,) tear down.

    *inspect(session, result)* runs after the timed window on the still
    open session — answer verification and per-layer probes live there,
    outside both the timed and the set-up window.
    """
    result = RoundResult()
    gc.collect()
    started = time.perf_counter()
    session = workload.session(scratch, recorder)
    try:
        drive(session, warm)
        if recorder is not None:
            result.counters_before = session.counters()
        ready = time.perf_counter()
        cpu_started = time.process_time()
        result.records = drive(session, timed, recorder)
        result.wall_s = time.perf_counter() - ready
        result.cpu_s = time.process_time() - cpu_started
        result.setup_s = ready - started
        result.peak_rss_mb = peak_rss_mb()
        if recorder is not None:
            result.counters_after = session.counters()
        if inspect is not None:
            result.inspected = inspect(session, result)
    finally:
        session.close()
    return result


# -- aggregation --------------------------------------------------------------------


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread_pct(values: Sequence[float]) -> float:
    """(max - min) / min across rounds, in percent (informational): how
    much the worst round lost to noise."""
    return 100.0 * (max(values) - min(values)) / min(values)


def per_op_best_ms(rounds: Sequence[RoundResult]) -> List[float]:
    """Each op's latency: the best across rounds of that op."""
    return [min(column) for column in zip(*(r.latencies_ms for r in rounds))]


def end_to_end(rounds: Sequence[RoundResult], clients: int) -> Dict[str, float]:
    """The end-to-end metrics of one workload run, plus their spreads."""
    ops = len(rounds[0].flat)
    walls = [round_.wall_s for round_ in rounds]
    setups = [round_.setup_s for round_ in rounds]
    if clients == 1:
        latencies = per_op_best_ms(rounds)
        busy_s = sum(latencies) / 1e3
    else:
        best_round = min(rounds, key=lambda round_: round_.wall_s)
        latencies = best_round.latencies_ms
        busy_s = best_round.wall_s
    metrics = {
        "op_p50_ms": statistics.median(latencies),
        "op_p95_ms": percentile(latencies, 95),
        "ops_per_s": ops / busy_s,
        "source_wan_ms_per_op": statistics.median(
            round_.source_wan_ms_per_op for round_ in rounds
        ),
        "setup_s": min(setups),
        "peak_rss_mb": max(round_.peak_rss_mb for round_ in rounds),
    }
    metrics["op_p50_ms.spread_pct"] = spread_pct(
        [statistics.median(round_.latencies_ms) for round_ in rounds]
    )
    metrics["op_p95_ms.spread_pct"] = spread_pct(
        [percentile(round_.latencies_ms, 95) for round_ in rounds]
    )
    metrics["ops_per_s.spread_pct"] = spread_pct(walls)
    metrics["setup_s.spread_pct"] = spread_pct(setups)
    return metrics


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return maxrss / (1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0)
