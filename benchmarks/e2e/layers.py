"""Per-layer metrics of one traced round.

Inputs are the benchmark's own spans (:mod:`benchmarks.e2e.tracing`),
the ``ExecutionStats`` of every traced op, before/after snapshots of the
engine's cumulative counters, and a few probes that need the round's
session while it is still open (cold planning, an OQL replay).  A layer
is a module path under ``src/repro``; a metric a workload does not
exercise reads 0.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List, Sequence

from repro.sources.objectdb import evaluate_oql, parse_oql
from repro.yatl import parse_query

from benchmarks.e2e import tracing
from benchmarks.e2e.harness import RoundResult, percentile
from benchmarks.e2e.workloads import OP_CLASSES, first_reads

#: Pushed OQL texts replayed for ``sources.objectdb.oql_ms_per_call``.
OQL_REPLAY_LIMIT = 400
COLD_PLAN_REPEATS = 3


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def _ms(seconds: float) -> float:
    return seconds * 1e3


def cold_planning(session, texts: Sequence[str]) -> Dict[str, float]:
    """Planning with every cache off, per query template."""
    mediator = session.cold_mediator()
    medians, steps = [], []
    for text in texts:
        query = parse_query(text)
        samples = []
        for _ in range(COLD_PLAN_REPEATS):
            started = time.perf_counter()
            _naive, _plan, trace = mediator.plan_query(query)
            samples.append(time.perf_counter() - started)
        medians.append(statistics.median(samples))
        steps.append(len(trace))
    return {
        "core.optimizer.cold_plan_ms": _ms(statistics.median(medians)),
        "core.optimizer.rewrite_steps_per_plan": statistics.mean(steps),
    }


def oql_replay_ms(database, natives: Sequence[str]) -> float:
    """Mean time of the pushed OQL texts run straight at the database —
    wrapper time minus this is translation and XML conversion."""
    texts = natives[:OQL_REPLAY_LIMIT]
    started = time.perf_counter()
    for text in texts:
        evaluate_oql(parse_oql(text), database)
    return _ms(_per(time.perf_counter() - started, len(texts)))


def layer_metrics(
    session,
    traced: RoundResult,
    recorder: tracing.SpanRecorder,
    untraced_walls: Sequence[float],
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric for *traced*, the round *recorder* saw."""
    records = traced.flat
    ops = len(records)
    reads = [record for record in records if record.stats is not None]
    by_op: Dict[object, List[tracing.Span]] = defaultdict(list)
    for span in recorder.spans:
        by_op[span.op].append(span)

    stage_s: Dict[str, float] = defaultdict(float)
    call_s: Dict[str, List[float]] = defaultdict(list)
    busy_s = critical_s = algebra_self_s = execute_s = plan_s = 0.0
    failed_calls = 0
    coverage = 1.0
    pushdown_call_s: List[float] = []
    served = {"queue": [], "service": [], "handoff": []}
    tickets = getattr(session, "tickets", {})

    for record in records:
        spans = by_op[record.root.op]
        calls = [span for span in spans if span.name in tracing.ADAPTER_CALLS]
        stages = {span.name: span for span in spans if span.name in tracing.STAGES}
        for name, span in stages.items():
            stage_s[name] += span.seconds
        coverage = min(
            coverage,
            sum(span.seconds for span in stages.values()) / record.root.seconds,
        )
        for span in calls:
            call_s[span.name].append(span.seconds)
            failed_calls += span.failed
        busy = sum(span.seconds for span in calls)
        critical = tracing.union_seconds((span.start, span.end) for span in calls)
        busy_s += busy
        critical_s += critical
        if record.root.op in tickets:
            # Served read: the worker ran Mediator.query as one unit, so
            # the engine's own elapsed time stands in for the execute
            # stage and the rest of the service time is parse + plan +
            # cache probes.
            ticket, result = tickets[record.root.op]
            queue = ticket.started_at - ticket.submitted_at
            service = ticket.completed_at - ticket.started_at
            serialize = stages[tracing.SERIALIZE].seconds
            served["queue"].append(_ms(queue))
            served["service"].append(_ms(service))
            served["handoff"].append(
                _ms(record.seconds - queue - service - serialize)
            )
            execute = result.report.elapsed
            plan_s += service - execute
            execute_s += execute
            algebra_self_s += execute - critical
        elif tracing.EXECUTE in stages:
            execute = stages[tracing.EXECUTE]
            execute_s += execute.seconds
            algebra_self_s += tracing.self_seconds(execute, calls)
            plan_s += stages[tracing.PLAN].seconds
        stats = record.stats
        if stats is not None and stats.store_pushdowns and not stats.store_scans:
            pushdown_call_s.extend(
                span.seconds for span in calls
                if span.name == tracing.EXECUTE_PUSHED
            )

    def stat_sum(name: str) -> float:
        return sum(getattr(record.stats, name) for record in reads)

    def delta(name: str) -> float:
        return traced.counters_after.get(name, 0) - traced.counters_before.get(name, 0)

    def ratio(hits: float, misses: float) -> float:
        return _per(hits, hits + misses)

    writes = [record for record in records if record.op.write is not None]
    pushdowns, scans = stat_sum("store_pushdowns"), stat_sum("store_scans")
    pruned, scattered = stat_sum("shard_pruned"), stat_sum("shard_scatter")
    untraced_wall = statistics.median(untraced_walls)
    serial = not tickets

    values = {
        "yatl.parse_ms_per_op": _ms(_per(stage_s[tracing.PARSE], ops)),
        "mediator.plan_ms_per_op": _ms(_per(plan_s, ops)),
        "mediator.plan_cache_hit_ratio": ratio(
            delta("plan_cache.hits"), delta("plan_cache.misses")
        ),
        "mediator.execute_ms_per_op": _ms(_per(execute_s, ops)),
        "core.algebra.self_ms_per_op": _ms(_per(algebra_self_s, ops)),
        "core.algebra.batched_calls_per_op": _per(stat_sum("batched_calls"), ops),
        "core.algebra.call_cache_hits_per_op": _per(
            stat_sum("total_cache_hits"), ops
        ),
        "core.algebra.parallel_branches_per_op": _per(
            stat_sum("parallel_branches"), ops
        ),
        "core.algebra.index_seeks_per_op": _per(stat_sum("bind_index_seeks"), ops),
        "core.algebra.twig_matches_per_op": _per(stat_sum("twig_matches"), ops),
        "core.algebra.twig_fallbacks_per_op": _per(stat_sum("twig_fallbacks"), ops),
        "wrappers.calls_per_op": _per(sum(r.calls for r in records), ops),
        "wrappers.kb_per_op": _per(sum(r.nbytes for r in records), ops) / 1024.0,
        "wrappers.busy_ms_per_op": _ms(_per(busy_s, ops)),
        "wrappers.execute_pushed_ms_per_call": _ms(
            _per(sum(call_s[tracing.EXECUTE_PUSHED]), len(call_s[tracing.EXECUTE_PUSHED]))
        ),
        "wrappers.document_ms_per_call": _ms(
            _per(sum(call_s[tracing.DOCUMENT]), len(call_s[tracing.DOCUMENT]))
        ),
        "wrappers.failed_calls": failed_calls,
        "wrappers.critical_path_ms_per_op": _ms(_per(critical_s, ops)),
        "wrappers.overlap_ratio": _per(busy_s, critical_s),
        "sources.sharded.pruned_share": ratio(pruned, scattered),
        "sources.sharded.failovers": stat_sum("shard_failovers"),
        "store.pushdown_ms_per_call": _ms(
            _per(sum(pushdown_call_s), len(pushdown_call_s))
        ),
        "store.pushdown_share": ratio(pushdowns, scans),
        "store.hydrated_nodes_per_op": _per(stat_sum("store_hydrated_nodes"), ops),
        "store.write_ms_per_op": (
            _ms(_per(sum(r.seconds for r in writes), len(writes)))
            if "store.rows_shredded" in traced.counters_after else 0.0
        ),
        "store.shred_rows_per_s": 0.0,
        "store.db_bytes_per_input_byte": 0.0,
        "model.xml_io.serialize_ms_per_op": _ms(
            _per(stage_s[tracing.SERIALIZE], ops)
        ),
        "model.xml_io.answer_kb_per_op": _per(
            sum(len(r.answer) for r in reads), ops
        ) / 1024.0,
        "mediator.result_cache_hit_ratio": ratio(
            delta("result_cache.hits"), delta("result_cache.misses")
        ),
        "mediator.result_cache_invalidations_per_write": (
            _per(delta("result_cache.invalidations"), len(writes))
            if "result_cache.hits" in traced.counters_after else 0.0
        ),
        "mediator.result_cache_flight_waits": delta("result_cache.flight_waits"),
        "server.queue_wait_ms_p50": _median(served["queue"]),
        "server.queue_wait_ms_p95": percentile(served["queue"] or [0.0], 95),
        "server.service_ms_p50": _median(served["service"]),
        "server.handoff_ms_p50": _median(served["handoff"]),
        "server.shed_share": _per(
            delta("server.shed_overload") + delta("server.shed_quota"),
            delta("server.submitted"),
        ),
        "server.degraded_share": _per(
            delta("server.degraded_forced"), delta("server.submitted")
        ),
        "observability.trace_overhead_pct": (
            100.0 * (traced.wall_s - untraced_wall) / untraced_wall
        ),
        "observability.engine_tracer_overhead_pct": 0.0,
        "process.cpu_ms_per_op": _ms(_per(traced.cpu_s, ops)),
        "trace.stage_coverage": coverage if serial else 0.0,
    }

    by_class: Dict[str, List[float]] = defaultdict(list)
    for record in records:
        by_class[record.op.klass].append(_ms(record.seconds))
    for klass in OP_CLASSES:
        values[f"class.{klass}.op_p50_ms"] = _median(by_class[klass])
    values.update(session.ingest_metrics())

    templates = [op.text for op in first_reads(record.op for record in records)]
    values.update(cold_planning(session, templates))
    natives = [
        native
        for record in reads
        for source, native in record.stats.native_queries
        if source == "o2artifact"
    ]
    database = getattr(session, "database", None)
    values["sources.objectdb.oql_ms_per_call"] = (
        oql_replay_ms(database, natives) if database is not None and natives else 0.0
    )
    return values


def _median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0
