"""The metric contract: names, units, directions, bounds, predictions.

``BENCHMARK.json`` repeats the names, units, directions and bounds (the
self-test asserts the two agree); the ``moves`` column — which
end-to-end metric on which workload a layer metric is predicted to move
— lives here and in the README, written down before anything was
measured against it.
"""

from __future__ import annotations

from typing import List, NamedTuple

from benchmarks.e2e.workloads import OP_CLASSES


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may get worse.
    bound: float
    what: str


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "median per-op latency, client-observed: query text in, "
             "answer serialized with tree_to_xml out (writes: call to return). "
             "Serial workloads: an op's latency is its best across the rounds; "
             "served_mix: the latencies of the best round as a whole"),
    EndToEnd("op_p95_ms", "ms", "lower", 0.25,
             "95th percentile of the same (>= 200 ops per round, so >= 10 "
             "samples lie beyond it)"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "timed ops / the sum of the ops' latencies (serial workloads: a "
             "serial closed loop's wall time) or / the best round's wall time "
             "(served_mix), at the stated op count"),
    EndToEnd("source_wan_ms_per_op", "ms", "lower", 0.01,
             "the paper's transfer cost, modeled: (source calls x 20 ms + "
             "bytes transferred / 1 MB/s) / ops; no wall-clock term"),
    EndToEnd("ok_op_share", "ratio", "higher", 0.001,
             "1 - failed_op_share: ops that neither raised, were shed, timed "
             "out, came back degraded nor failed answer verification / ops "
             "attempted"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "build + warm-up (25% of the timed ops), best round"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "ru_maxrss of the workload's process when the last timed window "
             "closed, before any answer verification"),
]

#: The issue's ``failed_op_share`` is 0 on every workload, and the
#: contract's bounds are shares of the parent's median: of zero, nothing.
#: So the gated metric is its complement ``ok_op_share`` (1.0, bound 0.001
#: = the issue's +0.001 absolute); the share itself is printed beside it.
FAILED_OP_SHARE = "failed_op_share"
OK_OP_SHARE = "ok_op_share"

A, S, V, W = "adhoc_federated", "stored_descent", "served_mix", "sharded_wan"

PER_LAYER: List[Layer] = [
    Layer("yatl.parse_ms_per_op", "ms", "lower", f"op_p50_ms on {A}, {V}"),
    Layer("mediator.plan_ms_per_op", "ms", "lower",
          f"op_p50_ms on {A}; op_p95_ms on {S}"),
    Layer("mediator.plan_cache_hit_ratio", "ratio", "higher",
          f"op_p50_ms on {A}; op_p95_ms on {S}"),
    Layer("core.optimizer.cold_plan_ms", "ms", "lower",
          f"setup_s everywhere; op_p95_ms on {S}"),
    Layer("core.optimizer.rewrite_steps_per_plan", "count", "lower",
          f"setup_s everywhere; op_p95_ms on {S}"),
    Layer("mediator.execute_ms_per_op", "ms", "lower", "ops_per_s everywhere"),
    Layer("core.algebra.self_ms_per_op", "ms", "lower",
          f"op_p50_ms on {A}; op_p95_ms on {S}; none on {W}"),
    Layer("core.algebra.batched_calls_per_op", "count", "higher",
          f"source_wan_ms_per_op on {A}; ops_per_s on {W}"),
    Layer("core.algebra.call_cache_hits_per_op", "count", "higher",
          f"source_wan_ms_per_op on {A}; ops_per_s on {W}"),
    Layer("core.algebra.parallel_branches_per_op", "count", "higher",
          f"ops_per_s on {W}"),
    Layer("core.algebra.index_seeks_per_op", "count", "higher",
          f"op_p50_ms on {A}"),
    Layer("core.algebra.twig_matches_per_op", "count", "higher",
          f"op_p50_ms on {A}"),
    Layer("core.algebra.twig_fallbacks_per_op", "count", "lower",
          f"op_p50_ms on {A}"),
    Layer("wrappers.calls_per_op", "count", "lower",
          "source_wan_ms_per_op everywhere (the round-trip term)"),
    Layer("wrappers.kb_per_op", "KiB", "lower",
          "source_wan_ms_per_op everywhere (the transfer term)"),
    Layer("wrappers.busy_ms_per_op", "ms", "lower",
          f"ops_per_s, op_p95_ms on {A}"),
    Layer("wrappers.execute_pushed_ms_per_call", "ms", "lower",
          f"ops_per_s, op_p95_ms on {A}"),
    Layer("wrappers.document_ms_per_call", "ms", "lower",
          f"ops_per_s, op_p95_ms on {A}"),
    Layer("wrappers.failed_calls", "count", "lower",
          "failed ops everywhere"),
    Layer("wrappers.critical_path_ms_per_op", "ms", "lower",
          f"ops_per_s on {W}"),
    Layer("wrappers.overlap_ratio", "ratio", "higher",
          f"ops_per_s on {W}; 1.0 on the serial workloads"),
    Layer("sources.objectdb.oql_ms_per_call", "ms", "lower",
          f"ops_per_s on {A}"),
    Layer("sources.sharded.pruned_share", "ratio", "higher",
          f"source_wan_ms_per_op, op_p50_ms on {W}"),
    Layer("sources.sharded.failovers", "count", "lower",
          f"op_p95_ms on {W}"),
    Layer("store.pushdown_ms_per_call", "ms", "lower", f"op_p50_ms on {S}"),
    Layer("store.pushdown_share", "ratio", "higher",
          f"op_p50_ms, op_p95_ms on {S}"),
    Layer("store.hydrated_nodes_per_op", "count", "lower",
          f"op_p95_ms, peak_rss_mb on {S}"),
    Layer("store.write_ms_per_op", "ms", "lower", f"op_p95_ms on {S}"),
    Layer("store.shred_rows_per_s", "1/s", "higher",
          f"setup_s, op_p95_ms on {S}"),
    Layer("store.db_bytes_per_input_byte", "ratio", "lower",
          f"setup_s on {S}"),
    Layer("model.xml_io.serialize_ms_per_op", "ms", "lower",
          f"op_p50_ms on {A} (portal class)"),
    Layer("model.xml_io.answer_kb_per_op", "KiB", "lower",
          f"op_p50_ms on {A} (portal class)"),
    Layer("mediator.result_cache_hit_ratio", "ratio", "higher",
          f"op_p50_ms, ops_per_s on {V}; none elsewhere (cache off)"),
    Layer("mediator.result_cache_invalidations_per_write", "count", "lower",
          f"ops_per_s on {V}"),
    Layer("mediator.result_cache_flight_waits", "count", "lower",
          f"op_p95_ms on {V}"),
    Layer("server.queue_wait_ms_p50", "ms", "lower", f"op_p50_ms on {V}"),
    Layer("server.queue_wait_ms_p95", "ms", "lower", f"op_p95_ms on {V}"),
    Layer("server.service_ms_p50", "ms", "lower", f"op_p50_ms on {V}"),
    Layer("server.handoff_ms_p50", "ms", "lower", f"op_p50_ms on {V}"),
    Layer("server.shed_share", "ratio", "lower", f"failed ops on {V}"),
    Layer("server.degraded_share", "ratio", "lower", f"failed ops on {V}"),
    Layer("observability.trace_overhead_pct", "%", "lower",
          "none: end-to-end runs trace nothing"),
    Layer("observability.engine_tracer_overhead_pct", "%", "lower",
          f"none: the engine's Tracer is off in end-to-end runs ({A} only)"),
    Layer("process.cpu_ms_per_op", "ms", "lower", "attribution aid"),
    Layer("trace.stage_coverage", "ratio", "higher",
          "attribution aid: the worst serial op's stage spans / its wall time"),
] + [
    Layer(f"class.{klass}.op_p50_ms", "ms", "lower", "attribution aid")
    for klass in OP_CLASSES
]
