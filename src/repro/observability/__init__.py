"""Query observability: operator tracing, metrics, EXPLAIN / EXPLAIN ANALYZE.

The paper's evaluation (Sections 5-6, Figures 8-9) argues about *where
work happens* — which subplans run natively at a source, how many round
trips information passing costs, how much data crosses each wrapper
boundary.  :class:`~repro.core.algebra.stats.ExecutionStats` reports
those quantities only in aggregate; this package makes the shape of an
execution observable:

* :mod:`repro.observability.tracer` — a low-overhead hierarchical span
  tracer (operator kind, plan node, rows, bytes, source calls, cache
  hits, retries, thread, wall/CPU time) with thread-aware parenting and
  Chrome-trace JSON export;
* :mod:`repro.observability.metrics` — a dependency-free metrics
  registry (counters, gauges, histograms with deterministic bucket
  bounds) with Prometheus text exposition and a per-source /
  per-operator taxonomy fed from execution reports;
* :mod:`repro.observability.explain` — the EXPLAIN / EXPLAIN ANALYZE
  renderer behind :meth:`repro.mediator.mediator.Mediator.explain` and
  the ``python -m repro.explain`` CLI.

Tracing is strictly opt-in: every hook starts with a single ``tracer is
None`` check, so the default path stays within noise of the
pre-instrumentation evaluator (see
``benchmarks/bench_observability_overhead.py``) and produces
byte-identical answers.
"""

from repro.observability.context import (
    RequestContext,
    activate_context,
    activate_tracer,
    current_context,
    current_tracer,
)
from repro.observability.explain import Explanation, NodeActuals, collect_actuals, render_plan
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    record_execution,
    record_memo_stats,
)
from repro.observability.tracer import Span, Tracer

__all__ = [
    "Counter",
    "Explanation",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeActuals",
    "RequestContext",
    "Span",
    "Tracer",
    "activate_context",
    "activate_tracer",
    "collect_actuals",
    "current_context",
    "current_tracer",
    "record_execution",
    "record_memo_stats",
    "render_plan",
]
