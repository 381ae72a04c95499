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
  bounds) with Prometheus text exposition and the ``yat_*`` series fed
  from execution reports.

The EXPLAIN / EXPLAIN ANALYZE renderer reads plans, which read this
package's request context, so it lives above both: :mod:`repro.explain`
holds the renderer behind :meth:`repro.mediator.mediator.Mediator.explain`
and the ``python -m repro.explain`` CLI.

Tracing is strictly opt-in: every hook starts with a single ``tracer is
None`` check, so the default path pays one attribute test per hook and
produces byte-identical answers.  What turning the tracer on costs is
the benchmark's ``observability.engine_tracer_overhead_pct``
(``benchmarks/e2e``).
"""

from repro.observability.context import (
    RequestContext,
    activate_context,
    current_context,
    current_tracer,
)
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
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestContext",
    "Span",
    "Tracer",
    "activate_context",
    "current_context",
    "current_tracer",
    "record_execution",
    "record_memo_stats",
]
