"""Counters, gauges and histograms with Prometheus text exposition.

A dependency-free metrics registry shaped like ``prometheus_client``:
:meth:`MetricsRegistry.counter` / :meth:`gauge` / :meth:`histogram`
declare metric families (optionally labelled), and
:meth:`MetricsRegistry.exposition` renders the whole registry in the
Prometheus text format (version 0.0.4) — ready to serve from a
``/metrics`` endpoint or scrape off disk.

Determinism matters here the same way it does for the tracer: histogram
bucket bounds are fixed at declaration (the default
:data:`DURATION_BUCKETS` ladder never depends on observed data), and the
exposition sorts families by name and children by label values, so two
identical runs expose byte-identical text.

:func:`record_execution` maps one
:class:`~repro.mediator.execution.ExecutionReport` onto the standard
``yat_*`` taxonomy — per-source transfer/call/retry counters, per-operator
evaluation counters, and per-operator wall-time histograms when the
report carries a trace.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DURATION_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "record_execution",
    "record_memo_stats",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Deterministic latency ladder (seconds): half-decade steps from 0.5 ms
#: to 10 s.  Chosen once; never derived from observed values.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Deterministic size ladder (bytes): powers of four from 256 B to 64 MB.
SIZE_BUCKETS: Tuple[float, ...] = tuple(256.0 * 4 ** i for i in range(10))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _format_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _Metric:
    """One child of a family: a concrete label-value combination."""

    __slots__ = ("family", "label_values")

    def __init__(self, family: "_Family", label_values: Tuple[str, ...]) -> None:
        self.family = family
        self.label_values = label_values


class Counter(_Metric):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, family: "_Family", label_values: Tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self.family.registry._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge(_Metric):
    """A value that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self, family: "_Family", label_values: Tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self.family.registry._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self.family.registry._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        return self._value


class Histogram(_Metric):
    """Cumulative-bucket histogram over fixed, declaration-time bounds."""

    __slots__ = ("_counts", "_sum", "_count")

    def __init__(self, family: "_Family", label_values: Tuple[str, ...]) -> None:
        super().__init__(family, label_values)
        self._counts = [0] * len(family.buckets)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self.family.registry._lock:
            self._sum += value
            self._count += 1
            for index, bound in enumerate(self.family.buckets):
                if value <= bound:
                    self._counts[index] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> Tuple[int, ...]:
        """Cumulative counts per bucket bound (excluding ``+Inf``)."""
        return tuple(self._counts)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """A named metric with a fixed label schema and typed children."""

    __slots__ = ("registry", "name", "help", "kind", "labelnames", "buckets",
                 "_children")

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help_text: str,
        kind: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = (),
    ) -> None:
        self.registry = registry
        self.name = name
        self.help = help_text
        self.kind = kind
        self.labelnames = labelnames
        self.buckets = buckets
        self._children: Dict[Tuple[str, ...], _Metric] = {}

    def labels(self, *values: object, **kwvalues: object) -> _Metric:
        """The child for one label-value combination (created on demand)."""
        if kwvalues:
            if values:
                raise ValueError("pass label values positionally or by name")
            try:
                values = tuple(str(kwvalues[name]) for name in self.labelnames)
            except KeyError as missing:
                raise ValueError(f"missing label {missing} for {self.name}") from None
            if len(kwvalues) != len(self.labelnames):
                raise ValueError(f"unexpected labels for {self.name}")
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {values!r}"
            )
        with self.registry._lock:
            child = self._children.get(values)
            if child is None:
                child = _KINDS[self.kind](self, values)
                self._children[values] = child
            return child

    def _default(self) -> _Metric:
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled {self.labelnames}; call .labels(...)"
            )
        return self.labels()

    # Unlabelled families act as their own single child.
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)  # type: ignore[attr-defined]

    def set(self, value: float) -> None:
        self._default().set(value)  # type: ignore[attr-defined]

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)  # type: ignore[attr-defined]

    def observe(self, value: float) -> None:
        self._default().observe(value)  # type: ignore[attr-defined]

    @property
    def value(self) -> float:
        return self._default().value  # type: ignore[attr-defined]

    def children(self) -> List[_Metric]:
        with self.registry._lock:
            return [self._children[key] for key in sorted(self._children)]


class MetricsRegistry:
    """A process-local collection of metric families."""

    def __init__(self, namespace: str = "") -> None:
        if namespace and not _NAME_RE.match(namespace):
            raise ValueError(f"invalid metric namespace {namespace!r}")
        self.namespace = namespace
        self._lock = threading.RLock()
        self._families: Dict[str, _Family] = {}

    def _declare(
        self,
        name: str,
        help_text: str,
        kind: str,
        labelnames: Iterable[str],
        buckets: Tuple[float, ...] = (),
    ) -> _Family:
        if self.namespace:
            name = f"{self.namespace}_{name}"
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} re-declared with a different schema"
                    )
                return family
            family = _Family(self, name, help_text, kind, labelnames, buckets)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()) -> _Family:
        return self._declare(name, help_text, "counter", labelnames)

    def gauge(self, name: str, help_text: str = "", labelnames: Iterable[str] = ()) -> _Family:
        return self._declare(name, help_text, "gauge", labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Sequence[float] = DURATION_BUCKETS,
    ) -> _Family:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket bound")
        return self._declare(name, help_text, "histogram", labelnames, bounds)

    # -- exposition -----------------------------------------------------------

    def exposition(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        with self._lock:
            families = [self._families[name] for name in sorted(self._families)]
        for family in families:
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.children():
                labels = _format_labels(family.labelnames, child.label_values)
                if family.kind == "histogram":
                    cumulative = child.bucket_counts()  # type: ignore[attr-defined]
                    for bound, count in zip(family.buckets, cumulative):
                        bucket_labels = _format_labels(
                            family.labelnames + ("le",),
                            child.label_values + (_format_value(bound),),
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {count}"
                        )
                    inf_labels = _format_labels(
                        family.labelnames + ("le",),
                        child.label_values + ("+Inf",),
                    )
                    lines.append(f"{family.name}_bucket{inf_labels} {child.count}")  # type: ignore[attr-defined]
                    lines.append(
                        f"{family.name}_sum{labels} {_format_value(child.sum)}"  # type: ignore[attr-defined]
                    )
                    lines.append(f"{family.name}_count{labels} {child.count}")  # type: ignore[attr-defined]
                else:
                    lines.append(
                        f"{family.name}{labels} {_format_value(child.value)}"  # type: ignore[attr-defined]
                    )
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        """Write :meth:`exposition` to *path* (scrape-off-disk pattern)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.exposition())


# ---------------------------------------------------------------------------
# The standard execution taxonomy
# ---------------------------------------------------------------------------

def record_execution(
    registry: MetricsRegistry,
    report,
    query: Optional[str] = None,
) -> None:
    """Fold one :class:`~repro.mediator.execution.ExecutionReport` into the
    ``yat_*`` metric taxonomy on *registry*.

    Per-source counters come from the report's
    :class:`~repro.core.algebra.stats.ExecutionStats`; per-operator
    wall-time histograms additionally need the report to carry a trace
    (``run_plan(..., tracer=...)`` attaches one).  *query* labels the
    per-query counters (defaults to ``"-"``).
    """
    label = query if query is not None else "-"
    stats = report.stats

    registry.counter(
        "yat_queries_total", "Plan executions recorded.", ("query",)
    ).labels(query=label).inc()
    registry.histogram(
        "yat_query_duration_seconds", "End-to-end plan execution wall time.",
        ("query",),
    ).labels(query=label).observe(report.elapsed)
    registry.counter(
        "yat_query_rows_total", "Result rows produced.", ("query",)
    ).labels(query=label).inc(len(report.tab))
    if report.degraded:
        registry.counter(
            "yat_degraded_queries_total",
            "Executions that returned a partial (degraded) answer.",
            ("query",),
        ).labels(query=label).inc()

    calls = registry.counter(
        "yat_source_calls_total", "Round trips per source.", ("source",)
    )
    rows = registry.counter(
        "yat_source_rows_transferred_total",
        "Rows received across the wrapper boundary.", ("source",),
    )
    transferred = registry.counter(
        "yat_source_bytes_transferred_total",
        "Bytes received across the wrapper boundary.", ("source",),
    )
    retries = registry.counter(
        "yat_source_retries_total", "Retried source calls.", ("source",)
    )
    failures = registry.counter(
        "yat_source_failures_total", "Failed source calls.", ("source",)
    )
    cache_hits = registry.counter(
        "yat_source_cache_hits_total",
        "Round trips avoided by the per-execution call cache.", ("source",),
    )
    for source, count in sorted(stats.source_calls.items()):
        calls.labels(source=source).inc(count)
    for source, count in sorted(stats.rows_transferred.items()):
        rows.labels(source=source).inc(count)
    for source, size in sorted(stats.bytes_transferred.items()):
        transferred.labels(source=source).inc(size)
    for source, count in sorted(stats.retries.items()):
        retries.labels(source=source).inc(count)
    for source, count in sorted(stats.failures.items()):
        failures.labels(source=source).inc(count)
    for source, count in sorted(stats.cache_hits.items()):
        cache_hits.labels(source=source).inc(count)

    evaluations = registry.counter(
        "yat_operator_evaluations_total",
        "Operator evaluations by kind.", ("operator",),
    )
    for operator, count in sorted(stats.operator_counts.items()):
        evaluations.labels(operator=operator).inc(count)
    registry.counter(
        "yat_mediator_rows_total", "Rows processed by mediator-side operators."
    ).inc(stats.mediator_rows)
    registry.counter(
        "yat_djoin_batched_calls_total",
        "DJoin right-branch evaluations avoided against one per outer row.",
    ).inc(stats.batched_calls)
    registry.counter(
        "yat_djoin_passed_keys_total",
        "Outer binding tuples shipped to sources in set-valued pushed calls.",
    ).inc(stats.passed_keys)
    registry.counter(
        "yat_parallel_branches_total",
        "Plan branches dispatched to the scheduler pool.",
    ).inc(stats.parallel_branches)
    registry.counter(
        "yat_twig_matches_total",
        "Bind targets matched by the holistic twig join.",
    ).inc(stats.twig_matches)
    registry.counter(
        "yat_twig_bindings_total",
        "Binding tuples produced by the holistic twig join.",
    ).inc(stats.twig_bindings)
    registry.counter(
        "yat_twig_fallbacks_total",
        "Targets of twig-fragment filters scanned for lack of an index.",
    ).inc(stats.twig_fallbacks)
    registry.counter(
        "yat_batch_operators_total",
        "Operator evaluations that ran on columnar batches.",
    ).inc(stats.batch_operators)
    registry.counter(
        "yat_batch_rows_total",
        "Rows carried by columnar batch operator evaluations.",
    ).inc(stats.batch_rows)
    registry.counter(
        "yat_shard_scatter_total",
        "Scatter branches evaluated over sharded logical sources.",
    ).inc(stats.shard_scatter)
    registry.counter(
        "yat_shard_pruned_total",
        "Shard branches skipped by partition-key pruning.",
    ).inc(stats.shard_pruned)
    registry.counter(
        "yat_shard_failovers_total",
        "Shard calls rerouted from a failed replica to the next one.",
    ).inc(stats.shard_failovers)
    registry.counter(
        "yat_store_pushdowns_total",
        "Pushed Binds answered by SQL interval self-joins in a document store.",
    ).inc(stats.store_pushdowns)
    registry.counter(
        "yat_store_scans_total",
        "Pushed Binds that fell back to a hydrated document scan.",
    ).inc(stats.store_scans)
    registry.counter(
        "yat_store_hydrated_nodes_total",
        "Nodes materialized from shredded document-store rows.",
    ).inc(stats.store_hydrated_nodes)
    registry.counter(
        "yat_store_bytes_avoided_total",
        "Serialized bytes pushdowns never transferred (untouched node share).",
    ).inc(stats.store_bytes_avoided)

    trace = getattr(report, "trace", None)
    if trace is not None:
        durations = registry.histogram(
            "yat_operator_duration_seconds",
            "Wall time per operator evaluation (inclusive of children).",
            ("operator",),
        )
        operator_rows = registry.counter(
            "yat_operator_rows_total", "Rows produced per operator kind.",
            ("operator",),
        )
        for span in trace.spans:
            if span.kind != "operator" or span.end is None:
                continue
            durations.labels(operator=str(span.attrs.get("operator", span.name))).observe(
                span.duration
            )
            produced = span.attrs.get("rows")
            if isinstance(produced, int):
                operator_rows.labels(
                    operator=str(span.attrs.get("operator", span.name))
                ).inc(produced)


#: ``yat_memo_<series>{memo=...}``: (series suffix, :meth:`Memo.stats` key, help).
_MEMO_SERIES = (
    ("entries", "entries", "Entries currently held per memo."),
    ("capacity", "capacity", "Bound per memo (entries; bytes for result_cache)."),
    ("hits", "hits", "Lookups served per memo."),
    ("misses", "misses", "Lookups that missed (and built) per memo."),
    ("stale", "stale", "Entries dropped because their version tag or the "
     "catalog epoch moved, per memo."),
    ("evictions_total", "evictions", "Entries evicted to stay under the "
     "bound, per memo."),
)

#: Cache numbers that are not a row of the memo family.
_EXTRA_GAUGES = (
    ("plan_cache", "yat_plan_cache_rebinds", "rebinds",
     "Cache hits served by rebinding constants into a cached plan."),
    ("result_cache", "yat_result_cache_bytes", "bytes",
     "Serialized bytes held by cached answers."),
    ("result_cache", "yat_result_cache_flight_waits", "flight_waits",
     "Concurrent misses that waited on another session's single-flight "
     "execution."),
    ("views", "yat_view_materialized", "declared",
     "Views declared materialized."),
    ("views", "yat_view_refreshes", "refreshes",
     "Materialized view refresh executions (cold + stale)."),
    ("views", "yat_view_serves", "serves",
     "Queries served from a materialized view document."),
    ("indexes", "yat_document_index_builds", "builds",
     "Document indexes built since start."),
    ("indexes", "yat_document_index_build_seconds", "build_seconds",
     "Cumulative wall time spent building document indexes."),
)


def record_memo_stats(registry: MetricsRegistry, mediator) -> None:
    """Export every memo as one ``yat_memo_*{memo=...}`` row.

    Rows come from the process-wide memos (Bind engines, predicate
    kernels, document indexes, column maps), the mediator's own
    (:meth:`Mediator.memo_stats`) and each connected adapter's
    ``memo_stats()``.  Gauges, not counters: the numbers are cumulative
    snapshots owned by the memos, so re-recording overwrites.  A memo
    whose ``evictions_total`` climbs is churning through more distinct
    keys than its bound holds.  The few cache numbers with no memo-family
    equivalent follow as plain gauges.
    """
    from repro.core.algebra.compiled import predicate_cache_stats
    from repro.core.algebra.engine import engine_cache_stats
    from repro.core.algebra.tab import column_map_stats
    from repro.model.indexes import index_registry_stats

    indexes = index_registry_stats()
    rows = {
        "bind_engines": engine_cache_stats(),
        "predicate_kernels": predicate_cache_stats(),
        "document_indexes": indexes,
        "column_maps": column_map_stats(),
    }
    rows.update(mediator.memo_stats())
    shredded = registry.gauge(
        "yat_store_rows_shredded",
        "Node rows written into a source's document store since process start.",
        ("source",),
    )
    for source, adapter in sorted(mediator.catalog.adapters().items()):
        memo_stats = getattr(adapter, "memo_stats", None)
        if memo_stats is not None:
            for memo, stats in memo_stats().items():
                rows[f"{source}.{memo}"] = stats
        store_stats = getattr(adapter, "store_stats", None)
        if store_stats is not None:
            shredded.labels(source=source).set(store_stats()["rows_shredded"])
    for suffix, key, help_text in _MEMO_SERIES:
        gauge = registry.gauge(f"yat_memo_{suffix}", help_text, ("memo",))
        for memo, stats in rows.items():
            if key in stats:
                gauge.labels(memo=memo).set(stats[key])
    extras = {"indexes": indexes}
    if mediator.plan_cache is not None:
        extras["plan_cache"] = mediator.plan_cache.stats()
    if mediator.result_cache is not None:
        extras["result_cache"] = mediator.result_cache.stats()
    if mediator.views.has_materialized():
        extras["views"] = mediator.views.materialized_stats()
    for owner, name, key, help_text in _EXTRA_GAUGES:
        if owner in extras:
            registry.gauge(name, help_text).set(extras[owner][key])
