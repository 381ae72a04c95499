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

from repro.core.algebra.stats import COUNTERS

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

    def labels(self, **values: object) -> _Metric:
        """The child for one label-value combination (created on demand)."""
        if values.keys() != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {sorted(values)}"
            )
        key = tuple(str(values[name]) for name in self.labelnames)
        with self.registry._lock:
            child = self._children.get(key)
            if child is None:
                child = _KINDS[self.kind](self, key)
                self._children[key] = child
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

    def observe(self, value: float) -> None:
        self._default().observe(value)  # type: ignore[attr-defined]

    def children(self) -> List[_Metric]:
        with self.registry._lock:
            return [self._children[key] for key in sorted(self._children)]


class MetricsRegistry:
    """A process-local collection of metric families."""

    def __init__(self) -> None:
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
    (a request context with a ``tracer`` attaches one).  *query* labels
    the per-query counters (defaults to ``"-"``).
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

    for attribute, series, help_text, by in COUNTERS:
        family = registry.counter(series, help_text, (by,) if by else ())
        value = getattr(stats, attribute)
        if by is None:
            family.inc(value)
            continue
        for key, count in sorted(value.items()):
            family.labels(**{by: key}).inc(count)
    evaluations = registry.counter(
        "yat_operator_evaluations_total",
        "Operator evaluations by kind.", ("operator",),
    )
    for operator, count in sorted(stats.operator_counts.items()):
        evaluations.labels(operator=operator).inc(count)

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

#: Result-cache numbers that are not a row of the memo family.
_RESULT_CACHE_GAUGES = (
    ("yat_result_cache_bytes", "bytes",
     "Serialized bytes held by cached answers."),
    ("yat_result_cache_flight_waits", "flight_waits",
     "Concurrent misses that waited on another session's single-flight "
     "execution."),
)


def record_memo_stats(registry: MetricsRegistry, mediator) -> None:
    """Export every memo as one ``yat_memo_*{memo=...}`` row.

    Rows come from the process-wide column-map memo, the mediator's own
    (:meth:`Mediator.memo_stats`) and each connected adapter's
    ``memo_stats()``.  Gauges, not counters: the numbers are cumulative
    snapshots owned by the memos, so re-recording overwrites.  A memo
    whose ``evictions_total`` climbs is churning through more distinct
    keys than its bound holds.  The few cache numbers with no memo-family
    equivalent follow as plain gauges.
    """
    from repro.core.algebra.tab import column_map_stats

    rows = {"column_maps": column_map_stats()}
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
    if mediator.result_cache is not None:
        stats = mediator.result_cache.stats()
        for name, key, help_text in _RESULT_CACHE_GAUGES:
            registry.gauge(name, help_text).set(stats[key])
