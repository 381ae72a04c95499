"""Hierarchical execution spans with thread-aware parenting.

A :class:`Tracer` records one span per traced unit of work — an operator
evaluation, a guarded source call, a wrapper-side fragment execution —
with wall and thread-CPU time, the owning thread, and free-form
attributes (plan node, rows in/out, bytes, source, retries).
Parenting is thread-aware: each thread keeps its own stack of open
spans, and :meth:`~repro.observability.context.RequestContext.bind`
carries the dispatching thread's open span into scheduler pool threads,
so branches evaluated concurrently by
:class:`~repro.core.algebra.scheduling.PlanScheduler` nest under the
operator that dispatched them exactly as they would serially.  A tracer
reaches the engine only as the request context's ``tracer``.

Design constraints, in order:

1. **Zero cost when off.**  Every hook reads the request's tracer and
   skips everything on ``None``; no tracer object, no clock reads.
2. **Determinism when serial.**  Span ids are sequential, spans are
   recorded in start order, and :meth:`Tracer.structure` projects a
   trace onto its timing-free shape — two runs under
   ``ExecutionPolicy.serial()`` produce identical structures.
3. **Tool-friendly export.**  :meth:`Tracer.chrome_trace` emits the
   Chrome/Perfetto ``traceEvents`` JSON (load in ``chrome://tracing``).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["Span", "Tracer"]


class Span:
    """One traced unit of work; finished spans are immutable in practice."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "kind",
        "start",
        "end",
        "cpu_start",
        "cpu_end",
        "thread_name",
        "attrs",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        kind: str,
        start: float,
        cpu_start: float,
        attrs: Dict[str, object],
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.start = start
        self.end: Optional[float] = None
        self.cpu_start = cpu_start
        self.cpu_end: Optional[float] = None
        self.thread_name = threading.current_thread().name
        self.attrs = attrs
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Wall seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    @property
    def cpu_time(self) -> float:
        """Thread-CPU seconds spent inside the span."""
        return 0.0 if self.cpu_end is None else self.cpu_end - self.cpu_start

    def annotate(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes on this span."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, amount: int = 1) -> None:
        """Increment a numeric attribute (creating it at 0)."""
        self.attrs[key] = self.attrs.get(key, 0) + amount  # type: ignore[operator]

    def finish(self) -> "Span":
        self._tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.finish()

    def __repr__(self) -> str:
        state = f"{self.duration * 1e3:.2f}ms" if self.end is not None else "open"
        return f"Span(#{self.span_id} {self.kind}:{self.name}, {state})"


class Tracer:
    """Collects spans for one or more executions.

    One tracer may observe several queries (its spans accumulate); a
    fresh tracer per query gives per-query traces.  All methods are
    thread-safe; the per-thread open-span stack lives in a
    ``threading.local``.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- span lifecycle -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def start(
        self,
        name: str,
        kind: str = "span",
        parent: Optional[Span] = None,
        **attrs: object,
    ) -> Span:
        """Open a span (child of *parent* or of the thread's current span)."""
        if parent is None:
            parent = self.current()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            span = Span(
                self,
                span_id,
                parent.span_id if parent is not None else None,
                name,
                kind,
                time.perf_counter(),
                time.thread_time(),
                dict(attrs),
            )
            self.spans.append(span)
        self._stack().append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.thread_time()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced finish; drop it and everything above
            del stack[stack.index(span):]

    def annotate(self, **attrs: object) -> None:
        """Attach attributes to the current span, if one is open."""
        span = self.current()
        if span is not None:
            span.annotate(**attrs)

    # -- inspection -----------------------------------------------------------

    def structure(self) -> Tuple[tuple, ...]:
        """The timing-free shape of the trace: nested
        ``(name, kind, attrs, children)`` tuples in start order.

        Thread names, span ids, clock readings and plan-node ids are
        excluded, so two serial runs of the same plan compare equal.
        """
        with self._lock:
            spans = list(self.spans)
        children: Dict[Optional[int], List[Span]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)

        volatile = {"node", "thread"}

        def project(span: Span) -> tuple:
            attrs = tuple(
                sorted(
                    (key, value)
                    for key, value in span.attrs.items()
                    if key not in volatile
                )
            )
            nested = tuple(
                project(child) for child in children.get(span.span_id, ())
            )
            return (span.name, span.kind, attrs, nested)

        return tuple(project(span) for span in children.get(None, ()))

    # -- export ---------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """The trace as a Chrome/Perfetto ``traceEvents`` dictionary."""
        with self._lock:
            spans = list(self.spans)
        tids: Dict[str, int] = {}
        events: List[Dict[str, object]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {"name": "yat-mediator"},
            }
        ]
        for span in spans:
            tid = tids.setdefault(span.thread_name, len(tids) + 1)
            args = {
                key: value
                if isinstance(value, (bool, int, float, str)) or value is None
                else repr(value)
                for key, value in span.attrs.items()
            }
            args["span_id"] = span.span_id
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args["cpu_ms"] = round(span.cpu_time * 1e3, 4)
            events.append(
                {
                    "name": span.name,
                    "cat": span.kind,
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((span.start - self._epoch) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "args": args,
                }
            )
        for name, tid in tids.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": name},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Write :meth:`chrome_trace` as JSON to *path*."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle, indent=1)

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def __repr__(self) -> str:
        return f"Tracer({len(self)} spans)"
