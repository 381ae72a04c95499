"""Spans recorded from outside the engine, at the calls into each layer.

The benchmark owns its tracing: a :class:`SpanRecorder` keeps spans in
memory (name, start, end, parent, op id), :class:`SpanAdapter` — modelled
on :class:`repro.testing.FaultyWrapper` — records one span around every
data-plane call of a connected wrapper, and the helpers at the bottom
turn spans into busy time, critical path and self time (a span minus the
union of its children's intervals).  Nothing here is active in an
end-to-end run; only the traced round of ``--trace`` builds these.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import Row, Tab
from repro.model.trees import DataNode
from repro.observability.context import current_context
from repro.wrappers.base import Wrapper

# Span names: the stages of one serial op, and the wrapper calls.
OP = "op"
PARSE = "yatl.parse"
PLAN = "mediator.plan"
EXECUTE = "mediator.execute"
SERIALIZE = "model.xml_io.serialize"
WRITE = "write"
STAGES = (PARSE, PLAN, EXECUTE, SERIALIZE, WRITE)
DOCUMENT = "wrappers.document"
EXECUTE_PUSHED = "wrappers.execute_pushed"
IDENT_INDEX = "wrappers.ident_index"
ADAPTER_CALLS = (DOCUMENT, EXECUTE_PUSHED, IDENT_INDEX)


class Span:
    """One timed interval; a context manager that closes itself."""

    __slots__ = ("recorder", "name", "op", "parent", "source",
                 "start", "end", "failed")

    def __init__(self, recorder, name, op, parent, source) -> None:
        self.recorder = recorder
        self.name = name
        #: Op identifier shared by every span of one client operation:
        #: the op's index on serial workloads, the server's request id
        #: on the served one.
        self.op = op
        self.parent: Optional[Span] = parent
        self.source: Optional[str] = source
        self.start = 0.0
        self.end = 0.0
        self.failed = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        self.failed = exc_type is not None
        if self.recorder.current is self:
            self.recorder.current = None
        self.recorder.spans.append(self)  # list.append is atomic


class SpanRecorder:
    """In-memory span store for one traced round."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: The serial client's open stage span; wrapper calls made on
        #: its behalf (also from scheduler pool threads) hang under it.
        self.current: Optional[Span] = None

    def span(self, name: str, op, parent: Optional[Span] = None,
             source: Optional[str] = None) -> Span:
        return Span(self, name, op, parent, source)

    def stage(self, name: str, root: Span) -> Span:
        """A stage span of the serial client, made current while open."""
        span = Span(self, name, root.op, root, None)
        self.current = span
        return span

    def as_json(self) -> List[dict]:
        ids = {id(span): index for index, span in enumerate(self.spans)}
        return [
            {
                "id": index,
                "name": span.name,
                "op": span.op,
                "parent": ids.get(id(span.parent)),
                "source": span.source,
                "start": span.start,
                "end": span.end,
                "failed": span.failed,
            }
            for index, span in enumerate(self.spans)
        ]


class SpanAdapter(Wrapper):
    """A :class:`Wrapper` proxy recording a span per data-plane call.

    Planning-time surfaces pass through untouched; ``document``,
    ``ident_index`` and ``execute_pushed`` are timed.  Attributes the
    engine duck-types on some wrappers (``pop_store_stats``,
    ``pushdown_access``, ...) resolve on the inner wrapper.
    """

    def __init__(self, inner: Wrapper, recorder: SpanRecorder) -> None:
        super().__init__(inner.name)
        self.inner = inner
        self.recorder = recorder

    def __getattr__(self, name: str):
        # Only reached for attributes Wrapper itself does not define.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def _span(self, name: str) -> Span:
        context = current_context()
        request = context.request_id if context is not None else None
        parent = self.recorder.current
        if request is not None:
            return self.recorder.span(name, request, None, self.name)
        op = parent.op if parent is not None else None
        return self.recorder.span(name, op, parent, self.name)

    # -- planning-time passthrough ----------------------------------------------

    def build_interface(self):
        return self.inner.interface()

    def document_stats(self):
        return self.inner.document_stats()

    def estimate_text_selectivity(self, text: str):
        return self.inner.estimate_text_selectivity(text)

    def document_names(self) -> Tuple[str, ...]:
        return self.inner.document_names()

    def data_version(self) -> int:
        return self.inner.data_version()

    def memo_stats(self):
        return self.inner.memo_stats()

    # -- timed data plane ---------------------------------------------------------

    def build_document(self, name: str) -> DataNode:
        return self.inner.document(name)

    def document(self, name: str) -> DataNode:
        with self._span(DOCUMENT):
            return self.inner.document(name)

    def ident_index(self) -> Dict[str, DataNode]:
        with self._span(IDENT_INDEX):
            return self.inner.ident_index()

    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        with self._span(EXECUTE_PUSHED):
            return self.inner.execute_pushed(plan, outer)

    def run_fragment(self, fragment, plan, outer):
        return self.inner.run_fragment(fragment, plan, outer)


# -- interval arithmetic ---------------------------------------------------------


def union_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def clipped(spans: Iterable[Span], start: float, end: float):
    """The spans' intervals clipped to ``[start, end]``."""
    for span in spans:
        low, high = max(span.start, start), min(span.end, end)
        if high > low:
            yield low, high


def self_seconds(span: Span, children: Iterable[Span]) -> float:
    """*span*'s duration minus the part its children cover."""
    return span.seconds - union_seconds(clipped(children, span.start, span.end))
