"""Per-request execution context and its cross-boundary propagation.

Per-execution state spread over several thread-local slots is exactly
the shape that breaks under concurrent serving: a pool thread that
evaluates branches for two different queries must switch *all* of it
atomically, or query A's wrapper calls run with query B's tracer or
engine mode.

This module keeps that state in one explicit
:class:`RequestContext` — the identity and execution state of a single
request.  It is the *one carrier* of per-request state: the tracer, the
request's :class:`~repro.core.algebra.stats.ExecutionStats`, the
parameters, the reference flag and the deadline reach the evaluator,
the scheduler's pool threads, the resilience runtime, the wrappers,
replica sets and the document store through it and through nothing
else (``tests/test_memo.py::test_one_carrier_for_request_state``
guards the rule).  Below ``run_plan`` it travels in one thread-local
slot — the same pattern OpenTelemetry uses for context propagation —
because the adapter protocol has no signature to pass it.

``run_plan`` derives the request's context once and activates it for
the duration of one evaluation; :meth:`RequestContext.bind` re-activates
it inside scheduler pool threads, together with the dispatching
thread's open span, so a pool shared by many concurrent requests always
observes the dispatching request's state.  When no context is active,
:func:`current_context` is a single thread-local attribute read
returning ``None`` — the disabled fast path.  :func:`current_tracer` is
a read-only view over the active context.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.algebra.stats import ExecutionStats
    from repro.observability.tracer import Tracer

_local = threading.local()


class RequestContext:
    """Everything one request carries through a federated execution.

    The context is *per request*: the serving layer builds a fresh one
    for every admitted query, and ``run_plan`` derives the executing one
    (with the request's fresh ``stats``) from whatever the caller passed.
    Fields fall in two groups:

    * identity — ``request_id``, ``tenant``, ``priority``: who this
      execution serves, used by serving metrics and admission records;
    * execution state — ``tracer``, ``stats``, ``reference``,
      ``deadline`` and ``params``.  ``stats`` is the
      :class:`~repro.core.algebra.stats.ExecutionStats` every layer
      records into (the store's pushdowns, a replica set's failovers);
      ``reference`` mirrors ``ExecutionPolicy.reference`` so wrappers can
      take their interpretive path under the oracle policy; ``params``
      is the request's parameter vector — the values of the query
      constants the plan cache lifted into
      :class:`~repro.core.algebra.expressions.Param` slots, read at
      execution time by every operator, kernel and wrapper.
      ``deadline`` is *absolute* (on the resilience policy's clock,
      ``time.monotonic`` by default).

    A context is never assigned to after construction: :meth:`replace`
    derives a new one, so a context may be shared between threads and
    reused across executions.
    """

    __slots__ = (
        "request_id", "tenant", "priority", "deadline",
        "tracer", "reference", "params", "stats",
    )

    def __init__(
        self,
        request_id: Optional[str] = None,
        tenant: str = "default",
        priority: str = "normal",
        deadline: Optional[float] = None,
        tracer: Optional["Tracer"] = None,
        reference: bool = False,
        params: Tuple[object, ...] = (),
        stats: Optional["ExecutionStats"] = None,
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.priority = priority
        self.deadline = deadline
        self.tracer = tracer
        self.reference = reference
        self.params = params
        self.stats = stats

    def replace(self, **overrides) -> "RequestContext":
        """A copy of this context with *overrides* applied."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(overrides)
        return RequestContext(**fields)

    def bind(self, thunk):
        """Wrap *thunk* so it runs with this context active.

        The scheduler binds every submitted thunk: whichever thread
        executes it — a pool thread, or the dispatching thread itself on
        the reclaim path — sees this request's state for the duration
        and has its previous context restored afterwards.  Under a
        tracer, the dispatching thread's open span is captured here and
        becomes the executing thread's parent span, so branches nest
        under the operator that dispatched them exactly as they would
        serially.
        """
        tracer = self.tracer
        parent = tracer.current() if tracer is not None else None

        def bound():
            previous = set_context(self)
            stack = tracer._stack() if tracer is not None else []
            depth = len(stack)
            if parent is not None:
                stack.append(parent)
            try:
                return thunk()
            finally:
                del stack[depth:]
                set_context(previous)

        return bound

    def __repr__(self) -> str:
        ident = self.request_id or "anonymous"
        return (
            f"RequestContext({ident}, tenant={self.tenant!r}, "
            f"priority={self.priority!r}, reference={self.reference})"
        )


def current_context() -> Optional[RequestContext]:
    """The request context active on this thread, or ``None``."""
    return getattr(_local, "context", None)


def set_context(context: Optional[RequestContext]) -> Optional[RequestContext]:
    """Install *context* on this thread; returns the previous value."""
    previous = getattr(_local, "context", None)
    _local.context = context
    return previous


@contextmanager
def activate_context(
    context: Optional[RequestContext],
) -> Iterator[Optional[RequestContext]]:
    """Make *context* the thread's active context for the ``with`` body.

    ``activate_context(None)`` is a supported no-op shape, so callers
    can wrap unconditionally instead of branching.
    """
    previous = set_context(context)
    try:
        yield context
    finally:
        set_context(previous)


def current_tracer() -> Optional["Tracer"]:
    """The tracer of this thread's active context, or ``None``."""
    context = getattr(_local, "context", None)
    return context.tracer if context is not None else None
