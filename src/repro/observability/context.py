"""Per-request execution context and its cross-boundary propagation.

Per-execution state spread over several thread-local slots is exactly
the shape that breaks under concurrent serving: a pool thread that
evaluates branches for two different queries must switch *all* of it
atomically, or query A's wrapper calls run with query B's tracer or
engine mode.

This module keeps that state in one explicit
:class:`RequestContext` — the identity and execution state of a single
request — threaded through ``run_plan``, the evaluator environment, the
scheduler, and (via one thread-local slot, the same pattern
OpenTelemetry uses for context propagation) the wrapper boundary, whose
adapter protocol has no signature to pass it.

``run_plan`` activates the context for the duration of one evaluation;
:meth:`RequestContext.bind` re-activates it inside scheduler pool
threads, so a pool shared by many concurrent requests always observes
the dispatching request's tracer, reference flag and parameters.  When no
context is active, :func:`current_context` is a single thread-local
attribute read returning ``None`` — the disabled fast path.

:func:`current_tracer` (and its ``activate_tracer`` / ``set_tracer``
shapes) is a thin view over the active context for wrapper-side call
sites.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observability.tracer import Tracer

_local = threading.local()


class RequestContext:
    """Everything one request carries through a federated execution.

    The context is *per request*: the serving layer builds a fresh one
    for every admitted query, and ``run_plan`` builds an anonymous one
    when the caller passes none.  Fields fall in two groups:

    * identity — ``request_id``, ``tenant``, ``priority``: who this
      execution serves, used by serving metrics and admission records;
    * execution state — ``tracer``, ``reference``, ``deadline``: the
      state that used to live in per-thread globals — and ``params``,
      the request's parameter vector: the values of the query constants
      the plan cache lifted into
      :class:`~repro.core.algebra.expressions.Param` slots, read at
      execution time by every operator, kernel and wrapper (one cached
      plan serves every vector because no plan node holds one).
      ``reference`` mirrors
      ``ExecutionPolicy.reference`` (the evaluator environment sets it)
      so wrappers can take their interpretive path under the oracle
      policy.  ``deadline`` is *absolute* (on
      the resilience policy's clock, ``time.monotonic`` by default) and
      is folded into the
      :class:`~repro.mediator.resilience.PolicyRuntime` deadline
      machinery by ``run_plan``.

    A context is owned by exactly one in-flight execution at a time;
    reusing one across sequential executions is supported, sharing one
    between concurrent executions is not.
    """

    __slots__ = (
        "request_id", "tenant", "priority", "deadline",
        "tracer", "reference", "params",
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
    ) -> None:
        self.request_id = request_id
        self.tenant = tenant
        self.priority = priority
        self.deadline = deadline
        self.tracer = tracer
        self.reference = reference
        self.params = params

    def replace(self, **overrides) -> "RequestContext":
        """A copy of this context with *overrides* applied."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        fields.update(overrides)
        return RequestContext(**fields)

    def bind(self, thunk):
        """Wrap *thunk* so it runs with this context active.

        The scheduler binds every submitted thunk: whichever thread
        executes it — a pool thread, or the dispatching thread itself on
        the reclaim path — sees this request's tracer, reference flag and
        parameters for the duration, and has its previous context
        restored afterwards.
        """

        def bound():
            previous = set_context(self)
            try:
                return thunk()
            finally:
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


# ---------------------------------------------------------------------------
# Tracer views over the active context
# ---------------------------------------------------------------------------

def current_tracer() -> Optional["Tracer"]:
    """The tracer of this thread's active context, or ``None``."""
    context = getattr(_local, "context", None)
    return context.tracer if context is not None else None


def set_tracer(tracer: Optional["Tracer"]) -> Optional["Tracer"]:
    """Make *tracer* this thread's active tracer; returns the previous.

    Contexts may be shared across pool threads, so the active context is
    never mutated: a *derived* context (same request identity, different
    tracer) is installed instead.
    """
    context = getattr(_local, "context", None)
    previous = context.tracer if context is not None else None
    if context is None:
        if tracer is not None:
            _local.context = RequestContext(tracer=tracer)
    elif context.tracer is not tracer:
        _local.context = context.replace(tracer=tracer)
    return previous


@contextmanager
def activate_tracer(tracer: Optional["Tracer"]) -> Iterator[Optional["Tracer"]]:
    """Make *tracer* the thread's active tracer for the ``with`` body."""
    context = getattr(_local, "context", None)
    derived = (
        RequestContext(tracer=tracer)
        if context is None
        else context.replace(tracer=tracer)
    )
    previous = set_context(derived)
    try:
        yield tracer
    finally:
        set_context(previous)
