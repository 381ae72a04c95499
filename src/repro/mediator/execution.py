"""Plan execution with measurement and resilience.

Thin wrapper around the algebra evaluator that times the run and bundles
the result Tab with the :class:`~repro.core.algebra.stats.ExecutionStats`
collected along the way — the unit benchmarks and examples report.

Execution runs under an optional
:class:`~repro.mediator.resilience.ResiliencePolicy`; without one it is
the historical fail-fast behavior with zero wrapping.  A retrying
policy guards each source call with retry/backoff, circuit breakers
and deadlines, and (when ``allow_partial_results`` is set) lets the
evaluator degrade gracefully — the report then carries
``degraded=True`` plus per-source :class:`SourceOutcome` records.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ExecutionReportError
from repro.core.algebra.evaluator import Environment, SourceAdapter, evaluate
from repro.core.algebra.operators import Plan
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.core.algebra.stats import ExecutionStats
from repro.core.algebra.tab import Tab
from repro.mediator.resilience import ResiliencePolicy, SourceOutcome
from repro.model.trees import DataNode
from repro.observability.context import RequestContext, activate_context


class ExecutionReport:
    """Outcome of one plan execution."""

    __slots__ = ("plan", "tab", "stats", "elapsed", "outcomes", "trace")

    def __init__(
        self,
        plan: Plan,
        tab: Tab,
        stats: ExecutionStats,
        elapsed: float,
        outcomes: Tuple[SourceOutcome, ...] = (),
        trace=None,
    ) -> None:
        self.plan = plan
        self.tab = tab
        self.stats = stats
        self.elapsed = elapsed
        #: Per-source resilience records (empty without a policy).
        self.outcomes = outcomes
        #: The :class:`~repro.observability.tracer.Tracer` that observed
        #: this execution, or ``None`` when tracing was off.
        self.trace = trace

    @property
    def degraded(self) -> bool:
        """True when part of the answer was dropped to keep the query alive."""
        return self.stats.degraded

    def document(self) -> DataNode:
        """The constructed document, for Tree-rooted plans."""
        if len(self.tab.columns) != 1 or len(self.tab) != 1:
            raise ExecutionReportError(
                "the plan did not produce a single document; inspect .tab instead"
            )
        cell = self.tab.column_data()[0][0]
        if not isinstance(cell, DataNode):
            raise ExecutionReportError(
                "the plan's single cell is not a document tree"
            )
        return cell

    def __repr__(self) -> str:
        degraded = ", degraded" if self.degraded else ""
        return (
            f"ExecutionReport(rows={len(self.tab)}, "
            f"bytes={self.stats.total_bytes_transferred}, "
            f"elapsed={self.elapsed:.4f}s{degraded})"
        )


def run_plan(
    plan: Plan,
    adapters: Dict[str, SourceAdapter],
    functions: Optional[Dict[str, Callable]] = None,
    policy: Optional[ResiliencePolicy] = None,
    execution: Optional[ExecutionPolicy] = None,
    context: Optional[RequestContext] = None,
) -> ExecutionReport:
    """Evaluate *plan* with fresh statistics and timing.

    Without a *policy* there are no retries and no breakers: fail-fast.
    Pass a retrying policy to guard the source calls.

    *execution* configures the federated scheduler.  The default policy
    keeps ``parallelism=1``: strictly serial evaluation order.  Pass
    :meth:`ExecutionPolicy.serial` for the reference engine (the
    differential oracle) or :meth:`ExecutionPolicy.parallel` for
    concurrent dispatch.

    *context* (a :class:`~repro.observability.context.RequestContext`)
    is the request this execution serves; ``None`` stands for a fresh
    anonymous one.  It is never modified: the execution runs under a
    context *derived* from it, carrying this run's fresh
    :class:`ExecutionStats` and the execution policy's reference flag,
    and that derived context is the one carrier of per-request state
    below this call — evaluator, scheduler pool threads, resilience
    runtime, wrappers, replica sets and the document store all read it.
    Its ``tracer`` (``None`` keeps the untraced fast path) records one
    hierarchical span per operator evaluation, guarded source call and
    wrapper-side native run, and is attached to the report as
    ``report.trace``; its ``deadline`` (absolute, on the resilience
    policy's clock) is folded into the per-query deadline machinery.
    """
    if execution is None:
        execution = ExecutionPolicy()
    context = (context if context is not None else RequestContext()).replace(
        stats=ExecutionStats(), reference=execution.reference
    )
    if policy is None and context.deadline is not None:
        # No policy means no runtime to enforce a deadline; a request
        # that carries one gets the minimal policy (no retries, no
        # partial results — still fail-fast).
        policy = ResiliencePolicy()
    runtime = policy.start(context) if policy is not None else None
    sources = runtime.wrap(adapters) if runtime is not None else adapters
    env = Environment(
        sources, functions=functions, policy=execution, context=context,
        allow_partial=policy is not None and policy.allow_partial_results,
    )
    tracer = context.tracer
    started = time.perf_counter()
    try:
        # The request context crosses the wrapper boundary thread-locally
        # (the adapter protocol keeps its signature); the scheduler
        # re-activates it on pool threads.
        with activate_context(context):
            if tracer is None:
                tab = evaluate(plan, env)
            else:
                with tracer.start("execute", kind="execution") as root:
                    tab = evaluate(plan, env)
                    root.annotate(rows=len(tab))
    finally:
        env.shutdown()
    elapsed = time.perf_counter() - started
    outcomes = runtime.outcomes() if runtime is not None else ()
    return ExecutionReport(
        plan, tab, context.stats, elapsed, outcomes=outcomes, trace=tracer
    )
