"""The YAT mediator (paper, Section 2, Figure 2).

The mediator holds no data: its plan and result caches are plain
:class:`~repro.memo.Memo` tables on :class:`Mediator` (``plan_cache``,
``plan_texts``, ``result_cache``).
"""

from repro.core.algebra.scheduling import ExecutionPolicy
from repro.mediator.catalog import Catalog
from repro.mediator.execution import ExecutionReport, run_plan
from repro.mediator.mediator import Mediator, QueryResult
from repro.mediator.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    RetryPolicy,
    SourceOutcome,
)
from repro.mediator.views import VIEW_SOURCE, ViewRegistry

__all__ = [
    "Catalog",
    "CircuitBreaker",
    "ExecutionPolicy",
    "ExecutionReport",
    "Mediator",
    "QueryResult",
    "ResiliencePolicy",
    "RetryPolicy",
    "SourceOutcome",
    "VIEW_SOURCE",
    "ViewRegistry",
    "run_plan",
]
