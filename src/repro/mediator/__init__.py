"""The YAT mediator (paper, Section 2, Figure 2)."""

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
from repro.mediator.result_cache import ResultCache
from repro.mediator.views import (
    VIEW_SOURCE,
    MaterializedViewSource,
    ViewRegistry,
)
from repro.observability.explain import Explanation

__all__ = [
    "Explanation",
    "Catalog",
    "CircuitBreaker",
    "ExecutionPolicy",
    "ExecutionReport",
    "MaterializedViewSource",
    "Mediator",
    "QueryResult",
    "ResiliencePolicy",
    "ResultCache",
    "RetryPolicy",
    "SourceOutcome",
    "VIEW_SOURCE",
    "ViewRegistry",
    "run_plan",
]
