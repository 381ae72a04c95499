"""Reproduction of "On Wrapping Query Languages and Efficient XML Integration".

Christophides, Cluet & Simeon, SIGMOD 2000.

The package implements the paper's three contributions — the YAT XML
algebra, the source-capability description language, and the three-round
mediator optimizer — plus every substrate they need: a mini O2/ODMG
object database with an OQL engine, a Wais-style full-text XML store, a
sqlite3-backed SQL source, generic wrappers, and the YAT_L language.

Quickstart::

    from repro import Mediator, O2Wrapper, WaisWrapper
    from repro.datasets import CulturalDataset

    db, store = CulturalDataset(n_artifacts=20).build()
    mediator = Mediator()
    mediator.connect(O2Wrapper("o2artifact", db))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.load_program(VIEW1_YAT)           # the paper's view1.yat
    result = mediator.query(Q1)                 # the paper's Q1
    print(result.document().pretty())
"""

from repro.core.algebra import evaluate
from repro.core.optimizer import Optimizer, OptimizerContext
from repro.errors import OverloadedError, QuotaExceededError
from repro.mediator import (
    ExecutionPolicy,
    Mediator,
    QueryResult,
    ResiliencePolicy,
    ResultCache,
    RetryPolicy,
)
from repro.observability import (
    MetricsRegistry,
    RequestContext,
    Tracer,
    record_execution,
)
from repro.server import MediatorServer, ServerConfig
from repro.sources.stored import StoredXmlSource
from repro.wrappers import O2Wrapper, SqlWrapper, StoreWrapper, WaisWrapper
from repro.yatl import parse_program, parse_query

__version__ = "1.0.0"

__all__ = [
    "ExecutionPolicy",
    "Mediator",
    "MediatorServer",
    "MetricsRegistry",
    "O2Wrapper",
    "Optimizer",
    "OptimizerContext",
    "OverloadedError",
    "QueryResult",
    "QuotaExceededError",
    "RequestContext",
    "ResiliencePolicy",
    "ResultCache",
    "RetryPolicy",
    "ServerConfig",
    "SqlWrapper",
    "StoreWrapper",
    "StoredXmlSource",
    "Tracer",
    "WaisWrapper",
    "evaluate",
    "parse_program",
    "parse_query",
    "record_execution",
    "__version__",
]
