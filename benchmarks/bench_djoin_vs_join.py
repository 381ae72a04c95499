"""E3: information passing against the bulk join, by driving cardinality.

The paper's Figure 9 bind join calls the inner source once per driving
row.  It wins when the driving side is small (a selective pushed
predicate) and loses when it is large — the classic distributed
trade-off the paper cites ([30], [21]).  Passing the driving rows as one
*set* removes the trade-off: two calls at every selectivity, and only
matching rows transferred.  This bench sweeps the driving cardinality
through the ``contains`` selectivity and records all three: the
set-valued bind join (the default plan), the per-row bind join (the
paper's behaviour, under ``ExecutionPolicy.serial()``) and the bulk join
(rounds 1-2 only).  ``tests/test_information_passing.py`` holds the
deterministic counter version.
"""

import pytest

from repro import ExecutionPolicy
from repro.datasets import CulturalDataset, Q2
from benchmarks.conftest import make_mediator

FRACTIONS = [0.05, 0.3, 0.9]


def _sources(fraction):
    return CulturalDataset(
        n_artifacts=150, impressionist_fraction=fraction, seed=6
    ).build()


def _run(benchmark, fraction, **query_options):
    mediator = make_mediator(*_sources(fraction))
    reference = mediator.query(Q2, optimize=False).document()
    result = benchmark(mediator.query, Q2, **query_options)
    assert result.document() == reference
    stats = result.report.stats
    benchmark.extra_info.update(
        fraction=fraction,
        bytes_transferred=stats.total_bytes_transferred,
        source_calls=stats.total_source_calls,
    )


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_bind_join(benchmark, fraction):
    """Rounds 1-3: the bind join, its outer bindings passed as one set."""
    _run(benchmark, fraction, rounds=(1, 2, 3))


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_bulk_join(benchmark, fraction):
    """Rounds 1-2 only: both fragments pushed, joined at the mediator."""
    _run(benchmark, fraction, rounds=(1, 2))


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_per_row_bind_join(benchmark, fraction):
    """The paper's nested loop: one pushed call per driving row."""
    _run(benchmark, fraction, execution=ExecutionPolicy.serial())
