"""Shared fixtures: the paper's running example, ready to query."""

from __future__ import annotations

import signal

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT, small_figure1_pair

__all__ = ["Q1", "Q2", "VIEW1_YAT", "build_mediator", "transfer", "wan_ms"]


@pytest.fixture
def deadlock_guard():
    """Fail (rather than hang) if a test wedges the scheduler.

    SIGALRM-based: no third-party timeout plugin required.  Tests that
    exercise the thread pool opt in with
    ``pytest.mark.usefixtures("deadlock_guard")`` — a deadlocked
    :class:`~repro.core.algebra.scheduling.PlanScheduler` then raises in
    the main thread instead of hanging the whole tier-1 run.
    """
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _timeout(signum, frame):
        raise TimeoutError("deadlock_guard: test exceeded 60s (scheduler hang?)")

    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def build_mediator(database, store) -> Mediator:
    """Wire the two wrappers plus view1.yat into a fresh mediator."""
    mediator = Mediator()
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


def transfer(result):
    """A query result's (bytes transferred, source calls)."""
    stats = result.report.stats
    return stats.total_bytes_transferred, stats.total_source_calls


def wan_ms(stats) -> float:
    """Modeled WAN time of one execution: calls x 20 ms + bytes / 1 MB/s.

    The formula of ``source_wan_ms_per_op`` in ``benchmarks/e2e/spec.py``,
    for one execution instead of per op; no wall-clock term.
    """
    return stats.total_source_calls * 20.0 + stats.total_bytes_transferred / 1e3


@pytest.fixture
def figure1_sources():
    """The literal Figure 1 data: two artifacts, two works."""
    return small_figure1_pair()


@pytest.fixture
def figure1_mediator(figure1_sources):
    database, store = figure1_sources
    return build_mediator(database, store)


@pytest.fixture
def cultural_sources():
    """A mid-sized consistent dataset (30 artifacts/works)."""
    return CulturalDataset(n_artifacts=30, seed=7).build()


@pytest.fixture
def cultural_mediator(cultural_sources):
    database, store = cultural_sources
    return build_mediator(database, store)
