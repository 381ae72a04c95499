"""R1 — result caching: warm hits, freshness, and cached-serving goodput.

The result cache's contract (ISSUE PR 9):

* a **warm hit** answers at least 10x faster than a fresh execution of
  the same query (q1 and q2, with the paper's remote-source latency
  injected per call);
* **freshness is absolute** — a ``data_version()`` bump at any source is
  reflected by the immediately following query, never a stale hit;
* under the PR 6 zipfian serving workload, turning the cache on
  improves closed-loop **goodput** (completed QPS) over the identical
  cache-off federation.

Run standalone:  PYTHONPATH=src python benchmarks/bench_result_cache.py [--smoke]
"""

from __future__ import annotations

import statistics
import sys
import time

from repro import Mediator, MediatorServer, O2Wrapper, ServerConfig, WaisWrapper
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.model.xml_io import tree_to_xml
from repro.server import run_closed_loop
from repro.testing import FaultSchedule, FaultyWrapper

#: Injected per-source-call latency: the paper's remote-source setting
#: (same convention as bench_serving).
SOURCE_LATENCY_S = 0.005

#: A warm hit must beat a fresh execution by at least this factor.
WARM_SPEEDUP_FLOOR = 10.0


def build_cached_federation(n_artifacts=25, seed=1,
                            source_latency=SOURCE_LATENCY_S,
                            result_cache_bytes=32 << 20):
    """The paper's federation with *source_latency* injected per call."""
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    mediator = Mediator(
        plan_cache_size=128,
        result_cache_bytes=result_cache_bytes,
    )
    slow = FaultSchedule()
    for operation in ("document", "execute_pushed"):
        slow.delay(operation, source_latency)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(FaultyWrapper(WaisWrapper("xmlartwork", store), slow))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator, database, store


def _median_seconds(callable_, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def warm_vs_fresh_rows(n_artifacts=25, seed=1, repeats=20):
    """``[(query_name, fresh_s, warm_s, speedup, ok), ...]`` for q1/q2.

    *fresh* re-executes every time (``use_result_cache=False`` — same
    planning path, no result-cache lookup); *warm* repeats the query
    against a primed cache.  Both run on one mediator so plan-cache and
    kernel warmup are identical; only the result cache differs.
    """
    mediator, _database, _store = build_cached_federation(
        n_artifacts=n_artifacts, seed=seed
    )
    rows = []
    for name, text in (("q1", Q1), ("q2", Q2)):
        mediator.query(text)  # prime: plan cache, kernels, result cache
        fresh_s = _median_seconds(
            lambda: mediator.query(text, use_result_cache=False), repeats
        )
        warm = mediator.query(text)
        assert warm.result_cached, f"{name}: expected a warm hit"
        warm_s = _median_seconds(lambda: mediator.query(text), repeats)
        speedup = fresh_s / max(warm_s, 1e-9)
        rows.append((name, fresh_s, warm_s, speedup,
                     speedup >= WARM_SPEEDUP_FLOOR))
    return rows


def freshness_row(n_artifacts=25, seed=1):
    """``(stale_served, answers_differ, ok)`` for the freshness gate.

    Prime the cache, add a Giverny work to the Wais store (bumping its
    ``data_version()`` — under the containment rewrite Q1 reads *only*
    that source), and re-query immediately: the answer must be
    recomputed, not served from cache, and must contain the new work.
    """
    from repro.model.xml_io import xml_to_tree

    mediator, _database, store = build_cached_federation(
        n_artifacts=n_artifacts, seed=seed
    )
    mediator.query(Q1)
    before = mediator.query(Q1)
    assert before.result_cached
    store.add(xml_to_tree(
        "<work><artist>P. Robe</artist><title>Freshness Probe</title>"
        "<style>Impressionist</style><size>1 x 1</size>"
        "<cplace>Giverny</cplace></work>"
    ))
    after = mediator.query(Q1)
    stale_served = after.result_cached
    answers_differ = (
        tree_to_xml(after.document()) != tree_to_xml(before.document())
    )
    ok = (not stale_served) and answers_differ
    return stale_served, answers_differ, ok


def goodput_rows(n_artifacts=25, seed=1, workers=4, requests=120):
    """``[(label, WorkloadResult), ...]`` + speedup for cached serving.

    The PR 6 closed-loop zipfian workload (q1 > q2-with-rotating-price >
    portal) against two identical federations, result cache off and on.
    The mix repeats queries heavily, so with the cache on most requests
    are hits that never touch a (slow) source.
    """
    results = []
    for label, cache_bytes in (("cache-off", 0), ("cache-on", 32 << 20)):
        mediator, _database, _store = build_cached_federation(
            n_artifacts=n_artifacts, seed=seed,
            result_cache_bytes=cache_bytes,
        )
        with MediatorServer(mediator, ServerConfig(
            workers=workers, queue_limit=4 * requests,
        )) as server:
            row = run_closed_loop(
                server, clients=workers,
                requests_per_client=max(5, requests // workers),
                seed=seed,
            )
        results.append((label, row))
    off_qps = max(results[0][1].qps, 1e-9)
    speedup = results[1][1].qps / off_qps
    return results, speedup


def main() -> int:
    smoke = "--smoke" in sys.argv
    repeats = 5 if smoke else 20
    requests = 40 if smoke else 120

    print("R1 — result cache: warm hits vs fresh execution")
    print(f"{'query':>6} {'fresh ms':>10} {'warm ms':>9} {'speedup':>9}")
    ok = True
    for name, fresh_s, warm_s, speedup, row_ok in warm_vs_fresh_rows(
        repeats=repeats
    ):
        ok = ok and row_ok
        print(f"{name:>6} {fresh_s * 1e3:10.3f} {warm_s * 1e3:9.3f} "
              f"{speedup:8.1f}x {'PASS' if row_ok else 'FAIL'}")

    stale_served, answers_differ, fresh_ok = freshness_row()
    ok = ok and fresh_ok
    print(f"freshness: stale_served={stale_served} "
          f"answers_differ={answers_differ} "
          f"{'PASS' if fresh_ok else 'FAIL'}")

    (rows, speedup) = goodput_rows(requests=requests)
    for label, row in rows:
        print(f"{label:>10}: {row.completed}/{row.offered} done, "
              f"{row.qps:.1f} qps")
    goodput_ok = speedup > 1.0
    ok = ok and goodput_ok
    print(f"goodput speedup: {speedup:.2f}x "
          f"{'PASS' if goodput_ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
