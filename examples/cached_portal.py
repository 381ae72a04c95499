"""Result caching & materialized views: serve repeats, never serve stale.

The mediator plans once per query shape (the plan cache) — this example
shows the layer above it: the **result cache** keeps finished answers
keyed by (normalized query, constants, source versions, execution
knobs), and a **materialized view** keeps the view's integrated document
itself, so repeated portal queries stop touching the sources at all.
Both invalidate incrementally: a ``data_version()`` bump at any source
a cached answer read is reflected by the very next query.

1. warm result-cache hits on Q1/Q2 — microseconds instead of a
   federated execution, ``result: cached`` in EXPLAIN;
2. an O2 insert invalidates exactly the entries that read it; the next
   query recomputes and re-caches;
3. ``materialize_view("artworks")`` executes the integration plan once
   and Binds later queries against the kept document (watch
   ``source_calls`` drop to the mediator itself);
4. the ``yat_memo_*{memo="result_cache"|"materialized_views"}`` rows and
   the ``yat_result_cache_*`` / ``yat_view_*`` counters.

Run:  python examples/cached_portal.py [n_artifacts]
"""

import sys
import time

from repro import (
    Mediator,
    MetricsRegistry,
    O2Wrapper,
    WaisWrapper,
)
from repro.observability.metrics import record_memo_stats
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT


def build_portal(n_artifacts: int):
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=7).build()
    mediator = Mediator("portal", result_cache_bytes=32 << 20)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.load_program(VIEW1_YAT)
    return mediator, database


def timed_query(mediator, text, **kwargs):
    start = time.perf_counter()
    result = mediator.query(text, **kwargs)
    elapsed = time.perf_counter() - start
    return result, elapsed


def main() -> int:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    mediator, database = build_portal(n)

    print(f"== 1. result cache: cold vs warm (n={n}) ==")
    for name, text in (("Q1", Q1), ("Q2", Q2)):
        cold, cold_s = timed_query(mediator, text)
        warm, warm_s = timed_query(mediator, text)
        assert warm.result_cached and not cold.result_cached
        print(f"  {name}: cold {cold_s * 1e3:8.2f} ms   "
              f"warm {warm_s * 1e3:8.3f} ms   "
              f"({cold_s / max(warm_s, 1e-9):.0f}x, "
              f"{len(cold.report.tab)} rows)")
    print("  EXPLAIN now shows the hit:")
    for line in mediator.explain(Q1).render().splitlines():
        if "cached" in line:
            print(f"    {line}")

    print("\n== 2. incremental invalidation ==")
    database.insert(
        "artifact",
        {"title": "Fresh Canvas", "year": 1901, "creator": "N. Ewkid",
         "price": 12.5, "owners": []},
    )
    after, after_s = timed_query(mediator, Q2)
    print(f"  O2 insert bumped data_version(); next Q2 recomputed "
          f"in {after_s * 1e3:.2f} ms (cached={after.result_cached})")
    again, again_s = timed_query(mediator, Q2)
    print(f"  ...and is cached again: {again.result_cached} "
          f"({again_s * 1e3:.3f} ms)")

    print("\n== 3. materialized view ==")
    mediator.materialize_view("artworks")
    first, first_s = timed_query(mediator, Q1, use_result_cache=False)
    second, second_s = timed_query(mediator, Q1, use_result_cache=False)
    print(f"  first Q1 refreshes the view ({first_s * 1e3:.2f} ms), "
          f"source calls: {dict(first.report.stats.source_calls)}")
    print(f"  second Q1 Binds against the kept document "
          f"({second_s * 1e3:.2f} ms), "
          f"source calls: {dict(second.report.stats.source_calls)}")
    for line in mediator.explain(Q1).render().splitlines():
        if "view: materialized" in line:
            print(f"  {line}")

    print("\n== 4. the counters ==")
    registry = MetricsRegistry()
    record_memo_stats(registry, mediator)
    for line in registry.exposition().splitlines():
        if line.startswith(("yat_result_cache", "yat_view")) or (
            'memo="result_cache"' in line or 'memo="materialized_views"' in line
        ):
            print(f"  {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
