"""EXPLAIN / EXPLAIN ANALYZE from the command line.

Runs the paper's cultural-portal federation (the O2 object base plus the
Wais full-text store behind ``view1.yat``) and explains a query against
it::

    python -m repro.explain q2 --analyze
    python -m repro.explain q1 --analyze --parallelism 4 --chrome-trace q1.json
    python -m repro.explain my_query.yat --no-optimize
    echo 'MAKE $t MATCH artworks WITH ...' | python -m repro.explain - --analyze

``q1`` / ``q2`` name the paper's Figure 8 / Figure 9 queries; anything
else is a path to a YAT_L query file (``-`` reads stdin).  With
``--analyze`` the plan is executed and every node shows its actuals;
``--chrome-trace`` additionally writes the span trace for
``chrome://tracing`` / Perfetto, and ``--metrics`` writes (or prints,
with ``-``) the Prometheus exposition of the run.

``--store PATH`` additionally connects an out-of-core store-backed
source (``python -m repro.explain --store portal.db stored.yat``): the
Wais collection is shredded into a sqlite file at PATH (``:memory:``
works too) and served as document ``stored_artworks`` by a
:class:`~repro.wrappers.store_wrapper.StoreWrapper`, so constant-
restricted descents show up as ``bind: store-pushdown`` with their SQL
interval joins.  An existing store file is reused as-is (no re-shred).
"""

from __future__ import annotations

import argparse
import sys

from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.mediator.mediator import Mediator
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.observability.metrics import (
    MetricsRegistry,
    record_execution,
    record_memo_stats,
)
from repro.wrappers.o2_wrapper import O2Wrapper
from repro.wrappers.wais_wrapper import WaisWrapper

NAMED_QUERIES = {"q1": Q1, "q2": Q2}


def build_mediator(
    n_artifacts: int,
    seed: int,
    plan_cache_size: int = 128,
    store_path: str = None,
    result_cache_bytes: int = 32 << 20,
    shards: int = 0,
) -> Mediator:
    """The paper's running federation, sized for demonstration.

    With *store_path* the same Wais collection is also shredded into a
    sqlite-backed :class:`~repro.sources.stored.StoredXmlSource` at that
    path and connected as source ``store`` serving document
    ``stored_artworks`` (reused untouched when the file already holds
    documents).

    With ``shards > 1`` the Wais collection connects as a *sharded*
    logical source instead: hash-partitioned on ``artist`` into that
    many shards (``xmlartwork#0 ..``), so plans over ``artworks`` show
    scatter-gather branches and shard pruning.
    """
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    mediator = Mediator(
        plan_cache_size=plan_cache_size,
        result_cache_bytes=result_cache_bytes,
    )
    mediator.connect(O2Wrapper("o2artifact", database))
    if shards > 1:
        from repro.sources.sharded import (
            HashPartition,
            build_sharded_wais,
            shard_wais_store,
        )

        partition = HashPartition("artist", shards)
        stores = shard_wais_store(store, partition)
        mediator.connect_sharded(
            "xmlartwork", build_sharded_wais("xmlartwork", stores), partition
        )
    else:
        mediator.connect(WaisWrapper("xmlartwork", store))
    if store_path is not None:
        from repro.sources.stored import StoredXmlSource
        from repro.wrappers.store_wrapper import StoreWrapper

        stored = StoredXmlSource(store_path)
        if not stored.document_names():
            stored.add_tree("stored_artworks", store.collection_tree())
        mediator.connect(StoreWrapper("store", stored))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


def load_query(spec: str) -> str:
    if spec.lower() in NAMED_QUERIES:
        return NAMED_QUERIES[spec.lower()]
    if spec == "-":
        return sys.stdin.read()
    with open(spec, "r", encoding="utf-8") as handle:
        return handle.read()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.explain",
        description="Explain a YAT_L query over the paper's demo federation.",
    )
    parser.add_argument(
        "query", nargs="?", default="q2",
        help="q1, q2, a .yat file path, or - for stdin (default: q2)",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="execute the plan and annotate every node with its actuals",
    )
    parser.add_argument(
        "--n", type=int, default=100, metavar="N",
        help="synthetic dataset size in artifacts (default: 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="dataset seed (default: 1)"
    )
    parser.add_argument(
        "--no-optimize", action="store_true",
        help="explain the naive plan instead of the optimized one",
    )
    parser.add_argument(
        "--rounds", default="1,2,3", metavar="R[,R...]",
        help="optimizer rounds to apply (default: 1,2,3)",
    )
    parser.add_argument(
        "--parallelism", type=int, default=1, metavar="K",
        help="scheduler parallelism for --analyze (default: 1, serial)",
    )
    parser.add_argument(
        "--chrome-trace", metavar="PATH",
        help="with --analyze: write the span trace as Chrome-trace JSON",
    )
    parser.add_argument(
        "--metrics", metavar="PATH",
        help="with --analyze: write the Prometheus exposition (- for stdout)",
    )
    parser.add_argument(
        "--store", metavar="PATH",
        help="also connect a sqlite-shredded store source (document "
        "stored_artworks) backed by the file at PATH (:memory: works); "
        "an existing store file is reused without re-shredding",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="connect the Wais collection as a sharded logical source: "
        "N hash shards on artist; Bind chains over artworks show "
        "scatter branches and the per-Bind pruning decision",
    )
    parser.add_argument(
        "--no-plan-cache", action="store_true",
        help="disable the mediator's plan cache (every run plans from scratch)",
    )
    parser.add_argument(
        "--no-result-cache", action="store_true",
        help="disable the mediator's result cache (every --analyze run "
        "re-executes; without this flag a repeated --analyze shows "
        "'result: cached' and skips execution)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="K",
        help="explain the query K times against one mediator and print the "
        "last explanation; from the second run on a 'plan: cached' line "
        "marks plans served from the plan cache (default: 1)",
    )
    args = parser.parse_args(argv)

    try:
        text = load_query(args.query)
    except OSError as error:
        parser.error(f"cannot read query {args.query!r}: {error}")
    rounds = tuple(int(r) for r in args.rounds.split(",") if r.strip())

    mediator = build_mediator(
        args.n, args.seed,
        plan_cache_size=0 if args.no_plan_cache else 128,
        store_path=args.store,
        result_cache_bytes=0 if args.no_result_cache else 32 << 20,
        shards=args.shards,
    )
    execution = (
        ExecutionPolicy.parallel(args.parallelism)
        if args.parallelism > 1
        else None
    )
    for _ in range(max(1, args.repeat)):
        explanation = mediator.explain(
            text,
            analyze=args.analyze,
            optimize=not args.no_optimize,
            rounds=rounds,
            execution=execution,
        )
    print(explanation.render())

    if args.analyze and args.chrome_trace:
        explanation.tracer.write_chrome_trace(args.chrome_trace)
        print(f"\nchrome trace written to {args.chrome_trace}", file=sys.stderr)
    if args.analyze and args.metrics:
        registry = MetricsRegistry()
        record_execution(registry, explanation.report, query=args.query)
        record_memo_stats(registry, mediator)
        if args.metrics == "-":
            print()
            print(registry.exposition(), end="")
        else:
            registry.write(args.metrics)
            print(f"metrics exposition written to {args.metrics}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
