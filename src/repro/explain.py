"""EXPLAIN / EXPLAIN ANALYZE: the renderer and its command line.

The paper's Figures 8 and 9 are *plan narratives*: which subplan went
native at which source, what the wrapper was asked in its own language,
and how much work was left for the mediator.  This module renders
exactly that view from a live plan:

* :func:`render_plan` — the optimized algebra tree, annotated with the
  pushdown decisions (``Pushed`` fragments show their native OQL / SQL /
  Wais text and their subtree is marked as running at the source);
* :class:`NodeActuals` / :func:`collect_actuals` — per-plan-node actuals
  (evaluations, rows out, inclusive wall/CPU time, source calls, bytes)
  aggregated from a :class:`~repro.observability.tracer.Tracer`;
* :class:`Explanation` — what :meth:`Mediator.explain` returns: the
  rendered text plus every ingredient (plans, rewrite trace, execution
  report, tracer), so tests and tools can inspect rather than re-parse.

Run as a program, it builds the paper's cultural-portal federation (the
O2 object base plus the Wais full-text store behind ``view1.yat``) and
explains a query against it::

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

The package root does not import this module: ``python -m repro.explain``
would otherwise find it already loaded and run a second copy.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.core.algebra.operators import Plan, PushedOp, SourceOp
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.mediator.mediator import Mediator
from repro.observability.context import RequestContext, activate_context
from repro.observability.metrics import (
    MetricsRegistry,
    record_execution,
    record_memo_stats,
)
from repro.wrappers.o2_wrapper import O2Wrapper
from repro.wrappers.wais_wrapper import WaisWrapper

__all__ = ["Explanation", "NodeActuals", "collect_actuals", "render_plan"]


class NodeActuals:
    """Aggregated measurements for one plan node across its evaluations.

    ``wall`` / ``cpu`` are *inclusive* (they contain the node's inputs),
    matching the convention of SQL ``EXPLAIN ANALYZE`` actual times; a
    node evaluated many times (the right branch of a DJoin) sums over
    evaluations.
    """

    __slots__ = ("evals", "rows", "wall", "cpu", "calls", "bytes", "keys",
                 "native")

    def __init__(self) -> None:
        self.evals = 0
        self.rows = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.calls = 0
        self.bytes = 0
        #: Outer bindings passed up in set-valued calls (``Pushed`` only).
        self.keys = 0
        #: First native query text this node executed (``Pushed`` only).
        self.native: Optional[str] = None

    def describe(self) -> str:
        parts = [
            f"evals={self.evals}",
            f"rows={self.rows}",
            f"time={self.wall * 1e3:.2f}ms",
        ]
        if self.calls:
            parts.append(f"calls={self.calls}")
        if self.keys:
            parts.append(f"keys={self.keys}")
        if self.bytes:
            parts.append(f"bytes={self.bytes}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"NodeActuals({self.describe()})"


def collect_actuals(trace) -> Dict[int, NodeActuals]:
    """Aggregate the operator spans of *trace* (a tracer) by plan node.

    Keys are the ``id()`` of the plan-node objects the evaluator traced,
    so callers index with ``actuals[id(node)]`` while walking the same
    plan object that was executed.
    """
    actuals: Dict[int, NodeActuals] = {}
    for span in trace.spans:
        node = span.attrs.get("node")
        if span.kind != "operator" or not isinstance(node, int) or span.end is None:
            continue
        entry = actuals.get(node)
        if entry is None:
            entry = actuals[node] = NodeActuals()
        entry.evals += 1
        entry.wall += span.duration
        entry.cpu += span.cpu_time
        rows = span.attrs.get("rows")
        if isinstance(rows, int):
            entry.rows += rows
        entry.calls += int(span.attrs.get("calls", 0))  # type: ignore[arg-type]
        entry.bytes += int(span.attrs.get("bytes", 0))  # type: ignore[arg-type]
        entry.keys += int(span.attrs.get("keys", 0))  # type: ignore[arg-type]
        native = span.attrs.get("native")
        if entry.native is None and isinstance(native, str):
            entry.native = native
    return actuals


def _first_key(entry: NodeActuals) -> str:
    """The native text, cut after the first of many passed keys.

    Display only: the recorded text (``ExecutionStats.native_queries``,
    the span's ``native`` attribute) stays whole and replayable.
    """
    native = entry.native
    if entry.keys > 1:
        cuts = [at for at in (native.find(") or ("), native.find("), (")) if at > 0]
        if cuts:
            native = f"{native[:min(cuts) + 1]} ... [{entry.keys - 1} more keys]"
    return native


def _plan_rows(
    plan: Plan,
    depth: int,
    actuals: Optional[Dict[int, NodeActuals]],
    out: List[Tuple[str, str]],
    native_at: Optional[str],
    access_paths: Optional[Dict[int, str]] = None,
) -> None:
    pad = "  " * depth
    if native_at is not None:
        annotation = f"runs at {native_at}"
        if access_paths is not None:
            access = access_paths.get(id(plan))
            if access:
                annotation = f"{annotation}, {access}"
        out.append((f"{pad}{plan.describe()}", annotation))
        for child in plan.children():
            _plan_rows(child, depth + 1, actuals, out, native_at, access_paths)
        return
    if isinstance(plan, PushedOp):
        annotation = ""
        entry = None
        if actuals is not None:
            entry = actuals.get(id(plan))
            annotation = entry.describe() if entry is not None else "(not evaluated)"
        out.append((f"{pad}Pushed@{plan.source}", annotation))
        if plan.native:
            out.append((f"{pad}  native: {plan.native}", ""))
        elif entry is not None and entry.native is not None:
            # Parameterized fragment: the native text is generated per
            # call (information passing); show the first instantiation.
            label = "native" if entry.evals == 1 else f"native (1 of {entry.evals})"
            out.append((f"{pad}  {label}: {_first_key(entry)}", ""))
        _plan_rows(plan.plan, depth + 1, actuals, out, plan.source, access_paths)
        return
    parts = []
    if access_paths is not None:
        access = access_paths.get(id(plan))
        if access:
            parts.append(access)
    if actuals is not None:
        entry = actuals.get(id(plan))
        parts.append(entry.describe() if entry is not None else "(not evaluated)")
    out.append((f"{pad}{plan.describe()}", " ".join(parts)))
    for child in plan.children():
        _plan_rows(child, depth + 1, actuals, out, None, access_paths)


def render_plan(
    plan: Plan,
    actuals: Optional[Dict[int, NodeActuals]] = None,
    access_paths: Optional[Dict[int, str]] = None,
) -> str:
    """The plan tree, one node per line, actuals right-aligned when given.

    ``access_paths`` maps plan-node ids to their Bind access line
    (``bind: scan`` / ``bind: store-pushdown`` ...); the text joins the
    annotation column.
    """
    rows: List[Tuple[str, str]] = []
    _plan_rows(plan, 0, actuals, rows, None, access_paths)
    if not any(annotation for _text, annotation in rows):
        return "\n".join(text for text, _annotation in rows)
    # Align the annotation column on the annotated lines only; a long
    # un-annotated line (a native query text) shouldn't push it out.
    width = max(len(text) for text, annotation in rows if annotation) + 2
    lines = []
    for text, annotation in rows:
        if annotation:
            lines.append(f"{text.ljust(width)}[{annotation}]")
        else:
            lines.append(text)
    return "\n".join(lines)


def _pushdown_lines(
    plan: Plan, actuals: Optional[Dict[int, NodeActuals]] = None
) -> List[str]:
    """One line per planning decision that touches a source."""
    lines: List[str] = []
    for node in plan.walk():
        if isinstance(node, PushedOp):
            native = node.native
            if native is None and actuals is not None:
                entry = actuals.get(id(node))
                if entry is not None and entry.native is not None:
                    native = _first_key(entry)
            native = native or "(native text generated at call time)"
            lines.append(f"pushed to {node.source}: {native}")
        elif isinstance(node, SourceOp):
            lines.append(
                f"full document transfer: {node.source}.{node.document}"
            )
    return lines


class Explanation:
    """Everything :meth:`Mediator.explain` learned about one query."""

    __slots__ = (
        "query", "naive_plan", "plan", "rewrites", "report", "cached",
        "access_paths", "result_cached", "params",
    )

    def __init__(
        self,
        query: str,
        naive_plan: Plan,
        plan: Plan,
        rewrites,
        report=None,
        cached: bool = False,
        access_paths: Optional[Dict[int, str]] = None,
        result_cached: bool = False,
        params: Tuple[object, ...] = (),
    ) -> None:
        self.query = query
        self.naive_plan = naive_plan
        self.plan = plan
        self.rewrites = rewrites
        #: ``{id(plan node): "bind: scan"}`` — what each Bind's engine (or
        #: the wrapper it was pushed to) will do.
        self.access_paths = access_paths
        #: :class:`~repro.mediator.execution.ExecutionReport` under
        #: ``analyze=True``; ``None`` for plain EXPLAIN.
        self.report = report
        #: True when the plan was served from the mediator's plan cache.
        self.cached = cached
        #: True when the *answer* came (ANALYZE) or would come (plain
        #: EXPLAIN) from the mediator's result cache.
        self.result_cached = result_cached
        #: The query's parameter vector: :meth:`render` shows the plan's
        #: parameter slots as these bound values.
        self.params = params

    @property
    def analyze(self) -> bool:
        return self.report is not None

    @property
    def tracer(self):
        """The :class:`~repro.observability.tracer.Tracer` that observed
        the ANALYZE execution (chrome-trace it, feed it to metrics)."""
        return self.report.trace if self.report is not None else None

    def actuals(self) -> Optional[Dict[int, NodeActuals]]:
        return collect_actuals(self.tracer) if self.tracer is not None else None

    def render(self) -> str:
        with activate_context(RequestContext(params=self.params)):
            return self._render()

    def _render(self) -> str:
        lines: List[str] = []
        lines.append("EXPLAIN ANALYZE" if self.analyze else "EXPLAIN")
        rewrites = len(self.rewrites) if self.rewrites is not None else 0
        if self.cached:
            # Only emitted on an actual cache hit, so a fresh mediator
            # renders identically every time.
            lines.append("plan: cached")
        if self.result_cached:
            lines.append("result: cached")
        lines.append(f"plan ({rewrites} rewrites applied):")
        actuals = self.actuals()
        lines.append(render_plan(self.plan, actuals, self.access_paths))
        pushdown = _pushdown_lines(self.plan, actuals)
        if pushdown:
            lines.append("")
            lines.append("pushdown decisions:")
            lines.extend(f"  {line}" for line in pushdown)
        if self.report is not None:
            lines.append("")
            lines.append("execution:")
            degraded = "  (DEGRADED: partial answer)" if self.report.degraded else ""
            lines.append(
                f"  rows: {len(self.report.tab)}  "
                f"elapsed: {self.report.elapsed * 1e3:.2f} ms{degraded}"
            )
            for stat_line in self.report.stats.summary().splitlines():
                lines.append(f"  {stat_line}")
            executed = self.report.stats.distinct_native_queries()
            if executed:
                lines.append("  native queries executed:")
                shown = executed[:8]
                cut = {
                    entry.native: _first_key(entry)
                    for entry in (actuals or {}).values()
                    if entry.keys > 1
                }
                for source, native in shown:
                    lines.append(f"    {source}: {cut.get(native, native)}")
                if len(executed) > len(shown):
                    lines.append(
                        f"    ... and {len(executed) - len(shown)} more"
                    )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        mode = "analyze" if self.analyze else "plan-only"
        return f"Explanation({mode}, {len(self.rewrites or ())} rewrites)"


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


def _parse_rounds(text: str) -> Tuple[int, ...]:
    """``--rounds``: comma-separated optimizer rounds, each 1, 2 or 3."""
    rounds = [r.strip() for r in text.split(",") if r.strip()]
    if any(r not in ("1", "2", "3") for r in rounds):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated rounds among 1, 2, 3, got {text!r}"
        )
    return tuple(int(r) for r in rounds)


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
        "--rounds", type=_parse_rounds, default="1,2,3", metavar="R[,R...]",
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
    if not args.analyze and (args.chrome_trace or args.metrics):
        parser.error("--chrome-trace and --metrics need --analyze")

    try:
        text = load_query(args.query)
    except OSError as error:
        parser.error(f"cannot read query {args.query!r}: {error}")

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
            rounds=args.rounds,
            execution=execution,
        )
    print(explanation.render())

    if args.chrome_trace:
        explanation.tracer.write_chrome_trace(args.chrome_trace)
        print(f"\nchrome trace written to {args.chrome_trace}", file=sys.stderr)
    if args.metrics:
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
