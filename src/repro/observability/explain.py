"""EXPLAIN / EXPLAIN ANALYZE rendering of mediator plans.

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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.algebra.operators import Plan, PushedOp, SourceOp

__all__ = ["Explanation", "NodeActuals", "collect_actuals", "render_plan"]


class NodeActuals:
    """Aggregated measurements for one plan node across its evaluations.

    ``wall`` / ``cpu`` are *inclusive* (they contain the node's inputs),
    matching the convention of SQL ``EXPLAIN ANALYZE`` actual times; a
    node evaluated many times (the right branch of a DJoin) sums over
    evaluations.
    """

    __slots__ = ("evals", "rows", "wall", "cpu", "calls", "bytes",
                 "batch_rows", "keys", "native")

    def __init__(self) -> None:
        self.evals = 0
        self.rows = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.calls = 0
        self.bytes = 0
        #: Rows a Bind produced as columnar batches.
        self.batch_rows = 0
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
        if self.batch_rows:
            parts.append(f"batch={self.batch_rows}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"NodeActuals({self.describe()})"


def collect_actuals(tracer) -> Dict[int, NodeActuals]:
    """Aggregate a tracer's operator spans by plan node.

    Keys are the ``id()`` of the plan-node objects the evaluator traced,
    so callers index with ``actuals[id(node)]`` while walking the same
    plan object that was executed.
    """
    actuals: Dict[int, NodeActuals] = {}
    for span in tracer.spans:
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
        entry.batch_rows += int(span.attrs.get("batch_rows", 0))  # type: ignore[arg-type]
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
        "query", "naive_plan", "plan", "rewrites", "report", "tracer",
        "cached", "access_paths", "result_cached", "materialized_views",
    )

    def __init__(
        self,
        query: str,
        naive_plan: Plan,
        plan: Plan,
        rewrites,
        report=None,
        tracer=None,
        cached: bool = False,
        access_paths: Optional[Dict[int, str]] = None,
        result_cached: bool = False,
        materialized_views: Tuple[str, ...] = (),
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
        #: The :class:`~repro.observability.tracer.Tracer` that observed
        #: the ANALYZE execution (chrome-trace it, feed it to metrics).
        self.tracer = tracer
        #: True when the plan was served from the mediator's plan cache.
        self.cached = cached
        #: True when the *answer* came (ANALYZE) or would come (plain
        #: EXPLAIN) from the mediator's result cache.
        self.result_cached = result_cached
        #: Names of materialized views the plan reads as documents
        #: instead of splicing their plans.
        self.materialized_views = materialized_views

    @property
    def analyze(self) -> bool:
        return self.report is not None

    def actuals(self) -> Optional[Dict[int, NodeActuals]]:
        return collect_actuals(self.tracer) if self.tracer is not None else None

    def render(self) -> str:
        lines: List[str] = []
        lines.append("EXPLAIN ANALYZE" if self.analyze else "EXPLAIN")
        rewrites = len(self.rewrites) if self.rewrites is not None else 0
        if self.cached:
            # Only emitted on an actual cache hit, so a fresh mediator
            # renders identically every time.
            lines.append("plan: cached")
        if self.result_cached:
            lines.append("result: cached")
        for view in self.materialized_views:
            lines.append(f"view: materialized ({view})")
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
