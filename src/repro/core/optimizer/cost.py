"""A simple transfer-oriented cost model.

The paper's optimizer uses heuristics, not a cost-based search; this
model exists for *reporting*: benchmarks compare estimated costs before
and after rewriting, and the estimates explain why a rewriting wins.

Costs are abstract units dominated by wrapper-boundary transfers:

* a ``Source`` costs the (estimated) serialized size of its document;
* a ``Pushed`` fragment costs a per-call constant plus its estimated
  result cardinality — much less than the whole document when a
  selective predicate was pushed;
* mediator operators cost proportionally to the rows they process;
* a ``DJoin`` multiplies its right-hand cost by the left cardinality —
  the paper's one call per outer row, the trade-off its information
  passing navigates (the engine passes the outer rows as one set where
  it can, which this model does not price).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    DistinctOp,
    GroupOp,
    IntersectOp,
    JoinOp,
    LiteralOp,
    MapOp,
    Plan,
    ProjectOp,
    PushedOp,
    SelectOp,
    SortOp,
    SourceOp,
    TreeOp,
    UnionOp,
    UnitOp,
)

#: Default assumptions, overridable per document via ``CostHints``.
DEFAULT_DOCUMENT_SIZE = 10_000.0
DEFAULT_DOCUMENT_CARDINALITY = 100.0
DEFAULT_SELECTIVITY = 0.1
PUSHED_CALL_COST = 50.0


class CostHints:
    """Per-document size/cardinality hints and a per-conjunct selectivity."""

    def __init__(
        self,
        document_sizes: Optional[Dict[str, float]] = None,
        document_cardinalities: Optional[Dict[str, float]] = None,
        default_selectivity: float = DEFAULT_SELECTIVITY,
    ) -> None:
        self.document_sizes = dict(document_sizes or {})
        self.document_cardinalities = dict(document_cardinalities or {})
        self.default_selectivity = default_selectivity

    def size(self, document: str) -> float:
        return self.document_sizes.get(document, DEFAULT_DOCUMENT_SIZE)

    def cardinality(self, document: str) -> float:
        return self.document_cardinalities.get(
            document, DEFAULT_DOCUMENT_CARDINALITY
        )

    def predicate_selectivity(self, predicate) -> float:
        """Estimated fraction of rows a predicate keeps."""
        from repro.core.algebra.expressions import conjuncts

        return min(1.0, self.default_selectivity ** len(conjuncts(predicate)))


class Estimate:
    """Estimated (cost, output cardinality) of a plan."""

    __slots__ = ("cost", "rows")

    def __init__(self, cost: float, rows: float) -> None:
        self.cost = cost
        self.rows = rows

    def __repr__(self) -> str:
        return f"Estimate(cost={self.cost:.0f}, rows={self.rows:.0f})"


def estimate(plan: Plan, hints: Optional[CostHints] = None) -> Estimate:
    """Estimated cost and cardinality of evaluating *plan*."""
    hints = hints or CostHints()
    return _estimate(plan, hints)


def estimate_cost(plan: Plan, hints: Optional[CostHints] = None) -> float:
    """Shorthand: just the cost component."""
    return estimate(plan, hints).cost


def _estimate(plan: Plan, hints: CostHints) -> Estimate:
    if isinstance(plan, UnitOp):
        return Estimate(0.0, 1.0)
    if isinstance(plan, LiteralOp):
        return Estimate(0.0, float(len(plan.tab)))
    if isinstance(plan, SourceOp):
        return Estimate(hints.size(plan.document), hints.cardinality(plan.document))
    if isinstance(plan, PushedOp):
        inner = _estimate(plan.plan, hints)
        # The source does the work cheaply; the mediator pays transfer of
        # the result rows plus the round trip.
        return Estimate(PUSHED_CALL_COST + inner.rows, inner.rows)
    if isinstance(plan, BindOp):
        inner = _estimate(plan.input, hints)
        depth = max(1, sum(1 for _ in plan.filter.walk()))
        return Estimate(inner.cost + inner.rows * depth, inner.rows)
    if isinstance(plan, SelectOp):
        inner = _estimate(plan.input, hints)
        selectivity = hints.predicate_selectivity(plan.predicate)
        return Estimate(inner.cost + inner.rows, inner.rows * selectivity)
    if isinstance(plan, (ProjectOp, MapOp, DistinctOp, SortOp, GroupOp)):
        inner = _estimate(plan.children()[0], hints)
        return Estimate(inner.cost + inner.rows, inner.rows)
    if isinstance(plan, TreeOp):
        inner = _estimate(plan.input, hints)
        return Estimate(inner.cost + 2 * inner.rows, 1.0)
    if isinstance(plan, JoinOp):
        left = _estimate(plan.left, hints)
        right = _estimate(plan.right, hints)
        out = left.rows * right.rows * hints.default_selectivity
        return Estimate(left.cost + right.cost + left.rows * right.rows, out)
    if isinstance(plan, DJoinOp):
        left = _estimate(plan.left, hints)
        right = _estimate(plan.right, hints)
        # The right side is re-evaluated once per outer row.
        return Estimate(left.cost + left.rows * right.cost, left.rows * right.rows)
    if isinstance(plan, (UnionOp, IntersectOp)):
        left = _estimate(plan.left, hints)
        right = _estimate(plan.right, hints)
        return Estimate(left.cost + right.cost, left.rows + right.rows)
    # Unknown operators cost their children plus a constant.
    children = [_estimate(child, hints) for child in plan.children()]
    cost = sum(c.cost for c in children) + 1.0
    rows = max((c.rows for c in children), default=1.0)
    return Estimate(cost, rows)
