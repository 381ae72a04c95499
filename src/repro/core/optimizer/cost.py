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
* a ``DJoin`` multiplies its right-hand cost by the left cardinality
  (one call per outer row), which is exactly the trade-off information
  passing navigates.
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
    """Per-document size/cardinality hints and per-predicate selectivities.

    ``text_selectivities`` maps string constants appearing in textual
    predicates (equality or ``contains``) to estimated match fractions.
    Full-text sources can supply these almost for free — the inverted
    index knows each term's document frequency — which is what lets the
    cost-gated optimizer tell a selective ``contains`` from a broad one.
    """

    def __init__(
        self,
        document_sizes: Optional[Dict[str, float]] = None,
        document_cardinalities: Optional[Dict[str, float]] = None,
        default_selectivity: float = DEFAULT_SELECTIVITY,
        text_selectivities: Optional[Dict[str, float]] = None,
    ) -> None:
        self.document_sizes = dict(document_sizes or {})
        self.document_cardinalities = dict(document_cardinalities or {})
        self.default_selectivity = default_selectivity
        self.text_selectivities = dict(text_selectivities or {})

    def size(self, document: str) -> float:
        return self.document_sizes.get(document, DEFAULT_DOCUMENT_SIZE)

    def cardinality(self, document: str) -> float:
        return self.document_cardinalities.get(
            document, DEFAULT_DOCUMENT_CARDINALITY
        )

    def predicate_selectivity(self, predicate) -> float:
        """Estimated fraction of rows a predicate keeps."""
        from repro.core.algebra.expressions import Cmp, Const, FunCall, conjuncts

        fraction = 1.0
        for part in conjuncts(predicate):
            constants = []
            if isinstance(part, Cmp):
                constants = [
                    side.value
                    for side in (part.left, part.right)
                    if isinstance(side, Const)
                ]
            elif isinstance(part, FunCall):
                constants = [
                    arg.value for arg in part.args if isinstance(arg, Const)
                ]
            known = [
                self.text_selectivities[c]
                for c in constants
                if isinstance(c, str) and c in self.text_selectivities
            ]
            fraction *= known[0] if known else self.default_selectivity
        return min(1.0, fraction)


class ObservedStatistics:
    """Measured numbers folded back from ``EXPLAIN ANALYZE`` runs.

    The mediator keeps one instance per catalog and overlays it onto the
    wrapper-declared :class:`CostHints` before every optimization, so
    repeated queries replan with *measured* cardinalities and
    selectivities instead of estimates:

    * a ``Bind`` directly over a ``Source`` observed binding N rows per
      document evaluation pins the document's cardinality to N;
    * a mediator-side ``Select`` whose predicate carries exactly one
      string constant observed keeping ``out/in`` of its rows pins that
      constant's text selectivity (predicates inside pushed fragments
      execute at the source and are not observed).

    :meth:`absorb` reports whether anything *materially* changed (beyond
    a 1% relative tolerance), letting the mediator version its
    statistics without invalidating plans on every identical re-run.
    """

    __slots__ = ("document_cardinalities", "text_selectivities")

    def __init__(self) -> None:
        self.document_cardinalities: Dict[str, float] = {}
        self.text_selectivities: Dict[str, float] = {}

    def absorb(self, plan: Plan, actuals: Dict[int, object]) -> bool:
        """Fold per-node actuals into the tables; ``True`` on change."""
        changed = False
        for node in plan.walk():
            if isinstance(node, BindOp) and isinstance(node.input, SourceOp):
                entry = actuals.get(id(node))
                if entry is None or entry.evals <= 0 or entry.rows <= 0:
                    continue
                observed = entry.rows / entry.evals
                changed |= self._record(
                    self.document_cardinalities, node.input.document, observed
                )
            elif isinstance(node, SelectOp):
                out_entry = actuals.get(id(node))
                in_entry = actuals.get(id(node.input))
                if out_entry is None or in_entry is None or in_entry.rows <= 0:
                    continue
                constant = _single_text_constant(node.predicate)
                if constant is None:
                    continue
                ratio = min(1.0, out_entry.rows / in_entry.rows)
                changed |= self._record(
                    self.text_selectivities, constant, ratio
                )
        return changed

    @staticmethod
    def _record(table: Dict[str, float], key: str, value: float) -> bool:
        old = table.get(key)
        if old is not None and abs(old - value) <= 0.01 * max(1.0, abs(old)):
            return False
        table[key] = value
        return True

    def __repr__(self) -> str:
        return (
            f"ObservedStatistics({len(self.document_cardinalities)} "
            f"cardinalities, {len(self.text_selectivities)} selectivities)"
        )


def _single_text_constant(predicate) -> Optional[str]:
    """The predicate's one string constant, or ``None`` when ambiguous.

    An observed in/out ratio can only be attributed to a constant when
    the predicate mentions exactly one (a conjunction mixing constants
    would blur their individual selectivities).
    """
    from repro.core.algebra.expressions import Const

    constants = [
        sub.value
        for sub in predicate.walk()
        if isinstance(sub, Const) and isinstance(sub.value, str)
    ]
    if constants and len(set(constants)) == 1:
        return constants[0]
    return None


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
