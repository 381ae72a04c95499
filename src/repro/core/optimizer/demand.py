"""Demand analysis: what the query needs of every operator's input.

The paper's round one exists to stop surplus data from crossing the
wrapper boundary — "projection / selection pushdown with source-branch
elimination" and "Bind simplification under type information"
(Section 5.1, Figure 8).  What may go is decided by what the *query*
reads, not by what the view exports: the view of Section 2 binds eleven
variables, a query over it may read two.

:func:`narrow` passes two facts top-down through ``Project``,
``Distinct``, ``Select``, ``Join``, ``DJoin`` and ``Bind``:

* the **required columns** — those an operator above reads: projected
  items, predicate variables, join keys, the outer variables a DJoin's
  right input observes, a Bind's target, and a pushed fragment's
  ``keyed`` columns (the DJoin re-expands its set-valued answer on them);
* whether **duplicates matter** — they stop mattering below a
  ``Distinct`` reached only through these operators, because each of
  them maps a later copy of a row to a later copy of its output row:
  dropping it cannot change which rows the ``Distinct`` keeps, nor the
  order it keeps them in.

Every other operator is a boundary: its inputs must provide all their
columns, with their multiplicities.  Three consumers use the facts:

* a ``Bind`` over a ``Source`` drops the filter items
  :func:`~repro.core.optimizer.bind_simplify.simplify_filter` proves
  removable (the paper's type-driven Bind simplification);
* a ``Project`` keeps only required items, merges with a ``Project``
  directly below it and disappears when it no longer changes anything —
  which removes the column-restoring projection
  :class:`~repro.core.optimizer.info_passing.BindJoinRule` stacks
  under the query's own;
* a pushed fragment returns only required columns and, where duplicates
  do not matter and the source declares ``distinct``, distinct rows.

The planner runs the pass once at the root after round one and once
after round three (:class:`DemandNarrowingRule`).
"""

from __future__ import annotations

from typing import AbstractSet, Optional

from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    DistinctOp,
    JoinOp,
    Plan,
    ProjectOp,
    PushedOp,
    SelectOp,
)
from repro.core.algebra.scheduling import plan_parameters
from repro.core.optimizer.bind_simplify import simplify_filter, source_structure
from repro.core.optimizer.rules import OptimizerContext, RewriteRule


def narrow(plan: Plan, context: OptimizerContext) -> Plan:
    """*plan* with every operator computing only what is read above it.

    The result yields the same Tab; *plan* itself when nothing can go.
    """
    return _Demand(context).visit(plan, frozenset(plan.output_columns()), True)


class _Demand:
    __slots__ = ("context",)

    def __init__(self, context: OptimizerContext) -> None:
        self.context = context

    def visit(self, plan: Plan, required: AbstractSet[str], duplicates: bool) -> Plan:
        if isinstance(plan, ProjectOp):
            return self._project(plan, required, duplicates)
        if isinstance(plan, DistinctOp):
            below = required if not duplicates else plan.output_columns()
            return self._rebuilt(plan, (self.visit(plan.input, set(below), False),))
        if isinstance(plan, SelectOp):
            needed = set(required) | set(plan.predicate.variables())
            return self._rebuilt(plan, (self.visit(plan.input, needed, duplicates),))
        # A name an input does not produce is harmless in its required
        # set: nothing below binds it (names are unique in a Tab), and
        # the first Project below replaces the set.
        if isinstance(plan, JoinOp):
            needed = set(required) | set(plan.predicate.variables())
            return self._rebuilt(plan, (
                self.visit(plan.left, needed, duplicates),
                self.visit(plan.right, needed, duplicates),
            ))
        if isinstance(plan, DJoinOp):
            observed = set(required) | plan_parameters(plan.right)
            return self._rebuilt(plan, (
                self.visit(plan.left, observed, duplicates),
                self.visit(plan.right, required, duplicates),
            ))
        if isinstance(plan, BindOp):
            return self._bind(plan, required, duplicates)
        if isinstance(plan, PushedOp):
            return self._pushed(plan, required, duplicates)
        return self._rebuilt(plan, tuple(
            self.visit(child, frozenset(child.output_columns()), True)
            for child in plan.children()
        ))

    @staticmethod
    def _rebuilt(plan: Plan, children) -> Plan:
        if all(new is old for new, old in zip(children, plan.children())):
            return plan
        return plan.with_children(children)

    def _project(self, plan: ProjectOp, required, duplicates) -> Plan:
        # A projection never changes multiplicities, so it may keep only
        # the items read above; with none of them read it stays whole
        # (its rows still count).
        items = [(c, a) for c, a in plan.items if a in required] or plan.items
        child = self.visit(plan.input, {c for c, _a in items}, duplicates)
        if isinstance(child, ProjectOp):
            renaming = dict((a, c) for c, a in child.items)
            items = [(renaming[c], a) for c, a in items]
            child = child.input
        if all(c == a for c, a in items) and tuple(
            a for _c, a in items
        ) == child.output_columns():
            return child
        if child is plan.input and tuple(items) == plan.items:
            return plan
        return ProjectOp(child, items)

    def _bind(self, plan: BindOp, required, duplicates) -> Plan:
        flt = plan.filter
        pattern, library = source_structure(plan, self.context)
        if pattern is not None:
            flt = simplify_filter(flt, pattern, library, required)
        needed = (set(required) - set(flt.variables())) | {plan.on}
        child = self.visit(plan.input, needed, duplicates)
        if child is plan.input and flt is plan.filter:
            return plan
        return BindOp(child, flt, on=plan.on, keep_on=plan.keep_on)

    def _pushed(self, plan: PushedOp, required, duplicates) -> Plan:
        matcher = self.context.matcher(plan.source)
        if matcher is None:
            return plan
        fragment = plan.plan
        distinct = isinstance(fragment, DistinctOp)
        if distinct:
            fragment = fragment.input
        if isinstance(fragment, ProjectOp):
            body, items = fragment.input, fragment.items
        else:
            body, items = fragment, tuple((c, c) for c in fragment.output_columns())
        keep = set(required) | {column for column, _variable in plan.keyed}
        kept = tuple((c, a) for c, a in items if a in keep)
        narrowed = bool(kept) and kept != items and bool(
            matcher.operation_pushable("project")
        )
        deduplicated = not (distinct or duplicates) and bool(
            matcher.operation_pushable("distinct")
        )
        if not (narrowed or deduplicated):
            return plan
        if narrowed:
            fragment = ProjectOp(body, kept)
        if distinct or deduplicated:
            fragment = DistinctOp(fragment)
        return PushedOp(plan.source, fragment, keyed=plan.keyed)


class DemandNarrowingRule(RewriteRule):
    """:func:`narrow` as a rewrite, applied once at the plan root by the
    planner: at the end of round one (Bind filters; no fragment exists
    yet) and at the end of round three (fragments, once the DJoins whose
    keys they must return exist)."""

    name = "DemandNarrowing"

    def apply(self, plan: Plan, context: OptimizerContext) -> Optional[Plan]:
        narrowed = narrow(plan, context)
        return None if narrowed is plan else narrowed
