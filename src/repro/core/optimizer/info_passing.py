"""Information passing between sources (paper, Section 5.3) — round three.

"For each pair of title and artist, the O2 source is called to retrieve
the corresponding artifact information.  This aspect is due to the DJoin
operation that corresponds to a nested loop evaluation with values of
variables $t and $a passed from the left-hand side to the right-hand
side.  Such 'information passing' is a classical technique in distributed
query optimization."

:class:`BindJoinRule` turns an equi-join whose one side is a pushed
fragment into a dependency join: the pushed side becomes the inner input,
evaluated with the join values of the outer rows inlined as parameters
(a *bind join*).  The rule only fires when the source declares the
equality predicate, so a Wais fragment (no ``eq``) is never parameterized
— the optimizer instead drives *from* it, which is exactly the Figure 9
plan.  When the source also accepts the *disjunction* of the passed
equalities, the rule records which fragment columns are keyed on which
outer variables (``PushedOp.keyed``): the evaluator then ships all
distinct outer bindings in one call instead of one call per outer row.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.algebra.expressions import (
    BoolOr,
    Cmp,
    Expr,
    Var,
    conjunction,
    conjuncts,
)
from repro.core.algebra.operators import (
    DJoinOp,
    JoinOp,
    Plan,
    ProjectOp,
    PushedOp,
    SelectOp,
)
from repro.core.algebra.scheduling import plan_parameters
from repro.core.optimizer.rules import OptimizerContext, RewriteRule


class BindJoinRule(RewriteRule):
    """``Join(A, Pushed(f), A.x = f.y)``  ⇒  ``DJoin(A, Pushed(σ_{y=$x} f))``."""

    name = "BindJoin"

    def apply(self, plan: Plan, context: OptimizerContext) -> Optional[Plan]:
        if not isinstance(plan, JoinOp):
            return None
        # Prefer parameterizing the right side (keeps column order); fall
        # back to the left side with a column-restoring projection.
        rewritten = self._parameterize(plan, plan.left, plan.right, context)
        if rewritten is None:
            swapped = self._parameterize(
                JoinOp(plan.right, plan.left, plan.predicate),
                plan.right,
                plan.left,
                context,
            )
            if swapped is None:
                return None
            # Restore the original column order.
            items = [(column, column) for column in plan.output_columns()]
            rewritten = ProjectOp(swapped, items)
        return rewritten

    def _parameterize(
        self, join: JoinOp, outer: Plan, inner: Plan, context: OptimizerContext
    ) -> Optional[Plan]:
        pushed = self._pushed_of(inner)
        if pushed is None:
            return None
        matcher = context.matcher(pushed.source)
        if matcher is None:
            return None
        outer_cols = set(outer.output_columns())
        inner_cols = set(inner.output_columns())

        passed: List[Expr] = []
        remaining: List[Expr] = []
        for part in conjuncts(join.predicate):
            if self._cross_equality(part, outer_cols, inner_cols) and bool(
                matcher.predicate_pushable(part)
            ):
                passed.append(part)
            else:
                remaining.append(part)
        if not passed:
            return None

        parameterized = PushedOp(
            pushed.source,
            SelectOp(pushed.plan, conjunction(passed)),
            keyed=self._keyed(passed, inner_cols, pushed, matcher),
        )
        new_inner = self._rebuild_inner(inner, parameterized)
        result: Plan = DJoinOp(outer, new_inner)
        if remaining:
            result = SelectOp(result, conjunction(remaining))
        return result

    @staticmethod
    def _keyed(
        passed: List[Expr], inner_cols: set, pushed: PushedOp, matcher
    ) -> Tuple[Tuple[str, str], ...]:
        """``(fragment column, outer variable)`` per passed equality, or
        ``()`` when the outer bindings must be passed one at a time: the
        source has to accept the disjunction of the passed conjunction
        over several bindings (Section 4 — its capability description
        decides, not the mediator), and the fragment must not already
        observe a passed variable somewhere else."""
        pairs = []
        for part in passed:
            names = (part.left.name, part.right.name)
            local = [name for name in names if name in inner_cols]
            if len(local) != 1:
                return ()
            pairs.append((local[0], names[1 - names.index(local[0])]))
        every = conjunction(passed)
        if not matcher.predicate_pushable(BoolOr([every, every])):
            return ()
        if {variable for _c, variable in pairs} & plan_parameters(pushed.plan):
            return ()
        return tuple(pairs)

    @staticmethod
    def _pushed_of(plan: Plan) -> Optional[PushedOp]:
        """The PushedOp at the bottom of a [Select*] chain, if any."""
        node = plan
        while isinstance(node, SelectOp):
            node = node.input
        if isinstance(node, PushedOp):
            return node
        return None

    @staticmethod
    def _rebuild_inner(inner: Plan, parameterized: PushedOp) -> Plan:
        """Replace the bottom PushedOp of the chain with the new one."""
        selects: List[SelectOp] = []
        node = inner
        while isinstance(node, SelectOp):
            selects.append(node)
            node = node.input
        rebuilt: Plan = parameterized
        for select in reversed(selects):
            rebuilt = SelectOp(rebuilt, select.predicate)
        return rebuilt

    @staticmethod
    def _cross_equality(part: Expr, outer_cols: set, inner_cols: set) -> bool:
        if not isinstance(part, Cmp) or part.op != "=":
            return False
        if not isinstance(part.left, Var) or not isinstance(part.right, Var):
            return False
        names = {part.left.name, part.right.name}
        return bool(names & outer_cols) and bool(names & inner_cols) and not (
            names <= outer_cols
        ) and not (names <= inner_cols)
