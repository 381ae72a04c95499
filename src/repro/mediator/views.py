"""View registration and composition.

An integration program (``view1.yat``) defines named views as YAT_L
rules; user queries may then MATCH a view name exactly as they would a
source document.  Composition is *syntactic*: the ``Source`` leaf that
reads the view is replaced by the view's own plan, producing the naive
"build the view, then query it" expression on the left of Figure 8 —
which round one of the optimizer then collapses.  Views are virtual:
nothing is kept between queries (a repeated query over a view is served
by the result cache, when one is configured).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import ViewError
from repro.core.algebra.operators import FuseOp, Plan, SourceOp

#: The pseudo-source name used for documents that are mediator views.
VIEW_SOURCE = "mediator"


class ViewRegistry:
    """Named view plans (each a ``Tree``-rooted plan producing the view).

    Several rules may share one name: their partial results are fused
    through Skolem functions (paper, Section 2), so a program can build
    one document from multiple MATCH/MAKE rules.
    """

    def __init__(self) -> None:
        self._rules: Dict[str, List[Plan]] = {}

    def define(self, name: str, plan: Plan) -> None:
        if name not in plan.output_columns():
            raise ViewError(
                f"view plan for {name!r} must produce a column named {name!r}; "
                f"it produces {plan.output_columns()}"
            )
        self._rules.setdefault(name, []).append(plan)

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def plan(self, name: str) -> Plan:
        try:
            plans = self._rules[name]
        except KeyError:
            raise ViewError(f"unknown view: {name!r}") from None
        if len(plans) == 1:
            return plans[0]
        return FuseOp(plans, name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._rules)

    def compose(self, plan: Plan, _expanding: frozenset = frozenset()) -> Plan:
        """Replace every ``Source(mediator.<view>)`` leaf by the view plan."""
        if isinstance(plan, SourceOp):
            if plan.source == VIEW_SOURCE:
                if plan.document not in self._rules:
                    raise ViewError(f"unknown view: {plan.document!r}")
                if plan.document in _expanding:
                    raise ViewError(
                        f"view {plan.document!r} is recursively defined"
                    )
                # Views may reference other views: compose recursively.
                return self.compose(
                    self.plan(plan.document),
                    _expanding | {plan.document},
                )
            return plan
        children = plan.children()
        if not children:
            return plan
        new_children = [self.compose(child, _expanding) for child in children]
        if all(new is old for new, old in zip(new_children, children)):
            return plan
        return plan.with_children(new_children)
