"""Capability-based rewriting (paper, Section 5.3) — round two.

"Exploiting source capabilities during query processing is definitely the
most important technique in a distributed context."  Two rules:

:class:`EquivalenceInsertionRule`
    applies declared source equivalences.  For the Wais
    ``SelectionImplication`` ("starting from a selection with equality
    over the result of a Bind, one can add a more general contains
    predicate over the root of the document"), it finds
    ``Select($x = "text")`` above a Bind on a source that declared the
    implication, makes sure the document root is bound to a tree variable
    ``$w``, and inserts ``Select(contains($w, "text"))`` directly above
    the Bind.  The original equality stays: ``contains`` is weaker (word
    match), so the mediator still post-filters — false positives are
    expected and correct.

:class:`CapabilityPushdownRule`
    wraps the largest admissible ``[Select*](Bind(Source))`` fragment in
    a ``Pushed`` operator.  When the Bind itself is not admissible (the
    Wais filter restriction), it first splits the Bind linearly
    (Figure 7) and pushes the admissible prefix, leaving the residual
    navigation at the mediator — exactly the two-step rewriting of
    Figure 9.

Both rules consult only the imported interfaces; nothing here knows what
a "Wais" or an "O2" is.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.capabilities.equivalences import SelectionImplication
from repro.core.algebra.expressions import (
    Cmp,
    Const,
    Expr,
    FunCall,
    Var,
    atom_kind,
    conjuncts,
)
from repro.core.algebra.operators import (
    BindOp,
    Plan,
    ProjectOp,
    PushedOp,
    SelectOp,
    SourceOp,
)
from repro.core.optimizer.bind_split import split_below_root
from repro.core.optimizer.rules import OptimizerContext, RewriteRule
from repro.model.filters import FElem, FStar, FVar, Filter


class EquivalenceInsertionRule(RewriteRule):
    """Insert declared source predicates below mediator selections."""

    name = "EquivalenceInsertion"

    def apply(self, plan: Plan, context: OptimizerContext) -> Optional[Plan]:
        if not isinstance(plan, SelectOp):
            return None
        # Locate the Bind(Source) this chain of selections and residual
        # Binds ultimately feeds on (a residual Bind navigates deeper into
        # the same documents, so variables it binds still come from them).
        chain: List[Plan] = [plan]
        node: Plan = plan.input
        while True:
            if isinstance(node, BindOp) and isinstance(node.input, SourceOp):
                break
            if isinstance(node, (SelectOp, BindOp)):
                chain.append(node)
                node = node.children()[0]
                continue
            return None
        bind = node
        source = bind.input.source
        interface = context.interface(source)
        if interface is None:
            return None
        implications = [
            eq for eq in interface.equivalences
            if isinstance(eq, SelectionImplication)
        ]
        if not implications:
            return None
        bound = set(bind.filter.variables())
        for op in chain:
            if isinstance(op, BindOp):
                bound |= set(op.filter.variables())

        filters = [bind.filter] + [
            op.filter for op in chain if isinstance(op, BindOp)
        ]
        for implication in implications:
            for conjunct in conjuncts(plan.predicate):
                matched = self._matching_constant(conjunct, implication, bound)
                if matched is None:
                    continue
                variable, constant = matched
                predicate_name = implication.source_predicate
                if implication.field_scoped:
                    # Prefer the per-field predicate the source exported
                    # (free-WAIS-sf structured fields) when the variable's
                    # binding label is known and declared.
                    label = _binding_label(filters, variable)
                    if label is not None and interface.supports(
                        implication.scoped_predicate(label)
                    ):
                        predicate_name = implication.scoped_predicate(label)
                rewritten = self._insert(
                    plan, chain, bind, predicate_name, constant, context
                )
                if rewritten is not None:
                    return rewritten
        return None

    @staticmethod
    def _matching_constant(
        conjunct: Expr, implication: SelectionImplication, bound: set
    ) -> Optional[Tuple[str, Const]]:
        """``(variable, constant)`` of ``$x = "text"`` when applicable.

        Reads the constant's type, never its value: a query parameter of
        kind ``str`` qualifies whatever text a request binds to it.
        """
        if not isinstance(conjunct, Cmp) or conjunct.op != implication.mediator_predicate:
            return None
        sides = (conjunct.left, conjunct.right)
        variables = [s for s in sides if isinstance(s, Var)]
        constants = [s for s in sides if isinstance(s, Const)]
        if len(variables) != 1 or len(constants) != 1:
            return None
        if variables[0].name not in bound:
            return None
        if atom_kind(constants[0].value) is not str:
            return None  # only textual predicates imply a full-text search
        if implication.argument_type not in (None, "String"):
            return None
        return variables[0].name, constants[0]

    def _insert(
        self,
        top: SelectOp,
        chain: List[Plan],
        bind: BindOp,
        predicate_name: str,
        constant: Const,
        context: OptimizerContext,
    ) -> Optional[Plan]:
        root_var, new_filter = self._rooted_filter(bind.filter, context)
        if root_var is None:
            return None
        derived = FunCall(predicate_name, [Var(root_var), constant])
        # Idempotence: never insert the same derived predicate twice.
        for op in chain:
            if isinstance(op, SelectOp) and derived in conjuncts(op.predicate):
                return None
        new_bind = BindOp(bind.input, new_filter, on=bind.on, keep_on=bind.keep_on)
        rebuilt: Plan = SelectOp(new_bind, derived)
        for op in reversed(chain):
            if isinstance(op, SelectOp):
                rebuilt = SelectOp(rebuilt, op.predicate)
            else:
                assert isinstance(op, BindOp)
                rebuilt = BindOp(rebuilt, op.filter, on=op.on, keep_on=op.keep_on)
        if new_filter is not bind.filter:
            # A fresh document variable was introduced: restore the original
            # output schema so enclosing operators are unaffected.
            original = top.output_columns()
            rebuilt = ProjectOp.keep(rebuilt, original)
        return rebuilt

    @staticmethod
    def _rooted_filter(
        flt: Filter, context: OptimizerContext
    ) -> Tuple[Optional[str], Optional[Filter]]:
        """Ensure the per-document element carries a tree variable.

        For a ``root [ * doc[...] ]`` filter, returns the document
        variable (existing or freshly added) and the possibly-extended
        filter.
        """
        if not (
            isinstance(flt, FElem)
            and len(flt.children) == 1
            and isinstance(flt.children[0], FStar)
            and isinstance(flt.children[0].child, FElem)
        ):
            return None, None
        inner = flt.children[0].child
        if inner.var is not None:
            return inner.var, flt
        fresh = context.fresh_variable("w")
        extended = FElem(
            flt.label,
            [FStar(FElem(inner.label, inner.children, var=fresh))],
            var=flt.var,
        )
        return fresh, extended


def _binding_label(filters, variable: str) -> Optional[str]:
    """The concrete element label whose content binds *variable*, if any."""
    for flt in filters:
        for node in flt.walk():
            if not isinstance(node, FElem) or not isinstance(node.label, str):
                continue
            for child in node.children:
                if isinstance(child, FVar) and child.name == variable:
                    return node.label
    return None


class CapabilityPushdownRule(RewriteRule):
    """Wrap the largest admissible fragment in a ``Pushed`` operator."""

    name = "CapabilityPushdown"

    def apply(self, plan: Plan, context: OptimizerContext) -> Optional[Plan]:
        projection: Optional[ProjectOp] = None
        node = plan
        if isinstance(node, ProjectOp):
            projection = node
            node = node.input
        selects: List[SelectOp] = []
        while isinstance(node, SelectOp):
            selects.append(node)
            node = node.input
        if not isinstance(node, BindOp) or not isinstance(node.input, SourceOp):
            return None
        bind = node
        source = bind.input.source
        matcher = context.matcher(source)
        if matcher is None:
            return None

        if matcher.bind_admissible(bind.filter):
            return self._push_whole(plan, projection, selects, bind, source, matcher)
        return self._push_split(plan, projection, selects, bind, source, matcher, context)

    # -- the Bind itself is admissible -------------------------------------------

    def _push_whole(self, plan, projection, selects, bind, source, matcher):
        bound = set(bind.filter.variables())
        pushable = [
            s for s in selects
            if matcher.predicate_pushable(s.predicate)
            and set(s.predicate.variables()) <= bound
        ]
        kept = [s for s in selects if s not in pushable]

        fragment: Plan = bind
        for select in reversed(pushable):
            fragment = SelectOp(fragment, select.predicate)
        push_projection = (
            projection is not None
            and not kept
            and matcher.operation_pushable("project")
        )
        if push_projection:
            fragment = ProjectOp(fragment, projection.items)
        rebuilt: Plan = PushedOp(source, fragment)
        for select in reversed(kept):
            rebuilt = SelectOp(rebuilt, select.predicate)
        if projection is not None and not push_projection:
            rebuilt = ProjectOp(rebuilt, projection.items)
        return rebuilt

    # -- the Bind must be split first (Figure 9, Wais side) ------------------------

    def _push_split(self, plan, projection, selects, bind, source, matcher, context):
        # Decline before splitting when no predicate could go along: a
        # declined split must not spend a fresh variable, or the shard
        # branches of one Scatter would each see different names.
        if not any(matcher.predicate_pushable(s.predicate) for s in selects):
            return None
        split = split_below_root(bind, context)
        if split is None:
            return None
        outer, residual = split
        if not matcher.bind_admissible(outer.filter):
            return None
        outer_columns = set(outer.output_columns())
        pushable = [
            s for s in selects
            if matcher.predicate_pushable(s.predicate)
            and set(s.predicate.variables()) <= outer_columns
        ]
        if not pushable:
            # Pushing a bare whole-document Bind transfers as much as the
            # Source itself; without a pushed predicate there is no win.
            return None
        kept = [s for s in selects if s not in pushable]

        fragment: Plan = outer
        for select in reversed(pushable):
            fragment = SelectOp(fragment, select.predicate)
        rebuilt: Plan = BindOp(
            PushedOp(source, fragment),
            residual.filter,
            on=residual.on,
            keep_on=residual.keep_on,
        )
        for select in reversed(kept):
            rebuilt = SelectOp(rebuilt, select.predicate)
        if projection is not None:
            rebuilt = ProjectOp(rebuilt, projection.items)
        return rebuilt
