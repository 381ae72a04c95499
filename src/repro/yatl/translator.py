"""YAT_L to algebra translation (paper, Section 3.2 and Figure 5).

The five translation steps, verbatim from the paper:

1. named documents are the input operations of the algebraic expression;
2. each MATCH statement translates into a Bind operation;
3. predicates involving various inputs translate into Join operations;
4. other predicates in the WHERE clause translate into Select operations;
5. the MAKE clause translates into a Tree operation.

Selections sit directly above the Bind that binds their variables (as in
Figure 5, where ``$y > 1800`` sits on the artifacts branch); join
predicates attach to the join at which all their variables first become
available; anything left over becomes a final selection.
"""

from __future__ import annotations

from typing import Callable, List

from repro.errors import YatlTranslationError
from repro.core.algebra.expressions import conjunction, conjuncts
from repro.core.algebra.operators import (
    BindOp,
    JoinOp,
    Plan,
    SelectOp,
    SourceOp,
    TreeOp,
)
from repro.core.algebra.tree import CElem, CGroup, CIterate, Constructor
from repro.yatl.ast import YatlQuery, YatlRule

#: Resolves a document name to the source exporting it.
DocumentResolver = Callable[[str], str]


def translate_query(
    query: YatlQuery,
    resolve_source: DocumentResolver,
    document_name: str = "result",
) -> Plan:
    """Translate one parsed query into an algebraic plan."""
    if not query.matches:
        raise YatlTranslationError("a query needs at least one MATCH input")

    # Steps 1 + 2: named documents and their Binds.
    branches: List[Plan] = []
    branch_vars: List[frozenset] = []
    for clause in query.matches:
        source = resolve_source(clause.document)
        bind = BindOp(
            SourceOp(source, clause.document), clause.filter, on=clause.document
        )
        branches.append(bind)
        branch_vars.append(frozenset(clause.filter.variables()))

    all_vars = frozenset().union(*branch_vars)
    pending = list(conjuncts(query.where)) if query.where is not None else []
    unknown = [
        c for c in pending if not frozenset(c.variables()) <= all_vars
    ]
    if unknown:
        missing = sorted(
            frozenset(unknown[0].variables()) - all_vars
        )
        raise YatlTranslationError(
            f"WHERE references unbound variables: {missing}"
        )

    # Step 4 (first): single-input predicates become selections on their branch.
    for index, variables in enumerate(branch_vars):
        local = [c for c in pending if frozenset(c.variables()) <= variables]
        if local:
            branches[index] = SelectOp(branches[index], conjunction(local))
            pending = [c for c in pending if c not in local]

    # Step 3: combine branches with joins, attaching multi-input predicates
    # as soon as their variables are available.
    plan = branches[0]
    available = set(branch_vars[0])
    for index in range(1, len(branches)):
        available |= branch_vars[index]
        ready = [c for c in pending if frozenset(c.variables()) <= available]
        plan = JoinOp(plan, branches[index], conjunction(ready))
        pending = [c for c in pending if c not in ready]

    # Step 4 (rest): anything left over is a final selection.
    if pending:
        plan = SelectOp(plan, conjunction(pending))

    # Step 5: the MAKE clause becomes a Tree.
    return TreeOp(plan, _rooted(query.make), document_name)


def _rooted(make: Constructor) -> CElem:
    """Ensure the construction has a single element root."""
    if isinstance(make, CElem):
        return make
    if isinstance(make, (CGroup, CIterate)):
        return CElem("result", [make])
    # A bare value (e.g. ``MAKE $t``): one item per distinct row.
    return CElem("result", [CIterate(make)])


def translate_rule(
    rule: YatlRule, resolve_source: DocumentResolver
) -> Plan:
    """Translate a named rule; the rule name becomes the document name."""
    return translate_query(rule.query, resolve_source, document_name=rule.name)
