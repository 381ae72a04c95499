"""Shard expansion and pruning — partition-aware planning (round two).

A Bind chain over a sharded logical source reads the shard-major
concatenation of the shard documents.  When the chain's filter is a
single iteration over the collection root (``FElem(root)[FStar(work)]``),
every binding row comes from exactly one root child, i.e. from exactly
one shard — so the chain distributes over the shards:

    [Project]([Select]*(Bind(Source(logical))))
        ⇒ Scatter_i [Project]([Select]*(Bind(Source(logical#i))))

in shard order, preserving the logical document order row for row (bag
semantics; no dedup).  Expanding *before* capability pushdown lets each
branch push its own fragment to its shard wrapper, and the scatter
branches run under the plan scheduler's parallelism.

Pruning skips branches that cannot contribute rows, and it happens per
execution, never here: the rule reads no constant's value, so one
cached plan serves every constant.  An equality on the partition-key
value — an in-filter constant (``artist: "Monet"``) or a Select
equality of a key-bound variable with a constant — is recorded on the
Scatter; each execution hands the request's bound value to the
partition scheme's :meth:`prune`, which answers with the shard that
could hold a matching document (:meth:`ScatterOp.shards`).  Only
equalities prune: a hash preserves nothing about order.  Soundness
rests on placement and pruning sharing one function (see
:mod:`repro.sources.sharded.partition`); ``contains`` predicates never
prune (word containment says nothing about the key's full value).  An
equality against an *outer* variable (under a DJoin) becomes the
Scatter's ``prune_param``, and each outer row is routed to its one
owning shard.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple, Union

from repro.core.algebra.expressions import Cmp, Const, Var, conjuncts
from repro.core.algebra.operators import (
    BindOp,
    Plan,
    ProjectOp,
    ScatterOp,
    SelectOp,
    SourceOp,
)
from repro.core.optimizer.rules import OptimizerContext, RewriteRule
from repro.model.filters import FConst, FElem, FStar, FVar

class ShardExpansionRule(RewriteRule):
    """``Bind(Source(logical))`` chain ⇒ ``Scatter`` of per-shard chains."""

    name = "ShardExpansion"

    def apply(self, plan: Plan, context: OptimizerContext) -> Optional[Plan]:
        if not context.shards:
            return None
        projection, selects, bind = _chain_of(plan)
        if bind is None:
            return None
        source = bind.input
        topology = context.shards.get(source.source)
        if topology is None:
            return None
        # ``keep_on`` would put the whole (per-shard) document tree in the
        # output, which differs from the logical document — don't expand.
        if bind.on != source.document or bind.keep_on:
            return None
        flt = bind.filter
        if not _distributes(flt):
            return None

        partition = topology.partition
        key_vars, key_consts = _key_restrictions(
            flt.children[0].child, partition.key
        )
        local = set(bind.output_columns())
        restrictions: List[Const] = list(key_consts)
        prune_param: Optional[str] = None
        for select in selects:
            for part in conjuncts(select.predicate):
                operand = _key_equality(part, key_vars, local)
                if isinstance(operand, Const):
                    restrictions.append(operand)
                elif operand is not None and prune_param is None:
                    prune_param = operand  # outer column name

        branches = []
        for index in range(topology.total):
            branch: Plan = BindOp(
                SourceOp(topology.shard_names[index], source.document),
                flt,
                on=bind.on,
            )
            for select in reversed(selects):
                branch = SelectOp(branch, select.predicate)
            if projection is not None:
                branch = ProjectOp(branch, projection.items)
            branches.append(branch)
        return ScatterOp(
            branches,
            logical=source.source,
            partition=partition,
            restrictions=restrictions,
            prune_param=prune_param,
        )


def _chain_of(plan: Plan):
    """Decompose ``[Project?][Select*]Bind(Source)``; bind is None on miss.

    Selects are returned outermost first.
    """
    projection = None
    node = plan
    if isinstance(node, ProjectOp):
        projection = node
        node = node.input
    selects: List[SelectOp] = []
    while isinstance(node, SelectOp):
        selects.append(node)
        node = node.input
    if isinstance(node, BindOp) and isinstance(node.input, SourceOp):
        return projection, selects, node
    return None, None, None


def _distributes(flt) -> bool:
    """Does the filter distribute over a partition of the root's children?

    Required shape: a plain-labeled element filter whose only item is one
    iteration.  A root ``var`` would bind the whole (per-shard) document;
    a second item (``FRest``, another ``FStar``) would relate siblings
    across shards — either breaks the one-row-one-shard argument.
    """
    return (
        isinstance(flt, FElem)
        and isinstance(flt.label, str)
        and flt.var is None
        and len(flt.children) == 1
        and isinstance(flt.children[0], FStar)
    )


def _key_restrictions(pattern, key: str) -> Tuple[Set[str], List[Const]]:
    """Partition-key variables and in-filter key constants of one
    per-document pattern.

    Only *direct* child items count: placement hashes a document's
    top-level ``key`` child (see :func:`document_key_value`), so only
    those items are guaranteed to bind the value placement saw.
    """
    names: Set[str] = set()
    consts: List[Const] = []
    if not isinstance(pattern, FElem):
        return names, consts
    for item in pattern.children:
        if not isinstance(item, FElem) or item.label != key:
            continue
        if item.var is not None and not item.children:
            names.add(item.var)  # binds the key element node
        if len(item.children) == 1:
            inner = item.children[0]
            if isinstance(inner, FVar):
                names.add(inner.name)  # binds the key content
                if item.var is not None:
                    names.add(item.var)
            elif isinstance(inner, FConst):
                consts.append(Const(inner.value))
    return names, consts


def _key_equality(
    part, key_vars: Set[str], local: Set[str]
) -> Union[Const, str, None]:
    """The ``Const`` or outer column name *part* equates with a
    key-bound variable, if it is such an equality."""
    if not isinstance(part, Cmp) or part.op != "=":
        return None
    if isinstance(part.left, Var) and part.left.name in key_vars:
        other = part.right
    elif isinstance(part.right, Var) and part.right.name in key_vars:
        other = part.left
    else:
        return None
    if isinstance(other, Const):
        return other
    if isinstance(other, Var) and other.name not in local:
        return other.name
    return None
