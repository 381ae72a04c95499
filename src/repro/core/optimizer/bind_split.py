"""Bind splitting and merging: the equivalences of Figure 7.

Three interchangeable forms of a complex ``Bind``:

* **DJoin form** — "a complex Bind can always be splitted into elementary
  Binds (i.e., with only one-level deep filters), connected together
  through DJoins": nested-collection navigation becomes a dependent join
  whose right input binds into the collection
  (:func:`split_nested_collection`);
* **linear form** — "another possibility is to split a complex Bind into
  a linear sequence of elementary ones, each one navigating down the
  result of the previous one" (:func:`split_below_root`), which is the
  form capability pushdown needs for the Wais source;
* **extent form** — navigation through references "transformed into
  associative access": the dependent navigation becomes a standard Join
  against the referenced class's extent (:func:`navigation_to_extent_join`),
  using the mediator built-in ``ref_is`` predicate on reference identity.

:class:`MergeBindChainRule` is the linear split read right-to-left — the
final step of the Figure 8 derivation ("using the Bind-Split equivalence
in the other way, we can merge the remaining filters").
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.algebra.expressions import FunCall, Var
from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    JoinOp,
    Plan,
    ProjectOp,
    SourceOp,
    UnitOp,
)
from repro.core.optimizer.rules import OptimizerContext, RewriteRule
from repro.model.filters import FElem, FStar, FVar, Filter
from repro.model.patterns import PNode, PRef, PStar
from repro.model.trees import DataNode
from repro.model.values import COLLECTION_KINDS

#: Name of the mediator built-in reference-identity predicate.
REF_IS = "ref_is"


def ref_is(reference, node) -> bool:
    """Mediator implementation of ``ref_is``: does *reference* target *node*?

    Registered in every mediator's function registry; sources never see it
    (the extent-join rewriting exists precisely to turn navigation into
    plain joins the mediator can evaluate).
    """
    return (
        isinstance(reference, DataNode)
        and reference.is_reference
        and isinstance(node, DataNode)
        and node.ident is not None
        and reference.ref_target == node.ident
    )


# ---------------------------------------------------------------------------
# DJoin form
# ---------------------------------------------------------------------------

def split_nested_collection(
    bind: BindOp, context: OptimizerContext
) -> Optional[Plan]:
    """Split the first nested-collection navigation into a DJoin.

    ``Bind_{... attr: list * inner ...}`` becomes::

        Project(drop $x)( DJoin( Bind_{... attr: $x ...},
                                 Bind_{list * inner} on $x ) )

    where ``$x`` is a fresh variable binding the collection node (the
    paper's footnote: "the new variable $x ... removed afterwards by a
    projection").
    """
    fresh = context.fresh_variable("x")
    split = _split_first_collection(bind.filter, fresh)
    if split is None:
        return None
    outer_filter, inner_filter = split
    outer = BindOp(bind.input, outer_filter, on=bind.on, keep_on=bind.keep_on)
    inner = BindOp(UnitOp(), inner_filter, on=fresh)
    joined = DJoinOp(outer, inner)
    keep = [
        (column, column)
        for column in joined.output_columns()
        if column != fresh
    ]
    return ProjectOp(joined, keep)


def _split_first_collection(
    flt: Filter, fresh: str
) -> Optional[Tuple[Filter, Filter]]:
    """Replace the first nested collection filter with ``$fresh``.

    Returns ``(outer filter, inner filter)`` or ``None`` when the filter
    has no splittable navigation.
    """
    if not isinstance(flt, FElem):
        return None
    for index, child in enumerate(flt.children):
        if (
            isinstance(child, FElem)
            and isinstance(child.label, str)
            and len(child.children) == 1
            and isinstance(child.children[0], FElem)
            and isinstance(child.children[0].label, str)
            and child.children[0].label in COLLECTION_KINDS
            and any(isinstance(c, FStar) for c in child.children[0].children)
            and _has_variables(child.children[0])
        ):
            collection = child.children[0]
            new_child = FElem(child.label, [FVar(fresh)], var=child.var)
            new_children = list(flt.children)
            new_children[index] = new_child
            outer = FElem(flt.label, new_children, var=flt.var)
            return outer, collection
        # Recurse into nested elements.
        if isinstance(child, FElem):
            nested = _split_first_collection(child, fresh)
            if nested is not None:
                new_children = list(flt.children)
                new_children[index] = nested[0]
                return FElem(flt.label, new_children, var=flt.var), nested[1]
        if isinstance(child, FStar) and isinstance(child.child, FElem):
            nested = _split_first_collection(child.child, fresh)
            if nested is not None:
                new_children = list(flt.children)
                new_children[index] = FStar(nested[0])
                return FElem(flt.label, new_children, var=flt.var), nested[1]
    return None


def _has_variables(flt: Filter) -> bool:
    return bool(flt.variables())


# ---------------------------------------------------------------------------
# Linear form
# ---------------------------------------------------------------------------

def split_below_root(
    bind: BindOp, context: OptimizerContext
) -> Optional[Tuple[BindOp, BindOp]]:
    """Split a Bind into root iteration + per-element navigation.

    ``Bind_{root [ * inner[...] ]}`` becomes::

        Bind_{inner[...]} on $w ( Bind_{root [ * inner $w ]} )

    Returns ``(outer, full)`` where *full* is the final two-Bind plan's
    top operator, or ``None`` when the filter does not have the
    root-star shape.  This is the form Figure 9 pushes to Wais: the outer
    Bind (whole documents) is admissible, the residual navigation runs at
    the mediator.
    """
    flt = bind.filter
    if not (
        isinstance(flt, FElem)
        and isinstance(flt.label, str)
        and len(flt.children) == 1
        and isinstance(flt.children[0], FStar)
        and isinstance(flt.children[0].child, FElem)
    ):
        return None
    inner = flt.children[0].child
    if not inner.children:
        return None  # already elementary
    if not isinstance(inner.label, str):
        return None
    keep = inner.var is not None
    work_var = inner.var if inner.var is not None else context.fresh_variable("w")
    outer_filter = FElem(
        flt.label, [FStar(FElem(inner.label, var=work_var))], var=flt.var
    )
    outer = BindOp(bind.input, outer_filter, on=bind.on, keep_on=bind.keep_on)
    residual_filter = FElem(inner.label, inner.children)
    residual = BindOp(outer, residual_filter, on=work_var, keep_on=keep)
    return outer, residual


class MergeBindChainRule(RewriteRule):
    """Merge ``Bind(on=$w)(Bind binding $w)`` back into one Bind.

    Applicable when the inner Bind binds ``$w`` on an element filter with
    no children (a pure subtree binding) and the outer Bind navigates from
    ``$w`` with a filter rooted at the same label.  This is the final
    "merge the remaining filters" step of Figure 8.
    """

    name = "MergeBindChain"

    def apply(self, plan: Plan, context: OptimizerContext) -> Optional[Plan]:
        if not isinstance(plan, BindOp) or not isinstance(plan.input, BindOp):
            return None
        outer, inner = plan, plan.input
        if outer.keep_on:
            return None
        target = self._binding_element(inner.filter, outer.on)
        if target is None:
            return None
        if not isinstance(outer.filter, FElem):
            return None
        if isinstance(target.label, str) and isinstance(outer.filter.label, str):
            if target.label != outer.filter.label:
                return None
        merged_elem = FElem(
            target.label, tuple(target.children) + tuple(outer.filter.children),
            var=None,
        )
        merged_filter = _replace(inner.filter, target, merged_elem)
        return BindOp(inner.input, merged_filter, on=inner.on, keep_on=inner.keep_on)

    @staticmethod
    def _binding_element(flt: Filter, var: str) -> Optional[FElem]:
        for node in flt.walk():
            if isinstance(node, FElem) and node.var == var and not node.children:
                return node
        return None


def _replace(flt: Filter, old: Filter, new: Filter) -> Filter:
    """*flt* with the sub-filter *old* (by identity) replaced by *new*."""
    if flt is old:
        return new
    return flt.remade(Filter, lambda part: _replace(part, old, new))


# ---------------------------------------------------------------------------
# Extent form (associative access)
# ---------------------------------------------------------------------------

def navigation_to_extent_join(
    bind: BindOp, context: OptimizerContext
) -> Optional[Plan]:
    """Turn reference navigation into a Join against the class extent.

    Requires the navigated class to have an extent exported by the same
    source (Figure 7: "we exploit the persons extent to transform the
    DJoin into a standard Join").
    """
    source = _bind_source(bind)
    if source is None:
        return None
    interface = context.interface(source)
    if interface is None:
        return None
    found = _find_class_navigation(bind.filter)
    if found is None:
        return None
    attr_elem, collection_elem, class_filter = found
    class_name = _navigated_class(class_filter)
    if class_name is None:
        return None
    extent_document = _extent_of(interface, class_name)
    if extent_document is None:
        return None

    ref_var = context.fresh_variable("ref")
    obj_var = context.fresh_variable("obj")

    # Outer: bind each member reference instead of navigating through it.
    new_collection = FElem(collection_elem.label, [FStar(FVar(ref_var))])
    new_attr = FElem(attr_elem.label, [new_collection], var=attr_elem.var)
    outer_filter = _replace(bind.filter, attr_elem, new_attr)
    if outer_filter is bind.filter:
        return None
    outer = BindOp(bind.input, outer_filter, on=bind.on, keep_on=bind.keep_on)

    # Right: the class extent, bound with the original inner filter.
    inner = class_filter
    right_filter = FElem(
        "set",
        [FStar(FElem("class", inner.children, var=obj_var))],
    )
    right = BindOp(
        SourceOp(source, extent_document), right_filter, on=extent_document
    )
    joined = JoinOp(outer, right, FunCall(REF_IS, [Var(ref_var), Var(obj_var)]))
    keep = [
        (column, column)
        for column in joined.output_columns()
        if column not in (ref_var, obj_var)
    ]
    return ProjectOp(joined, keep)


def _bind_source(bind: BindOp) -> Optional[str]:
    if isinstance(bind.input, SourceOp):
        return bind.input.source
    return None


def _find_class_navigation(flt: Filter):
    """Locate ``attr [ kind [ * class[...] ] ]`` inside the filter."""
    if isinstance(flt, FElem):
        for child in flt.children:
            if (
                isinstance(child, FElem)
                and isinstance(child.label, str)
                and len(child.children) == 1
                and isinstance(child.children[0], FElem)
                and isinstance(child.children[0].label, str)
                and child.children[0].label in COLLECTION_KINDS
            ):
                collection = child.children[0]
                stars = [c for c in collection.children if isinstance(c, FStar)]
                if len(stars) == 1 and len(collection.children) == 1:
                    inner = stars[0].child
                    if isinstance(inner, FElem) and inner.label == "class":
                        return child, collection, inner
            nested = _find_class_navigation(child)
            if nested is not None:
                return nested
        return None
    if isinstance(flt, FStar):
        return _find_class_navigation(flt.child)
    return None


def _navigated_class(class_filter: FElem) -> Optional[str]:
    if len(class_filter.children) == 1 and isinstance(class_filter.children[0], FElem):
        label = class_filter.children[0].label
        if isinstance(label, str):
            return label
    return None


def _extent_of(interface, class_name: str) -> Optional[str]:
    """Find a document whose pattern is ``set [ * &class_name ]``."""
    for document in interface.documents:
        pattern = interface.document_pattern(document)
        if (
            isinstance(pattern, PNode)
            and pattern.label == "set"
            and len(pattern.children) == 1
            and isinstance(pattern.children[0], PStar)
            and isinstance(pattern.children[0].child, PRef)
            and pattern.children[0].child.name == class_name
        ):
            return document
    return None
