"""Type-driven Bind simplification (paper, Section 5.1, Figure 7 bottom).

Two rewritings that need *type information* — one per direction of the
structured/semistructured mix:

**Structured queries over semistructured data**
    (:func:`simplify_filter`, driven by the demand analysis of
    :mod:`repro.core.optimizer.demand`) — "assume a user is only
    interested in the title and artist elements ... this corresponds to a
    projection that can be used to rewrite the Bind operation and
    simplify the query.  Doing so, we must be careful not to change the
    type filtering semantics of the Bind: a sufficient condition for the
    equivalence to hold is for the type of works to be an instance of the
    type of the filter."  We drop filter items that bind only unneeded
    variables when the source's exported structure pattern *guarantees*
    the dropped item would have matched exactly once (mandatory, single
    occurrence), or when the item never constrains matching at all
    (rest variables).

**Semistructured queries over structured data**
    (:class:`LabelVarExpansionRule`) — "the lower right part of Figure 7
    retrieves the attribute names of person objects.  Because we have
    precise type information, we can simplify the filter."  A label
    variable over a known tuple type expands into a union of ground
    filters, one per declared attribute, each tagged with the attribute
    name — after which every branch is pushable to O2.
"""

from __future__ import annotations

from typing import AbstractSet, List, Optional, Tuple

from repro.core.algebra.expressions import Const
from repro.core.algebra.operators import (
    BindOp,
    MapOp,
    Plan,
    ProjectOp,
    SourceOp,
    UnionOp,
)
from repro.core.optimizer.bind_split import _replace
from repro.core.optimizer.rules import OptimizerContext, RewriteRule
from repro.model.filters import (
    FElem,
    Filter,
    FRest,
    FStar,
    FVar,
    LabelVar,
)
from repro.model.patterns import (
    PNode,
    PRef,
    PStar,
    Pattern,
    PatternLibrary,
)


def _resolve(pattern: Optional[Pattern], library: Optional[PatternLibrary]):
    seen = set()
    while isinstance(pattern, PRef) and library is not None:
        if pattern.name in seen or pattern.name not in library:
            return None
        seen.add(pattern.name)
        pattern = library.resolve(pattern.name)
    return pattern


def source_structure(plan: BindOp, context: OptimizerContext):
    """(document pattern, library) for a Bind reading a Source, if known."""
    if not isinstance(plan.input, SourceOp):
        return None, None
    source_op = plan.input
    interface = context.interface(source_op.source)
    if interface is None:
        return None, None
    spec = interface.documents.get(source_op.document)
    if spec is None:
        return None, None
    model, pattern_name = spec
    library = interface.structures.get(model)
    if library is None or pattern_name not in library:
        return None, None
    return library.resolve(pattern_name), library


def simplify_filter(
    flt: Filter,
    pattern: Optional[Pattern],
    library: Optional[PatternLibrary],
    needed: AbstractSet[str],
) -> Filter:
    """The filter with droppable items removed; *flt* itself when nothing
    can go (or nothing is known)."""
    pattern = _resolve(pattern, library)
    if not isinstance(flt, FElem) or not isinstance(pattern, PNode):
        return flt
    kept: List[Filter] = []
    changed = False
    for item in flt.children:
        if _binds_needed(item, needed):
            descended = _descend(item, pattern, library, needed)
            changed = changed or descended is not item
            kept.append(descended)
            continue
        if isinstance(item, FRest):
            changed = True  # never constrains matching
            continue
        if _guaranteed_single(item, pattern, library):
            changed = True
            continue
        descended = _descend(item, pattern, library, needed)
        changed = changed or descended is not item
        kept.append(descended)
    if not changed:
        return flt
    return FElem(flt.label, kept, var=flt.var)


def _descend(
    item: Filter,
    pattern: PNode,
    library: Optional[PatternLibrary],
    needed: AbstractSet[str],
) -> Filter:
    """Recurse into kept items to simplify deeper levels."""
    if isinstance(item, FStar):
        child_pattern = _star_child(pattern, item.child, library)
        inner = simplify_filter(item.child, child_pattern, library, needed)
        return item if inner is item.child else FStar(inner)
    if isinstance(item, FElem) and isinstance(item.label, str):
        child_pattern = _single_child(pattern, item.label, library)
        return simplify_filter(item, child_pattern, library, needed)
    return item


def _binds_needed(item: Filter, needed: AbstractSet[str]) -> bool:
    return any(name in needed for name in item.variables())


def _guaranteed_single(
    item: Filter, pattern: PNode, library: Optional[PatternLibrary]
) -> bool:
    """Would dropping *item* change which trees match, or row multiplicity?

    Safe only for a plain element item whose label the pattern declares as
    a mandatory, single-occurrence child, with content that is itself a
    pure variable or empty (no constants, no deeper structure to check).
    """
    if not isinstance(item, FElem) or not isinstance(item.label, str):
        return False
    if item.children and not all(isinstance(c, FVar) for c in item.children):
        return False
    for child in pattern.children:
        if isinstance(child, PNode) and child.label == item.label:
            return True  # mandatory single occurrence in the pattern
    return False


def _single_child(pattern, label: str, library) -> Optional[Pattern]:
    pattern = _resolve(pattern, library)
    if not isinstance(pattern, PNode):
        return None
    for child in pattern.children:
        resolved = _resolve(child, library)
        if isinstance(resolved, PNode) and resolved.label == label:
            return resolved
    return None


def _star_child(pattern, inner: Filter, library) -> Optional[Pattern]:
    pattern = _resolve(pattern, library)
    if not isinstance(pattern, PNode):
        return None
    for child in pattern.children:
        if isinstance(child, PStar):
            return _resolve(child.child, library)
    return None


class LabelVarExpansionRule(RewriteRule):
    """Expand a label variable over a known tuple type into a union.

    ``Bind_{... tuple [ $l: $v ] ...}`` over a typed O2 class whose tuple
    attributes are declared becomes a union of ground binds, one per
    attribute, each extended with ``$l := <attribute name>``.  Every
    branch is then admissible for the source (the Figure 7 payoff: "the
    Bind operation can now be pushed to O2!").
    """

    name = "LabelVarExpansion"

    def apply(self, plan: Plan, context: OptimizerContext) -> Optional[Plan]:
        if not isinstance(plan, BindOp) or not isinstance(plan.input, SourceOp):
            return None
        found = _find_labelvar_in_tuple(plan.filter, None)
        if found is None:
            return None
        target, class_name = found
        if class_name is None:
            return None
        interface = context.interface(plan.input.source)
        if interface is None:
            return None
        attributes = _tuple_attributes(interface, class_name)
        if not attributes:
            return None
        label_var = target.label.name
        value_columns = [v for v in target.variables() if v != label_var]
        original_columns = plan.output_columns()

        branches: List[Plan] = []
        for attribute in attributes:
            ground = FElem(attribute, target.children, var=target.var)
            new_filter = _replace(plan.filter, target, ground)
            branch: Plan = BindOp(
                plan.input, new_filter, on=plan.on, keep_on=plan.keep_on
            )
            branch = MapOp(branch, [(label_var, Const(attribute))])
            branch = ProjectOp.keep(branch, original_columns)
            branches.append(branch)
        union = branches[0]
        for branch in branches[1:]:
            union = UnionOp(union, branch)
        return union


def _find_labelvar_in_tuple(
    flt: Filter, enclosing_class: Optional[str]
) -> Optional[Tuple[FElem, Optional[str]]]:
    """Locate ``$l: ...`` under a ``tuple`` node; report the class name."""
    if isinstance(flt, FStar):
        return _find_labelvar_in_tuple(flt.child, enclosing_class)
    if not isinstance(flt, FElem):
        return None
    if flt.label == "class" and len(flt.children) == 1:
        inner = flt.children[0]
        if isinstance(inner, FElem) and isinstance(inner.label, str):
            enclosing_class = inner.label
    if flt.label == "tuple":
        for item in flt.children:
            if isinstance(item, FElem) and isinstance(item.label, LabelVar):
                return item, enclosing_class
    for child in flt.children:
        found = _find_labelvar_in_tuple(child, enclosing_class)
        if found is not None:
            return found
    return None


def _tuple_attributes(interface, class_name: str) -> Tuple[str, ...]:
    """Attribute names of the class's tuple type, from exported patterns."""
    for library in interface.structures.values():
        if class_name not in library:
            continue
        pattern = library.resolve(class_name)
        # Expected shape: class [ <name> [ tuple [attrs] ] ].
        if not (isinstance(pattern, PNode) and pattern.label == "class"):
            continue
        if len(pattern.children) != 1 or not isinstance(pattern.children[0], PNode):
            continue
        named = pattern.children[0]
        if len(named.children) != 1 or not isinstance(named.children[0], PNode):
            continue
        tuple_pattern = named.children[0]
        if tuple_pattern.label != "tuple":
            continue
        return tuple(
            child.label
            for child in tuple_pattern.children
            if isinstance(child, PNode)
        )
    return ()
