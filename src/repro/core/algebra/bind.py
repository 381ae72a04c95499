"""The pattern-matching engine behind the ``Bind`` operator.

``Bind`` "extracts data from an input tree according to a given filter
(i.e., a tree with distinct variables).  It produces a table that contains
the variable bindings resulting from the pattern-matching" (paper,
Section 3.1 and Figure 4).

:class:`FilterMatcher` computes, for one data tree and one filter, the
list of binding dictionaries.  Each distinct way the filter's mandatory
items can be matched against the tree contributes one binding; optional
(starred) items iterate over their matches or bind
:data:`~repro.model.filters.MISSING`; rest items (``*($fields)``) bind the
collection of children claimed by no sibling.

References are followed transparently when an identifier index is
supplied: the view definition of Section 2 navigates from an artifact's
``owners`` list through person references, which requires dereferencing
during the match.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence

from repro.errors import BindError
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    Filter,
    FRest,
    FStar,
    FVar,
    LabelVar,
)
from repro.model.trees import DataNode

Binding = Dict[str, object]

#: Bound on the bindings one tree — and one whole collection target —
#: may produce; every matcher shares it and the guard messages.
MAX_MATCHES = 1_000_000


def collection_explosion(bound: int) -> BindError:
    """The error every matcher raises when a whole collection call exceeds
    the binding bound (the per-tree guard catches single trees)."""
    return BindError(
        f"filter produces more than {bound} bindings across a "
        f"collection; refusing the cartesian explosion"
    )


class FilterMatcher:
    """Matches filters against data trees, with optional reference deref.

    Parameters
    ----------
    index:
        Optional ``{ident: DataNode}`` mapping used to dereference
        reference nodes encountered during the match.  Without an index a
        reference node only matches variable filters (which bind the
        reference itself).
    max_matches:
        Safety bound on the number of bindings produced per tree and
        across one :meth:`match_collection` call; exceeded bounds raise
        :class:`BindError` (a runaway cartesian product is almost always
        a query bug).

    This is the reference implementation of Figure 4 — plain recursion,
    no index, no compilation — that every other matcher is tested
    against; it runs in production only under
    ``ExecutionPolicy.serial()``.
    """

    def __init__(
        self,
        index: Optional[Dict[str, DataNode]] = None,
        max_matches: int = MAX_MATCHES,
    ) -> None:
        self._index = index or {}
        self._max_matches = max_matches

    # -- public entry points -------------------------------------------------

    def match(self, node: DataNode, flt: Filter) -> List[Binding]:
        """All bindings of *flt* against the tree rooted at *node*."""
        return self._match(node, flt)

    def match_collection(
        self, nodes: Sequence[DataNode], flt: Filter
    ) -> List[Binding]:
        """Union of the bindings of *flt* against each tree in *nodes*."""
        match = self._match
        bound = self._max_matches
        bindings: List[Binding] = []
        for node in nodes:
            bindings.extend(match(node, flt))
            if len(bindings) > bound:
                raise collection_explosion(bound)
        return bindings

    # -- dispatch -------------------------------------------------------------

    def _match(self, node: DataNode, flt: Filter) -> List[Binding]:
        if isinstance(flt, FVar):
            return [{flt.name: _bound_value(node)}]
        if isinstance(flt, FConst):
            target = self._deref(node)
            if target.is_atom_leaf and target.atom == flt.value:
                return [{}]
            return []
        if isinstance(flt, FElem):
            return self._match_elem(node, flt)
        if isinstance(flt, FDescend):
            return self._match_descend(node, flt)
        if isinstance(flt, (FStar, FRest)):
            raise BindError(
                f"{type(flt).__name__} is only meaningful as a child of an element filter"
            )
        raise BindError(f"unknown filter kind: {flt!r}")

    def _deref(self, node: DataNode) -> DataNode:
        while node.is_reference and node.ref_target in self._index:
            node = self._index[node.ref_target]
        return node

    def _match_elem(self, node: DataNode, flt: FElem) -> List[Binding]:
        node = self._deref(node)
        if not flt.label_matches(node.label):
            return []
        own: Binding = {}
        if isinstance(flt.label, LabelVar):
            own[flt.label.name] = node.label
        if flt.var is not None:
            own[flt.var] = _bound_value(node)

        if not flt.children:
            return [own]

        # An atom leaf can satisfy an element filter whose single child is
        # a leaf-compatible filter (variable or constant).
        if node.is_atom_leaf:
            if len(flt.children) == 1:
                inner = self._match_leaf_content(node, flt.children[0])
                return [_merged(own, binding) for binding in inner]
            return []

        return self._match_children(node, flt, own)

    def _match_leaf_content(self, node: DataNode, flt: Filter) -> List[Binding]:
        if isinstance(flt, FVar):
            return [{flt.name: node.atom}]
        if isinstance(flt, FConst):
            return [{}] if node.atom == flt.value else []
        return []

    def _match_children(
        self, node: DataNode, flt: FElem, own: Binding
    ) -> List[Binding]:
        """Match the child filters against the node's children."""
        rest_item: Optional[FRest] = None
        alternatives_per_item: List[List[Binding]] = []
        claimed: set = set()  # ids of children matched by some sibling item

        for item in flt.children:
            if isinstance(item, FRest):
                rest_item = item
                continue
            # Stars iterate their inner filter: one binding alternative
            # per matching child.  Zero matches fail the element, exactly
            # like the DJoin the star is equivalent to (Figure 7): an
            # empty nested collection contributes no rows.  Mandatory
            # items fail the whole element the same way.
            target = item.child if isinstance(item, FStar) else item
            alts: List[Binding] = []
            for child in node.children:
                for binding in self._match(child, target):
                    claimed.add(id(child))
                    alts.append(binding)
            if not alts:
                return []
            alternatives_per_item.append(alts)

        rest_binding: Binding = {}
        if rest_item is not None:
            rest = tuple(
                child for child in node.children if id(child) not in claimed
            )
            rest_binding[rest_item.name] = rest

        results: List[Binding] = []
        total = 1
        for alts in alternatives_per_item:
            total *= len(alts)
            if total > self._max_matches:
                raise BindError(
                    f"filter produces more than {self._max_matches} bindings "
                    f"for one tree; refusing the cartesian explosion"
                )
        for combo in product(*alternatives_per_item):
            merged = dict(own)
            merged.update(rest_binding)
            for binding in combo:
                merged.update(binding)
            results.append(merged)
        return results

    def _match_descend(self, node: DataNode, flt: FDescend) -> List[Binding]:
        node = self._deref(node)
        child = flt.child
        bindings: List[Binding] = []
        for descendant in node.descendants():
            bindings.extend(self._match(descendant, child))
        return bindings


def _merged(first: Binding, second: Binding) -> Binding:
    merged = dict(first)
    merged.update(second)
    return merged


def _bound_value(node: DataNode) -> object:
    """The Tab cell a variable receives: atom value for leaves, node otherwise."""
    if node.is_atom_leaf:
        return node.atom
    return node


def match_filter(
    node: DataNode,
    flt: Filter,
    index: Optional[Dict[str, DataNode]] = None,
) -> List[Binding]:
    """Convenience wrapper: one-shot :class:`FilterMatcher` call."""
    return FilterMatcher(index=index).match(node, flt)
