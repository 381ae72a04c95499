"""Instantiation checks: data-vs-pattern and pattern-vs-pattern.

The YAT type system relates its three genericity levels through an
*instantiation* mechanism (paper, Section 2): a data tree may be an
instance of a schema pattern, which may itself be an instance of a model
pattern — e.g. ``Artifact <: ODMG <: YAT`` in Figure 3.

Two checks are provided:

* :func:`is_instance` — is this :class:`~repro.model.trees.DataNode` an
  instance of this :class:`~repro.model.patterns.Pattern`?
* :func:`subsumes` — is every instance of ``specific`` also an instance of
  ``general``?  This is a *conservative* structural check: it may answer
  ``False`` for exotic patterns that are in fact subsumed, but never
  answers ``True`` wrongly.

This is the instantiation check of Figure 3 and Section 2, pinned by
``tests/test_instantiation.py``; nothing else in ``src/`` calls it.

Both checks are coinductive over named-pattern references so that
recursive patterns (``Ftype`` referencing ``Fclass`` referencing
``Ftype``) terminate: a pair under test is provisionally assumed to hold.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.model.patterns import (
    PAny,
    PAtomic,
    PConstLeaf,
    PNode,
    PRef,
    PStar,
    PUnion,
    Pattern,
    PatternLibrary,
)
from repro.model.trees import DataNode
from repro.model.values import UNORDERED_KINDS, atom_type_name


# ---------------------------------------------------------------------------
# Data instance of pattern
# ---------------------------------------------------------------------------

def is_instance(
    node: DataNode, pattern: Pattern, library: Optional[PatternLibrary] = None
) -> bool:
    """Return ``True`` when the data tree *node* instantiates *pattern*.

    *library* resolves :class:`PRef` names; without a library a reference
    pattern matches any data reference node (purely structural check).
    """
    return _instance(node, pattern, library, set())


def _instance(
    node: DataNode,
    pattern: Pattern,
    library: Optional[PatternLibrary],
    active: Set[Tuple[int, tuple]],
) -> bool:
    if isinstance(pattern, PAny):
        return True
    if isinstance(pattern, PUnion):
        return any(_instance(node, alt, library, active) for alt in pattern.alternatives)
    if isinstance(pattern, PRef):
        # A data-level reference instantiates a pattern-level reference.
        if node.is_reference:
            return True
        if library is None or pattern.name not in library:
            return False
        key = (id(node), pattern._key())
        if key in active:
            # Coinduction: assume the pair holds while it is being checked.
            return True
        active.add(key)
        try:
            return _instance(node, library.resolve(pattern.name), library, active)
        finally:
            active.discard(key)
    if isinstance(pattern, PAtomic):
        return node.is_atom_leaf and atom_type_name(node.atom) == pattern.type_name
    if isinstance(pattern, PConstLeaf):
        return node.is_atom_leaf and node.atom == pattern.value and (
            type(node.atom) is type(pattern.value)
        )
    if isinstance(pattern, PNode):
        if not pattern.label_is_wildcard and node.label != pattern.label:
            return False
        if pattern.collection is not None and node.collection != pattern.collection:
            return False
        if node.is_atom_leaf:
            # An atom leaf instantiates a node pattern whose content is a
            # single atom-compatible pattern (e.g. title: String).
            return _atom_content_matches(node, pattern.children, library, active)
        if node.is_reference:
            return len(pattern.children) == 1 and isinstance(pattern.children[0], PRef)
        unordered = node.collection in UNORDERED_KINDS
        # Both tuples are already immutable sequences; copying them to
        # lists on every node match was pure allocation churn.
        return _sequence_match(
            node.children, pattern.children, library, active, unordered
        )
    raise TypeError(f"unknown pattern kind: {pattern!r}")


def _atom_content_matches(
    node: DataNode,
    content: Sequence[Pattern],
    library: Optional[PatternLibrary],
    active: Set[Tuple[int, tuple]],
) -> bool:
    """Match an atom leaf against the child patterns of a node pattern."""
    if len(content) != 1:
        return False
    only = content[0]
    if isinstance(only, PUnion):
        return any(_atom_content_matches(node, [alt], library, active) for alt in only.alternatives)
    if isinstance(only, PRef) and library is not None and only.name in library:
        return _atom_content_matches(node, [library.resolve(only.name)], library, active)
    if isinstance(only, PAny):
        return True
    if isinstance(only, PAtomic):
        return atom_type_name(node.atom) == only.type_name
    if isinstance(only, PConstLeaf):
        return node.atom == only.value and type(node.atom) is type(only.value)
    return False


def _sequence_match(
    children: Sequence[DataNode],
    items: Sequence[Pattern],
    library: Optional[PatternLibrary],
    active: Set[Tuple[int, tuple]],
    unordered: bool,
) -> bool:
    """Match a child sequence against a pattern sequence.

    Ordered sequences use memoized regular-expression matching where
    :class:`PStar` absorbs zero or more consecutive children.  Unordered
    collections (sets/bags) use a greedy assignment: every non-star item
    claims one distinct matching child, remaining children must each match
    some star item.
    """
    if unordered:
        return _unordered_match(children, items, library, active)

    memo: dict = {}

    def match(ci: int, pi: int) -> bool:
        key = (ci, pi)
        if key in memo:
            return memo[key]
        if pi == len(items):
            result = ci == len(children)
        else:
            item = items[pi]
            if isinstance(item, PStar):
                # Either the star is done, or it absorbs one more child.
                result = match(ci, pi + 1) or (
                    ci < len(children)
                    and _instance(children[ci], item.child, library, active)
                    and match(ci + 1, pi)
                )
            else:
                result = (
                    ci < len(children)
                    and _instance(children[ci], item, library, active)
                    and match(ci + 1, pi + 1)
                )
        memo[key] = result
        return result

    return match(0, 0)


def _unordered_match(
    children: Sequence[DataNode],
    items: Sequence[Pattern],
    library: Optional[PatternLibrary],
    active: Set[Tuple[int, tuple]],
) -> bool:
    stars = [item.child for item in items if isinstance(item, PStar)]
    singles = [item for item in items if not isinstance(item, PStar)]
    used = [False] * len(children)
    for item in singles:
        for index, child in enumerate(children):
            if not used[index] and _instance(child, item, library, active):
                used[index] = True
                break
        else:
            return False
    for index, child in enumerate(children):
        if used[index]:
            continue
        if not any(_instance(child, star, library, active) for star in stars):
            return False
    return True


# ---------------------------------------------------------------------------
# Pattern subsumption (specific <: general)
# ---------------------------------------------------------------------------

def subsumes(
    general: Pattern,
    specific: Pattern,
    library: Optional[PatternLibrary] = None,
) -> bool:
    """Return ``True`` when every instance of *specific* instantiates *general*.

    The check is conservative; ``False`` answers may be over-cautious but
    ``True`` answers are sound (assuming well-formed libraries).
    """
    return _subsumes(general, specific, library, set())


def _subsumes(
    general: Pattern,
    specific: Pattern,
    library: Optional[PatternLibrary],
    active: Set[Tuple[tuple, tuple]],
) -> bool:
    if isinstance(general, PAny):
        return True
    key = (general._key(), specific._key())
    if key in active:
        return True  # coinduction over recursive references
    active.add(key)
    try:
        return _subsumes_inner(general, specific, library, active)
    finally:
        active.discard(key)


def _subsumes_inner(
    general: Pattern,
    specific: Pattern,
    library: Optional[PatternLibrary],
    active: Set[Tuple[tuple, tuple]],
) -> bool:
    # Resolve references first (both sides).
    if isinstance(specific, PRef):
        if isinstance(general, PRef) and general.name == specific.name:
            return True
        if library is not None and specific.name in library:
            return _subsumes(general, library.resolve(specific.name), library, active)
        return isinstance(general, PRef)
    if isinstance(general, PRef):
        if library is not None and general.name in library:
            return _subsumes(library.resolve(general.name), specific, library, active)
        return False
    # Union on the specific side: all alternatives must be subsumed.
    if isinstance(specific, PUnion):
        return all(
            _subsumes(general, alt, library, active) for alt in specific.alternatives
        )
    # Union on the general side: some alternative must subsume.
    if isinstance(general, PUnion):
        return any(
            _subsumes(alt, specific, library, active) for alt in general.alternatives
        )
    if isinstance(general, PAtomic):
        if isinstance(specific, PAtomic):
            return general.type_name == specific.type_name
        if isinstance(specific, PConstLeaf):
            return atom_type_name(specific.value) == general.type_name
        return False
    if isinstance(general, PConstLeaf):
        return isinstance(specific, PConstLeaf) and general.value == specific.value
    if isinstance(general, PStar):
        if isinstance(specific, PStar):
            return _subsumes(general.child, specific.child, library, active)
        return _subsumes(general.child, specific, library, active)
    if isinstance(general, PNode):
        if not isinstance(specific, PNode):
            return False
        if not general.label_is_wildcard and general.label != specific.label:
            return False
        if general.collection is not None and general.collection != specific.collection:
            return False
        return _sequence_subsumes(
            general.children, specific.children, library, active
        )
    if isinstance(general, PAny):
        return True
    return False


def _sequence_subsumes(
    general_items: Sequence[Pattern],
    specific_items: Sequence[Pattern],
    library: Optional[PatternLibrary],
    active: Set[Tuple[tuple, tuple]],
) -> bool:
    """Conservative inclusion of the specific sequence language in the general one."""
    memo: dict = {}

    def incl(si: int, gi: int) -> bool:
        key = (si, gi)
        if key in memo:
            return memo[key]
        memo[key] = True  # optimistic for cycles through identical positions
        if si == len(specific_items):
            # Remaining general items must all be optional (stars).
            result = all(isinstance(g, PStar) for g in general_items[gi:])
        elif gi == len(general_items):
            result = False
        else:
            s_item = specific_items[si]
            g_item = general_items[gi]
            if isinstance(g_item, PStar):
                if isinstance(s_item, PStar):
                    result = (
                        _subsumes(g_item.child, s_item.child, library, active)
                        and incl(si + 1, gi)
                    ) or incl(si, gi + 1)
                else:
                    result = (
                        _subsumes(g_item.child, s_item, library, active)
                        and incl(si + 1, gi)
                    ) or incl(si, gi + 1)
            else:
                if isinstance(s_item, PStar):
                    result = False  # a star cannot fit a single-occurrence slot
                else:
                    result = _subsumes(g_item, s_item, library, active) and incl(
                        si + 1, gi + 1
                    )
        memo[key] = result
        return result

    return incl(0, 0)
