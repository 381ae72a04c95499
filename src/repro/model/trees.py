"""Ordered labeled trees: the data level of the YAT model.

A :class:`DataNode` represents one node of a YAT tree (paper, Section 2 and
Figure 3).  A node is one of:

* an **element**: a label plus an ordered sequence of children, optionally
  annotated with a collection kind (``set``/``bag``/``list``/``array``);
* an **atom leaf**: a label whose single content is an atomic value;
* a **reference**: a pointer (by identifier) to another tree, written ``&``
  in the paper's figures.

Nodes may carry an identifier (``ident``).  Identifiers come from the
source (object identity in O2) or from Skolem functions at the mediator,
and are excluded from *value* equality: two trees are equal when their
labels, atoms and (order-sensitive, except under unordered collections)
children are equal.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import ModelError
from repro.model.values import Atom, UNORDERED_KINDS, is_atom


class DataNode:
    """One node of a YAT data tree.

    Use the module-level constructors :func:`elem`, :func:`atom_leaf` and
    :func:`ref` rather than calling this class directly; they validate the
    combinations of arguments that make sense.
    """

    __slots__ = (
        "label", "children", "atom", "ident", "ref_target", "collection",
        "_vkey", "_vhash", "_ssize", "_nsize",
    )

    def __init__(
        self,
        label: str,
        children: Sequence["DataNode"] = (),
        atom: Optional[Atom] = None,
        ident: Optional[str] = None,
        ref_target: Optional[str] = None,
        collection: Optional[str] = None,
    ) -> None:
        if atom is not None and children:
            raise ModelError(f"node {label!r} cannot have both an atom and children")
        if ref_target is not None and (children or atom is not None):
            raise ModelError(f"reference node {label!r} cannot carry content")
        if atom is not None and not is_atom(atom):
            raise ModelError(f"not an atom: {atom!r}")
        self.label = label
        self.children: Tuple[DataNode, ...] = tuple(children)
        self.atom = atom
        self.ident = ident
        self.ref_target = ref_target
        self.collection = collection
        # Lazily computed structural key / hash.  Nodes are immutable
        # after construction, so both can be cached on the instance —
        # distinct(), hash-join probes and set operations would otherwise
        # recompute the full recursive key on every use.
        self._vkey: Optional[tuple] = None
        self._vhash: Optional[int] = None
        #: UTF-8 length of the text ``xml_io.write_tree`` prints for the
        #: node, cached by ``xml_io.serialized_size`` — transfer
        #: statistics re-measure shared trees on every call.
        self._ssize: Optional[int] = None
        #: Node count, cached by ``size()`` — the store wrapper counts
        #: the nodes of memoized hydrated subtrees on every pushdown.
        self._nsize: Optional[int] = None

    # -- classification ----------------------------------------------------

    @property
    def is_atom_leaf(self) -> bool:
        """``True`` when the node holds an atomic value."""
        return self.atom is not None

    @property
    def is_reference(self) -> bool:
        """``True`` when the node is a reference to another tree."""
        return self.ref_target is not None

    @property
    def is_element(self) -> bool:
        """``True`` when the node is a plain element (possibly empty)."""
        return not self.is_atom_leaf and not self.is_reference

    # -- navigation ---------------------------------------------------------

    def child(self, label: str) -> Optional["DataNode"]:
        """Return the first child with the given *label*, or ``None``."""
        for node in self.children:
            if node.label == label:
                return node
        return None

    def children_with_label(self, label: str) -> Tuple["DataNode", ...]:
        """Return all children carrying *label*, in document order."""
        return tuple(node for node in self.children if node.label == label)

    def descendants(self) -> Iterator["DataNode"]:
        """Yield this node and every descendant, depth first, pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find(self, predicate: Callable[["DataNode"], bool]) -> Optional["DataNode"]:
        """Return the first descendant (pre-order) satisfying *predicate*."""
        for node in self.descendants():
            if predicate(node):
                return node
        return None

    def find_all(self, label: str) -> Tuple["DataNode", ...]:
        """Return every descendant whose label equals *label*."""
        return tuple(node for node in self.descendants() if node.label == label)

    def text(self) -> str:
        """Concatenate the textual form of every atom in the subtree.

        This is the "document content" the Wais full-text index works on.
        """
        parts = []
        for node in self.descendants():
            if node.is_atom_leaf:
                parts.append(str(node.atom))
        return " ".join(parts)

    # -- size / shape -------------------------------------------------------

    def size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        count = self._nsize
        if count is None:
            count = self._nsize = sum(1 for _node in self.descendants())
        return count

    def depth(self) -> int:
        """Height of the subtree (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    # -- equality -----------------------------------------------------------

    def _value_key(self) -> tuple:
        """Structural key used for equality and hashing.

        Identifiers are excluded; under unordered collection kinds the
        children are compared as sorted multisets.
        """
        key = self._vkey
        if key is not None:
            return key
        if self.is_atom_leaf:
            content: tuple = ("atom", type(self.atom).__name__, self.atom)
        elif self.is_reference:
            content = ("ref", self.ref_target)
        else:
            keys = [child._value_key() for child in self.children]
            if self.collection in UNORDERED_KINDS:
                keys.sort(key=repr)
            content = ("elem", tuple(keys))
        key = self._vkey = (self.label, self.collection, content)
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataNode):
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self) -> int:
        h = self._vhash
        if h is None:
            h = self._vhash = hash(self._value_key())
        return h

    # -- copies -------------------------------------------------------------

    def with_children(self, children: Sequence["DataNode"]) -> "DataNode":
        """Return a copy of this node with *children* replacing the old ones."""
        return DataNode(
            self.label,
            children=children,
            ident=self.ident,
            collection=self.collection,
        )

    def with_ident(self, ident: Optional[str]) -> "DataNode":
        """Return a copy of this node carrying the given identifier."""
        return DataNode(
            self.label,
            children=self.children,
            atom=self.atom,
            ident=ident,
            ref_target=self.ref_target,
            collection=self.collection,
        )

    # -- display ------------------------------------------------------------

    def __repr__(self) -> str:
        if self.is_atom_leaf:
            return f"DataNode({self.label!r}, atom={self.atom!r})"
        if self.is_reference:
            return f"DataNode({self.label!r}, ref={self.ref_target!r})"
        return f"DataNode({self.label!r}, {len(self.children)} children)"

    def pretty(self, indent: int = 0) -> str:
        """Multi-line indented rendering, used by examples and error text."""
        pad = "  " * indent
        ident = f" id={self.ident}" if self.ident else ""
        if self.is_atom_leaf:
            return f"{pad}{self.label}{ident}: {self.atom!r}"
        if self.is_reference:
            return f"{pad}{self.label}{ident} -> &{self.ref_target}"
        kind = f" ({self.collection})" if self.collection else ""
        lines = [f"{pad}{self.label}{ident}{kind}"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def elem(
    label: str,
    *children: DataNode,
    ident: Optional[str] = None,
    collection: Optional[str] = None,
) -> DataNode:
    """Build an element node.

    >>> work = elem("work", atom_leaf("title", "Nympheas"))
    >>> work.child("title").atom
    'Nympheas'
    """
    return DataNode(label, children=children, ident=ident, collection=collection)


def atom_leaf(label: str, value: Atom) -> DataNode:
    """Build a leaf node holding an atomic value."""
    return DataNode(label, atom=value)


def ref(label: str, target: str) -> DataNode:
    """Build a reference node pointing at the tree identified by *target*."""
    return DataNode(label, ref_target=target)


def collection_node(
    kind: str, label: str, children: Iterable[DataNode], ident: Optional[str] = None
) -> DataNode:
    """Build a collection element of the given kind (``set``, ``list``...)."""
    return DataNode(label, children=tuple(children), ident=ident, collection=kind)


def resolve_reference(node: DataNode, index: dict) -> DataNode:
    """Follow a reference node through an ``{ident: DataNode}`` index.

    Raises :class:`ModelError` when the target is unknown.
    """
    if not node.is_reference:
        return node
    try:
        return index[node.ref_target]
    except KeyError:
        raise ModelError(f"dangling reference: &{node.ref_target}") from None


def build_ident_index(roots: Iterable[DataNode]) -> dict:
    """Index every identified node reachable from *roots* by its ident."""
    index: dict = {}
    for root in roots:
        for node in root.descendants():
            if node.ident is not None:
                index[node.ident] = node
    return index
