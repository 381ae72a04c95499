"""Document indexes: the positional encoding behind the twig join.

A :class:`DocumentIndex` numbers one immutable document tree in
pre-order and keeps, per node, its parent position and the end of its
subtree interval, plus one sorted position list per label — the classic
pre/post scheme of the TwigStack family.  The holistic twig join
(:mod:`repro.core.algebra.twig`) evaluates Bind filters over these
arrays: a parent/child edge is a probe of the per-label
:meth:`~DocumentIndex.children_map`, a descendant edge (``**``) a
bisection of :meth:`~DocumentIndex.label_list` against a
``[pos, end)`` interval.

Two tree shapes make position bookkeeping unsound, and both disable the
index (``supports_seek = False``) rather than risk a wrong answer: trees
containing reference nodes (dereferencing escapes the indexed subtree)
and trees sharing one node object in two places (``id``-keyed positions
clobber).  :class:`IndexRegistry` builds indexes lazily, only for trees
of at least :data:`MIN_INDEX_NODES` nodes — below that a scan is cheaper
than the build.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.memo import Memo
from repro.model.trees import DataNode

__all__ = [
    "DocumentIndex",
    "IndexRegistry",
    "MIN_INDEX_NODES",
    "document_index",
    "index_registry_stats",
    "invalidate_document_indexes",
    "reset_document_indexes",
]

#: Trees smaller than this are cheaper to scan than to index; the
#: registry turns them away before touching its table.
MIN_INDEX_NODES = 48


class DocumentIndex:
    """Positional label index over one immutable document tree.

    Nodes are numbered in pre-order (the exact order of
    :meth:`DataNode.descendants`); the subtree of the node at position
    ``p`` occupies the half-open interval ``[p, end(p))``.  Position
    lists are sorted, so every lookup comes back in document order.
    """

    __slots__ = (
        "_nodes", "_parents", "_ends", "_ids", "_label_positions",
        "_child_maps", "supports_seek", "node_count", "build_seconds",
    )

    def __init__(self, root: DataNode) -> None:
        started = time.perf_counter()
        nodes: List[DataNode] = []
        parents: List[int] = []
        ids: Dict[int, int] = {}
        label_positions: Dict[str, List[int]] = {}
        has_references = False
        shared = False

        stack: List[Tuple[DataNode, int]] = [(root, -1)]
        while stack:
            node, parent = stack.pop()
            pos = len(nodes)
            nodes.append(node)
            parents.append(parent)
            if id(node) in ids:
                shared = True
            else:
                ids[id(node)] = pos
            label_positions.setdefault(node.label, []).append(pos)
            if node.is_reference:
                has_references = True
            for child in reversed(node.children):
                stack.append((child, pos))

        count = len(nodes)
        sizes = [1] * count
        for pos in range(count - 1, 0, -1):
            sizes[parents[pos]] += sizes[pos]
        ends = [pos + sizes[pos] for pos in range(count)]

        self._nodes = nodes
        self._parents = parents
        self._ends = ends
        self._ids = ids
        self._label_positions = label_positions
        #: Lazily built ``label -> {parent position: [child positions]}``
        #: maps backing the holistic twig join (one grouping pass per
        #: label, amortized across every match over this document).
        self._child_maps: Dict[str, Dict[int, List[int]]] = {}
        self.supports_seek = not has_references and not shared
        self.node_count = count
        self.build_seconds = time.perf_counter() - started

    # -- coverage -----------------------------------------------------------

    def covers(self, node: DataNode) -> bool:
        """``True`` when positional matching rooted at *node* is sound."""
        if not self.supports_seek:
            return False
        pos = self._ids.get(id(node))
        return pos is not None and self._nodes[pos] is node

    # -- positional access (twig joins) -------------------------------------

    @property
    def preorder_nodes(self) -> List[DataNode]:
        """Every node of the document in pre-order position order."""
        return self._nodes

    @property
    def subtree_ends(self) -> List[int]:
        """``ends[p]``: one past the last position of ``p``'s subtree."""
        return self._ends

    def position_of(self, node: DataNode) -> int:
        """Pre-order position of *node* (KeyError when not indexed)."""
        pos = self._ids.get(id(node))
        if pos is None or self._nodes[pos] is not node:
            raise KeyError(f"node {node!r} is not part of the indexed document")
        return pos

    def label_list(self, label: str) -> Sequence[int]:
        """Sorted pre-order positions of every *label*-labeled node."""
        return self._label_positions.get(label, ())

    def children_map(self, label: str) -> Dict[int, List[int]]:
        """``parent position -> child positions`` for *label*-labeled children.

        Built lazily, once per label per document, by a single grouping
        pass over the label's position list; twig joins then resolve a
        parent/child edge with one dict probe instead of scanning the
        parent's children.  Child positions come out ascending, i.e. in
        document order.  Concurrent matches may both build a label's map;
        either result is correct.
        """
        mapped = self._child_maps.get(label)
        if mapped is None:
            mapped = {}
            parents = self._parents
            for position in self._label_positions.get(label, ()):
                parent = parents[position]
                bucket = mapped.get(parent)
                if bucket is None:
                    mapped[parent] = [position]
                else:
                    bucket.append(position)
            self._child_maps[label] = mapped
        return mapped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DocumentIndex({self.node_count} nodes, "
            f"{len(self._label_positions)} labels, "
            f"seek={'on' if self.supports_seek else 'off'})"
        )


# ---------------------------------------------------------------------------
# Registry: lazy per-(document, epoch) indexes
# ---------------------------------------------------------------------------

class IndexRegistry:
    """Process-wide cache of :class:`DocumentIndex` keyed by tree identity.

    Indexes are built lazily on first use and kept until the mediator
    bumps its catalog epoch (``invalidate_document_indexes``), which
    every schema/source change already triggers.  Only trees that clear
    the size gate occupy a slot, so the stream of small per-row Bind
    targets can never evict a real index; a large tree that cannot be
    indexed (references, shared nodes) is remembered as ``None`` so its
    full traversal is paid once, not per Bind.
    """

    __slots__ = ("_memo", "_lock", "builds", "build_seconds")

    def __init__(self, capacity: int = 64) -> None:
        #: ``id(root) -> index or None``, anchored on the root itself.
        self._memo = Memo(capacity)
        self._lock = threading.Lock()
        self.builds = 0
        self.build_seconds = 0.0

    def get(self, root: DataNode) -> Optional[DocumentIndex]:
        """The index covering *root*, or ``None`` for "scan this one".

        ``None`` means the tree is below the size gate (``size()`` is
        cached on the node, so the test costs one attribute read) or
        cannot be indexed soundly.
        """
        if root.size() < MIN_INDEX_NODES:
            return None
        return self._memo.get_or_build(id(root), self._build, root, anchor=root)

    def _build(self, root: DataNode) -> Optional[DocumentIndex]:
        index = DocumentIndex(root)
        if not index.supports_seek:
            return None
        with self._lock:
            self.builds += 1
            self.build_seconds += index.build_seconds
        return index

    def invalidate(self) -> None:
        """Drop every cached index; called on catalog-epoch bumps."""
        self._memo.clear()

    def stats(self) -> Dict[str, object]:
        """The memo's uniform counters plus ``builds``/``build_seconds``."""
        stats: Dict[str, object] = self._memo.stats()
        with self._lock:
            stats["builds"] = self.builds
            stats["build_seconds"] = self.build_seconds
        return stats

    def reset(self) -> None:
        self.__init__(self._memo.capacity)


_DOCUMENT_INDEXES = IndexRegistry()


def document_index(root: DataNode) -> Optional[DocumentIndex]:
    """Fetch (building lazily) the shared index for *root*; see
    :meth:`IndexRegistry.get`."""
    return _DOCUMENT_INDEXES.get(root)


def invalidate_document_indexes() -> None:
    """Drop all cached document indexes (catalog epoch bumped)."""
    _DOCUMENT_INDEXES.invalidate()


def index_registry_stats() -> Dict[str, object]:
    """Counters for metrics export (see :meth:`IndexRegistry.stats`)."""
    return _DOCUMENT_INDEXES.stats()


def reset_document_indexes() -> None:
    """Test hook: clear the registry and zero its counters."""
    _DOCUMENT_INDEXES.reset()
