"""Out-of-core document storage: sqlite-shredded trees (ROADMAP item 2).

Every other source in this reproduction materializes whole documents as
Python trees before a single ``Bind`` runs, so data is capped by RAM and
cold-start pays full materialization even when a query touches one
subtree.  :class:`DocumentStore` persists the *shredded* form instead —
one row per node::

    nodes(doc, pre, post, parent, name, kind, vtype, value, num, ident, col)

``pre`` is the node's pre-order position and ``post`` is the half-open
end of its subtree interval (``post = pre + subtree size``), computed by
exactly the traversal :class:`~repro.model.indexes.DocumentIndex` uses,
so the two encodings are interchangeable position-for-position:

* *descendant of s*  ⇔  ``s.pre < t.pre AND t.pre < s.post``
* *child of s*       ⇔  ``t.parent = s.pre``

which is what lets the pushdown pass (:mod:`repro.store.pushdown`)
translate ``**`` descents into interval self-joins the database runs.

Reads come in two granularities, cheapest first:

* lazy subtree hydration (:meth:`DocumentStore.hydrate`) — one pre/post
  range read materializes just the subtree a binding needs, memoized per
  ``(doc, pre)`` and data version;
* full document hydration (:meth:`DocumentStore.hydrate_document`) —
  the compatibility path behind ``Wrapper.document()``.

All state is guarded by one lock (sqlite connections are shared across
the server's request threads) and the hydration memo is bounded, the
same ``RequestContext``-safety rules every process-wide memo follows
since PR 6.  The ``version`` counter bumps on every insert/update so
wrapper document memos, plan-cache epochs and the ``IndexRegistry``
never serve stale shredded rows.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SourceError
from repro.memo import Memo
from repro.model.trees import DataNode
from repro.model.values import Atom, atom_type_name, parse_atom
from repro.model.xml_io import serialized_size

_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    doc TEXT PRIMARY KEY,
    nodes INTEGER NOT NULL,
    bytes INTEGER NOT NULL,
    root_children INTEGER NOT NULL,
    pushdown_safe INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS nodes (
    doc TEXT NOT NULL,
    pre INTEGER NOT NULL,
    post INTEGER NOT NULL,
    parent INTEGER,
    name TEXT NOT NULL,
    kind TEXT NOT NULL,
    vtype TEXT,
    value TEXT,
    num REAL,
    ident TEXT,
    col TEXT,
    PRIMARY KEY (doc, pre)
);
CREATE INDEX IF NOT EXISTS nodes_by_name ON nodes (doc, name, pre);
CREATE INDEX IF NOT EXISTS nodes_by_parent ON nodes (doc, parent, pre);
CREATE INDEX IF NOT EXISTS nodes_by_num ON nodes (doc, num);
CREATE INDEX IF NOT EXISTS nodes_by_value ON nodes (doc, value);
"""


def _atom_text(atom: Atom) -> str:
    """Round-trippable text for an atom (inverse of ``parse_atom``)."""
    if isinstance(atom, bool):
        return "true" if atom else "false"
    if isinstance(atom, float):
        return repr(atom)
    return str(atom)


def _atom_num(atom: Atom) -> Optional[float]:
    """The REAL comparison key for numeric atoms, ``None`` when unsafe.

    Stored only when ``float(atom) == atom`` exactly: then two exactly-
    representable numerics are Python-equal iff their REALs are equal
    (``True == 1 == 1.0``), and a lossy value (a > 2**53 integer, NaN)
    can never equal an exactly-representable constant, so leaving its
    ``num`` NULL is the correct "matches no pushed constant" encoding.
    """
    if isinstance(atom, str):
        return None
    try:
        key = float(atom)
    except OverflowError:
        return None
    if key != key or key != atom:  # NaN, or not exactly representable
        return None
    return key


def shred(root: DataNode) -> Tuple[list, int, bool]:
    """Flatten *root* into node rows with pre/post interval positions.

    Returns ``(rows, count, pushdown_safe)`` where each row is the
    ``nodes`` tuple minus the leading document name.  The traversal is
    the :class:`~repro.model.indexes.DocumentIndex` one — iterative
    pre-order with a backward subtree-size accumulation — so positions
    agree with the in-memory index byte for byte.  Reference nodes and
    shared subtrees make the document *pushdown-unsafe* (the mirror of
    ``DocumentIndex.supports_seek``): its queries fall back to hydrated
    scans where the in-memory Bind engine owns the semantics.
    """
    nodes: List[DataNode] = []
    parents: List[int] = []
    seen_ids: set = set()
    shared = False
    has_references = False
    stack: List[Tuple[DataNode, int]] = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        position = len(nodes)
        if id(node) in seen_ids:
            shared = True
        seen_ids.add(id(node))
        nodes.append(node)
        parents.append(parent)
        if node.is_reference:
            has_references = True
        for child in reversed(node.children):
            stack.append((child, position))

    count = len(nodes)
    sizes = [1] * count
    for position in range(count - 1, 0, -1):
        sizes[parents[position]] += sizes[position]

    rows = []
    for position, node in enumerate(nodes):
        parent = parents[position] if position else None
        if node.is_atom_leaf:
            kind, vtype = "atom", atom_type_name(node.atom)
            value, num = _atom_text(node.atom), _atom_num(node.atom)
        elif node.is_reference:
            kind, vtype, value, num = "ref", None, node.ref_target, None
        else:
            kind, vtype, value, num = "elem", None, None, None
        rows.append(
            (
                position,
                position + sizes[position],
                parent,
                node.label,
                kind,
                vtype,
                value,
                num,
                node.ident,
                node.collection,
            )
        )
    return rows, count, not has_references and not shared


def _build_subtree(rows: Sequence[tuple]) -> DataNode:
    """Rebuild a tree from its ``(pre, parent, name, kind, vtype, value,
    ident, col)`` rows, which must be a complete subtree in pre order."""
    pending: Dict[int, List[DataNode]] = {}
    node: Optional[DataNode] = None
    for pre, parent, name, kind, vtype, value, ident, col in reversed(rows):
        children = pending.pop(pre, [])
        children.reverse()
        if kind == "atom":
            node = DataNode(
                name, atom=parse_atom(vtype, value), ident=ident, collection=col
            )
        elif kind == "ref":
            node = DataNode(name, ref_target=value, ident=ident, collection=col)
        else:
            node = DataNode(name, children=children, ident=ident, collection=col)
        pending.setdefault(parent if parent is not None else -1, []).append(node)
    assert node is not None
    return node


class DocumentStore:
    """A sqlite-backed store of shredded documents with lazy hydration."""

    #: Bound on the ``(doc, pre) -> subtree`` hydration memo.
    HYDRATION_MEMO_CAPACITY = 128

    def __init__(
        self, path: str = ":memory:", hydration_memo_capacity: Optional[int] = None
    ) -> None:
        self.path = path
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        self._lock = threading.RLock()
        #: Monotonic data version; every insert/update bumps it so the
        #: wrapper document memo, the mediator's plan-cache epoch and the
        #: ``IndexRegistry`` can detect stale shredded rows.
        self.version = 0
        #: ``(doc, pre) -> subtree``, tagged with the data version.
        self._hydration = Memo(
            self.HYDRATION_MEMO_CAPACITY
            if hydration_memo_capacity is None
            else hydration_memo_capacity
        )
        # Cumulative counters (exported as yat_store_* gauges) and the
        # since-last-pop delta fed into per-execution ExecutionStats.
        self._counters = {
            "rows_shredded": 0,
            "pushdowns": 0,
            "scans": 0,
            "hydrated_nodes": 0,
            "bytes_avoided": 0,
        }
        self._delta = {
            "pushdowns": 0,
            "scans": 0,
            "hydrated_nodes": 0,
            "bytes_avoided": 0,
        }

    # -- writes ------------------------------------------------------------------

    def add(self, name: str, tree: DataNode) -> int:
        """Shred *tree* as document *name*, replacing any previous rows.

        Returns the number of node rows written.  Bumps :attr:`version`:
        stale hydrations and downstream document memos die with the old
        version number.
        """
        rows, count, safe = shred(tree)
        byte_size = serialized_size(tree)
        with self._lock:
            self._conn.execute("DELETE FROM nodes WHERE doc = ?", (name,))
            self._conn.executemany(
                "INSERT INTO nodes (doc, pre, post, parent, name, kind, vtype,"
                " value, num, ident, col) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
                [(name, *row) for row in rows],
            )
            self._conn.execute(
                "INSERT OR REPLACE INTO documents"
                " (doc, nodes, bytes, root_children, pushdown_safe)"
                " VALUES (?,?,?,?,?)",
                (name, count, byte_size, len(tree.children), int(safe)),
            )
            # Refresh planner statistics: interval self-joins pick join
            # orders from these, and stale/absent stats turn an indexed
            # probe into a per-row table scan.
            self._conn.execute("ANALYZE")
            self._conn.commit()
            self.version += 1
            self._counters["rows_shredded"] += count
            # Every hydration is tagged with the old version now; free
            # them rather than waiting for lookups to find them stale.
            self._hydration.clear()
        return count

    # -- metadata ----------------------------------------------------------------

    def document_names(self) -> Tuple[str, ...]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT doc FROM documents ORDER BY doc"
            ).fetchall()
        return tuple(row[0] for row in rows)

    def _meta(self, name: str) -> Tuple[int, int, int, bool]:
        row = self._conn.execute(
            "SELECT nodes, bytes, root_children, pushdown_safe"
            " FROM documents WHERE doc = ?",
            (name,),
        ).fetchone()
        if row is None:
            raise SourceError(f"document store holds no document {name!r}")
        return row[0], row[1], row[2], bool(row[3])

    def node_count(self, name: str) -> int:
        with self._lock:
            return self._meta(name)[0]

    def byte_size(self, name: str) -> int:
        with self._lock:
            return self._meta(name)[1]

    def root_label(self, name: str) -> str:
        with self._lock:
            row = self._conn.execute(
                "SELECT name FROM nodes WHERE doc = ? AND pre = 0", (name,)
            ).fetchone()
        if row is None:
            raise SourceError(f"document store holds no document {name!r}")
        return row[0]

    def pushdown_safe(self, name: str) -> bool:
        """Whether interval pushdown is sound for *name*.

        ``False`` for documents with reference nodes or shared subtrees
        — the same shapes ``DocumentIndex.supports_seek`` refuses —
        whose queries must run through the in-memory Bind engine instead.
        """
        with self._lock:
            return self._meta(name)[3]

    # -- hydration ---------------------------------------------------------------

    def hydrate(self, name: str, pre: int = 0) -> DataNode:
        """Materialize the subtree rooted at position *pre* of *name*.

        One pre/post range read, memoized per ``(doc, pre)`` and data
        version so repeated bindings of the same subtree share one node
        object (document indexes and distinct() key on tree identity).
        """
        return self._hydration.get_or_build(
            (name, pre), self._read_subtree, name, pre, tag=self.version
        )

    def _read_subtree(self, name: str, pre: int) -> DataNode:
        with self._lock:
            rows = self._conn.execute(
                "SELECT pre, parent, name, kind, vtype, value, ident, col"
                " FROM nodes WHERE doc = ? AND pre >= ? AND pre <"
                " (SELECT post FROM nodes WHERE doc = ? AND pre = ?)"
                " ORDER BY pre",
                (name, pre, name, pre),
            ).fetchall()
            self._counters["hydrated_nodes"] += len(rows)
            self._delta["hydrated_nodes"] += len(rows)
        if not rows:
            raise SourceError(
                f"document {name!r} has no node at position {pre}"
            )
        return _build_subtree(rows)

    def hydrate_document(self, name: str) -> DataNode:
        """Materialize the whole document (the full-transfer path)."""
        self._meta_checked(name)
        return self.hydrate(name, 0)

    def _meta_checked(self, name: str) -> None:
        with self._lock:
            self._meta(name)

    # -- pushdown plumbing ---------------------------------------------------------

    def fetch_bounded(
        self, sql: str, params: Sequence[object], bound: int
    ) -> List[tuple]:
        """Run a pushdown query, refusing result sets past *bound* rows."""
        with self._lock:
            cursor = self._conn.execute(sql, tuple(params))
            rows = cursor.fetchmany(bound + 1)
        if len(rows) > bound:
            from repro.errors import BindError

            raise BindError(
                f"filter produces more than {bound} bindings for one tree; "
                f"refusing the cartesian explosion"
            )
        return rows

    def note_pushdown(self, name: str, touched_nodes: int) -> None:
        """Account one pushdown execution that touched *touched_nodes*.

        ``bytes_avoided`` is the serialized size of the document scaled
        by the untouched node fraction — an estimate, but one computed
        from real stored metadata, not a guess.
        """
        with self._lock:
            total_nodes, total_bytes, _children, _safe = self._meta(name)
            touched = min(touched_nodes, total_nodes)
            avoided = (
                total_bytes * (total_nodes - touched) // total_nodes
                if total_nodes
                else 0
            )
            self._counters["pushdowns"] += 1
            self._delta["pushdowns"] += 1
            self._counters["bytes_avoided"] += avoided
            self._delta["bytes_avoided"] += avoided

    def note_scan(self, name: str) -> None:
        with self._lock:
            self._counters["scans"] += 1
            self._delta["scans"] += 1

    # -- statistics ----------------------------------------------------------------

    def pop_stats(self) -> Dict[str, int]:
        """Per-execution counter delta since the last pop (may be empty)."""
        with self._lock:
            delta = {key: value for key, value in self._delta.items() if value}
            for key in self._delta:
                self._delta[key] = 0
        return delta

    def stats(self) -> Dict[str, int]:
        """Cumulative counters (process lifetime)."""
        with self._lock:
            stats = dict(self._counters)
            stats["documents"] = self._conn.execute(
                "SELECT COUNT(*) FROM documents"
            ).fetchone()[0]
            stats["version"] = self.version
        return stats

    def memo_stats(self) -> Dict[str, int]:
        """Counters of the hydration memo (see :meth:`Memo.stats`)."""
        return self._hydration.stats()

    def close(self) -> None:
        with self._lock:
            self._conn.close()
