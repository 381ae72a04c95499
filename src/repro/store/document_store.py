"""Out-of-core document storage: sqlite-shredded trees.

Every other source in this reproduction materializes whole documents as
Python trees before a single ``Bind`` runs, so data is capped by RAM and
cold-start pays full materialization even when a query touches one
subtree.  :class:`DocumentStore` persists the *shredded* form instead —
one row per node, each document in its own table clustered on ``pre``::

    documents(doc, tab, nodes, bytes, root_children, pushdown_safe)
    nodes<tab>(pre, post, parent, name, kind, vtype, value, num, ident, col)

with the indexes ``(name, pre)``, ``(parent, pre)`` and ``(value)``.
``pre`` is the node's pre-order position and ``post`` is the half-open
end of its subtree interval (``post = pre + subtree size``), so:

* *descendant of s*  ⇔  ``s.pre < t.pre AND t.pre < s.post``
* *child of s*       ⇔  ``t.parent = s.pre``

which is what lets the pushdown pass (:mod:`repro.store.pushdown`)
translate ``**`` descents into interval self-joins the database runs.
A table name is built from ``tab`` alone, never from a document name.
A replacement truncates and refills its table, which keeps the planner
statistics of its first ``ANALYZE``.  A file in the earlier layout, one
shared ``nodes`` table, is refused: re-ingest it.

Reads come in two granularities, cheapest first:

* lazy subtree hydration (:meth:`DocumentStore.hydrate`) — one pre/post
  range read materializes just the subtree a binding needs, memoized per
  ``(doc, pre)`` and tagged with that document's write version;
* full document hydration — the same memo at ``pre = 0``, which is
  what ``StoreWrapper.document()`` returns.  A write of a pushdown-safe
  tree moves a *resident* entry there to the written tree
  (:meth:`Memo.replace`): it is what a read of its rows would build, so
  the next scan skips the rebuild, and the store keeps a reference to an
  immutable ``DataNode``.

A write binds no ``None``: CPython's ``sqlite3`` binds ``int``, ``float``
and ``str`` directly, but sends ``None`` through the adapter-protocol
lookup, about 0.7 µs each, and a 3,000-row replacement bound some 10,000
of them.  :func:`shred` writes stand-ins that :data:`_INSERT` maps back
to NULL, so the stored rows are the same.

All state is guarded by one lock (sqlite connections are shared across
the server's request threads) and the hydration memo is bounded, the
same ``RequestContext``-safety rules every process-wide memo follows.
The store-wide ``version`` counter bumps on every insert/update; it is
the wrapper's ``data_version()``, so result-cache version vectors never
serve stale shredded rows.  A hydration is tagged with the ``version``
of its own document's last write, so replacing one document leaves the
other documents' hydrations warm.
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import SourceError
from repro.memo import Memo
from repro.model.trees import DataNode
from repro.model.values import Atom, atom_type_name, parse_atom
from repro.model.xml_io import serialized_size
from repro.observability.context import current_context

#: Bound on each store's ``(doc, pre) -> subtree`` hydration memo.
HYDRATION_MEMO_CAPACITY = 128

#: sqlite VM instructions one pushdown may run: about half a second on a
#: 2-core box, where streaming a million rows takes some 12 million.
PUSHDOWN_STEPS = 20_000_000

_SCHEMA = """
CREATE TABLE IF NOT EXISTS documents (
    doc TEXT PRIMARY KEY,
    tab INTEGER NOT NULL UNIQUE,
    nodes INTEGER NOT NULL,
    bytes INTEGER NOT NULL,
    root_children INTEGER NOT NULL,
    pushdown_safe INTEGER NOT NULL
)
"""

#: A document's table ``{t}`` and its indexes.  Without a rowid every
#: index entry ends in ``pre``: a ``value`` probe is an interval probe.
_TABLE = (
    "CREATE TABLE {t} (pre INTEGER PRIMARY KEY, post INTEGER NOT NULL,"
    " parent INTEGER, name TEXT NOT NULL, kind TEXT NOT NULL, vtype TEXT,"
    " value TEXT, num REAL, ident TEXT, col TEXT) WITHOUT ROWID",
    "CREATE INDEX {t}_by_name ON {t} (name, pre)",
    "CREATE INDEX {t}_by_parent ON {t} (parent, pre)",
    "CREATE INDEX {t}_by_value ON {t} (value)",
)

#: A bare parameter has no affinity, so the INTEGER stand-ins never equal
#: a stored TEXT such as ``'0'``; sqlite stores a NaN REAL as NULL.
_INSERT = (
    "INSERT INTO {t} VALUES (?, ?, NULLIF(?, -1), ?, ?, NULLIF(?, 0),"
    " NULLIF(?, 0), ?, NULLIF(?, 0), NULLIF(?, 0))"
)
_NAN = float("nan")


def _atom_text(atom: Atom) -> str:
    """Round-trippable text for an atom (inverse of ``parse_atom``)."""
    if isinstance(atom, bool):
        return "true" if atom else "false"
    if isinstance(atom, float):
        return repr(atom)
    return str(atom)


def _atom_num(atom: Atom) -> float:
    """The REAL comparison key for numeric atoms, NaN (stored NULL) when
    unsafe.

    Stored only when ``float(atom) == atom`` exactly: then two exactly-
    representable numerics are Python-equal iff their REALs are equal
    (``True == 1 == 1.0``), and a lossy value (a > 2**53 integer, NaN)
    can never equal an exactly-representable constant, so leaving its
    ``num`` NULL is the correct "matches no pushed constant" encoding.
    """
    if isinstance(atom, str):
        return _NAN
    try:
        key = float(atom)
    except OverflowError:
        return _NAN
    if key != key or key != atom:  # NaN, or not exactly representable
        return _NAN
    return key


def shred(root: DataNode) -> Tuple[list, int, bool]:
    """Flatten *root* into node rows with pre/post interval positions.

    Returns ``(rows, count, pushdown_safe)`` where each row is a node
    table tuple, in pre order, holding no ``None``: :data:`_INSERT` maps
    a ``-1`` parent, a ``0`` text column and a NaN ``num`` to NULL.  One
    pass: a leaf's row is final when it is reached, an element's slot is
    reserved on entry and filled when its subtree closes, the next free
    position then being its ``post``.
    Reference nodes and shared subtrees make the document
    *pushdown-unsafe* (interval semantics cannot express a node with two
    parents or a pointer): its queries fall back to hydrated scans where
    the in-memory Bind engine owns the semantics.
    """
    rows: list = []
    seen_ids: set = set()
    safe = True
    # Open elements: (element, its position, its parent, unvisited
    # children); the bottom frame holds the root and writes no row.
    stack: list = [(None, -1, None, iter((root,)))]
    while stack:
        element, pre, parent, children = stack[-1]
        for child in children:
            position = len(rows)
            if id(child) in seen_ids:
                safe = False
            seen_ids.add(id(child))
            if child.children:
                rows.append(None)
                stack.append((child, position, pre, iter(child.children)))
                break
            atom = child.atom
            if atom.__class__ is str:
                kind, vtype, value, num = "atom", "String", atom, _NAN
            elif atom is not None:
                kind, vtype = "atom", atom_type_name(atom)
                value, num = _atom_text(atom), _atom_num(atom)
            elif child.ref_target is not None:
                safe = False
                kind, vtype, value, num = "ref", 0, child.ref_target, _NAN
            else:
                kind, vtype, value, num = "elem", 0, 0, _NAN
            ident, col = child.ident, child.collection
            rows.append((
                position, position + 1, pre, child.label, kind, vtype, value,
                num, 0 if ident is None else ident, 0 if col is None else col,
            ))
        else:
            stack.pop()
            if element is not None:
                ident, col = element.ident, element.collection
                rows[pre] = (
                    pre, len(rows), parent, element.label, "elem", 0, 0, _NAN,
                    0 if ident is None else ident, 0 if col is None else col,
                )
    return rows, len(rows), safe


def _count(**delta: int) -> None:
    """Count store work into the active request's statistics, and onto
    its open span when the request is traced (nothing outside a
    request)."""
    context = current_context()
    if context is None or context.stats is None:
        return
    context.stats.record_store(**delta)
    span = context.tracer.current() if context.tracer is not None else None
    if span is not None:
        for name, value in delta.items():
            if value:
                span.add(f"store_{name}", value)


class DocumentMeta(NamedTuple):
    """A document's ``documents`` row, which a pushdown reads once."""

    nodes: int
    bytes: int
    pushdown_safe: bool
    table: str


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

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._conn = sqlite3.connect(path, check_same_thread=False)
        if self._conn.execute(
            "SELECT 1 FROM sqlite_master WHERE name = 'nodes'"
        ).fetchone() is not None:
            self._conn.close()
            raise SourceError(
                f"{path} holds a store in the shared-table layout, which this"
                " version does not read; re-ingest its documents into a new file"
            )
        self._conn.execute(_SCHEMA)
        self._conn.commit()
        self._lock = threading.RLock()
        #: Monotonic data version; every insert/update bumps it so the
        #: result cache's version vectors detect stale shredded rows.
        self.version = 0
        #: ``doc -> version`` at that document's last :meth:`add` in this
        #: process (a document only read from the file has tag 0).
        self._written: Dict[str, int] = {}
        #: ``(doc, pre) -> subtree``, tagged with the document's entry in
        #: ``_written``.
        self._hydration = Memo(HYDRATION_MEMO_CAPACITY)
        # Cumulative counters, exported as yat_store_* gauges.  Each
        # event is also counted into the active request's statistics
        # (:func:`_count`), so a request sees exactly its own work.
        self._counters = {
            "rows_shredded": 0,
            "pushdowns": 0,
            "scans": 0,
            "hydrated_nodes": 0,
            "bytes_avoided": 0,
        }

    # -- writes ------------------------------------------------------------------

    def add(self, name: str, tree: DataNode) -> int:
        """Shred *tree* as document *name*, replacing any previous rows.

        Returns the number of node rows written.  Bumps :attr:`version`
        and records it as *name*'s write version: *name*'s hydrations die
        by tag, every other document's stay warm.  A resident whole-
        document hydration of a pushdown-safe *tree* moves to *tree*
        itself, which is what a read of the new rows would build.
        """
        rows, count, safe = shred(tree)
        byte_size = serialized_size(tree)
        with self._lock:
            with self._conn:
                self._conn.execute("BEGIN IMMEDIATE")
                row = self._conn.execute(
                    "SELECT tab FROM documents WHERE doc = ?", (name,)
                ).fetchone()
                new = row is None
                if new:
                    (number,) = self._conn.execute(
                        "SELECT COALESCE(MAX(tab) + 1, 0) FROM documents"
                    ).fetchone()
                    for statement in _TABLE:
                        self._conn.execute(statement.format(t=f"nodes{number}"))
                else:
                    (number,) = row
                    # No WHERE clause: sqlite's truncate path, which keeps
                    # the table's sqlite_stat1 rows.
                    self._conn.execute(f"DELETE FROM nodes{number}")
                table = f"nodes{number}"
                self._conn.executemany(_INSERT.format(t=table), rows)
                self._conn.execute(
                    "INSERT OR REPLACE INTO documents (doc, tab, nodes, bytes,"
                    " root_children, pushdown_safe) VALUES (?,?,?,?,?,?)",
                    (name, number, count, byte_size, len(tree.children),
                     int(safe)),
                )
                # A new table gets planner statistics once; replacements
                # keep them, as a same-shaped document would not move them.
                if new:
                    self._conn.execute(f"ANALYZE {table}")
            self.version += 1
            self._written[name] = self.version
            if safe:
                self._hydration.replace((name, 0), tree, tag=self.version)
            self._counters["rows_shredded"] += count
        return count

    # -- metadata ----------------------------------------------------------------

    def document_names(self) -> Tuple[str, ...]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT doc FROM documents ORDER BY doc"
            ).fetchall()
        return tuple(row[0] for row in rows)

    def meta(self, name: str) -> DocumentMeta:
        """*name*'s ``documents`` row; its table is built from ``tab`` alone."""
        with self._lock:
            row = self._conn.execute(
                "SELECT nodes, bytes, pushdown_safe, tab FROM documents"
                " WHERE doc = ?",
                (name,),
            ).fetchone()
        if row is None:
            raise SourceError(f"document store holds no document {name!r}")
        return DocumentMeta(row[0], row[1], bool(row[2]), f"nodes{row[3]}")

    def node_count(self, name: str) -> int:
        return self.meta(name).nodes

    def byte_size(self, name: str) -> int:
        return self.meta(name).bytes

    def root_label(self, name: str) -> str:
        with self._lock:
            return self._conn.execute(
                f"SELECT name FROM {self.meta(name).table} WHERE pre = 0"
            ).fetchone()[0]

    # -- hydration ---------------------------------------------------------------

    def hydrate(
        self, name: str, pre: int = 0, table: Optional[str] = None
    ) -> DataNode:
        """Materialize the subtree rooted at position *pre* of *name*.

        One pre/post range read, memoized per ``(doc, pre)`` and the
        document's write version so repeated bindings of the same subtree
        share one node object (whose cached value key and size are then
        reused).  The tag is read before the build: a write racing it
        makes the entry look stale, never serves old rows as new.  A
        caller that holds *name*'s :class:`DocumentMeta` passes its table.
        """
        return self._hydration.get_or_build(
            (name, pre), self._read_subtree, name, pre, table,
            tag=self._written.get(name, 0),
        )

    def _read_subtree(
        self, name: str, pre: int, table: Optional[str]
    ) -> DataNode:
        with self._lock:
            table = table or self.meta(name).table
            rows = self._conn.execute(
                "SELECT pre, parent, name, kind, vtype, value, ident, col"
                f" FROM {table} WHERE pre >= ? AND pre <"
                f" (SELECT post FROM {table} WHERE pre = ?) ORDER BY pre",
                (pre, pre),
            ).fetchall()
            self._counters["hydrated_nodes"] += len(rows)
        _count(hydrated_nodes=len(rows))
        if not rows:
            raise SourceError(
                f"document {name!r} has no node at position {pre}"
            )
        return _build_subtree(rows)

    # -- pushdown plumbing ---------------------------------------------------------

    def reading(self) -> "threading.RLock":
        """The store's lock, for a reader whose several reads must see one
        version of a document: a pushdown's ``documents`` row, its fetch
        and the hydrations of the subtrees it bound.  Writers wait until
        it is released."""
        return self._lock

    def fetch_bounded(
        self, statement: str, params: Sequence[object], bound: int
    ) -> Optional[List[tuple]]:
        """Run a pushdown *statement*, refusing result sets past *bound* rows.

        A plan that sorts builds its whole join before its first row,
        which the row bound cannot stop: past :data:`PUSHDOWN_STEPS`
        sqlite instructions this returns ``None``, for the caller to scan
        instead."""
        steps = iter(range(PUSHDOWN_STEPS // 1000))
        with self._lock:
            self._conn.set_progress_handler(lambda: next(steps, None) is None, 1000)
            try:
                rows = self._conn.execute(statement, params).fetchmany(bound + 1)
            except sqlite3.OperationalError:
                if next(steps, None) is not None:  # not the budget's interrupt
                    raise
                return None
            finally:
                self._conn.set_progress_handler(None, 0)
        if len(rows) > bound:
            from repro.errors import BindError

            raise BindError(
                f"filter produces more than {bound} bindings for one tree; "
                f"refusing the cartesian explosion"
            )
        return rows

    def note_pushdown(self, meta: DocumentMeta, touched_nodes: int) -> None:
        """Account one pushdown execution that touched *touched_nodes* of
        the document *meta* describes.

        ``bytes_avoided`` is the serialized size of the document scaled
        by the untouched node fraction — an estimate, but one computed
        from real stored metadata, not a guess.
        """
        touched = min(touched_nodes, meta.nodes)
        avoided = (
            meta.bytes * (meta.nodes - touched) // meta.nodes if meta.nodes else 0
        )
        with self._lock:
            self._counters["pushdowns"] += 1
            self._counters["bytes_avoided"] += avoided
        _count(pushdowns=1, bytes_avoided=avoided)

    def note_scan(self, name: str) -> None:
        with self._lock:
            self._counters["scans"] += 1
        _count(scans=1)

    # -- statistics ----------------------------------------------------------------

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
