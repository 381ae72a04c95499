"""The generic wrapper over sqlite-shredded documents.

Where the Wais wrapper can only bind whole ``work`` documents, the
store's pre/post interval encoding supports a qualitatively richer
Fmodel (:func:`~repro.capabilities.fmodel.store_fmodel`): any
literal-labeled element anchors a filter at any depth, leaf contents and
subtrees bind freely, and the descendant axis (``**``) is declared
acceptable everywhere (``descend="any"``) — the first source in this
reproduction to advertise it.

A validated fragment executes through one of two access paths:

``store-pushdown``
    :func:`~repro.store.pushdown.compile_pushdown` translated the filter
    into a SQL interval self-join.  The database returns binding tuples;
    atoms decode straight from the rows and subtree variables hydrate
    lazily — for selective filters a small fraction of the document's
    nodes ever becomes a Python object.

``store-scan``
    The filter's lowering was refused (``FRest``, label variables, a
    lossy numeric constant), a query parameter's bound value has a lossy
    REAL key, pushdown is off, or the document holds references/shared
    subtrees, where interval semantics are unsound; or a pushdown ran
    past the store's step budget.  The document is
    hydrated at most once per write to it (the store's hydration memo,
    tagged per document; a write updates a resident entry) and matched
    by the same
    :func:`~repro.core.algebra.engine.bind_engine` the mediator's own
    Bind uses, so answers are byte-identical to the in-memory path by
    construction.

The choice is exposed to EXPLAIN as ``[bind: store-pushdown]`` /
``[bind: store-scan (<reason>)]`` via
:meth:`StoreWrapper.pushdown_access`.  The store counts each pushdown,
scan and hydrated node into the ``ExecutionStats`` of the request that
caused it, which it reads from the active
:class:`~repro.observability.context.RequestContext`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple, Union

from repro.errors import SourceError
from repro.capabilities.fmodel import store_fmodel
from repro.capabilities.interface import ArgSpec, OperationDecl, SourceInterface
from repro.core.algebra.bind import MAX_MATCHES
from repro.core.algebra.engine import bind_engine
from repro.core.algebra.lowering import lower
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import Row, Tab
from repro.model.filters import Filter
from repro.model.patterns import PAny, PNode, PStar, PatternLibrary
from repro.model.trees import DataNode
from repro.model.values import parse_atom
from repro.sources.stored.source import StoredXmlSource
from repro.store.document_store import DocumentMeta
from repro.store.pushdown import PushdownQuery, compile_pushdown
from repro.wrappers.base import PushedFragment, Wrapper

#: Name of the structural model exported by the wrapper.
STRUCTURE_MODEL = "Store_Structure"


def _compiled(flt: Filter) -> Union[PushdownQuery, str]:
    """:func:`compile_pushdown` of *flt*, or its lowering's refusal,
    compiled once and kept on the filter: both are pure in it (its
    constants are bound per call) and cached plans replay it."""
    try:
        return flt._pushdown_memo
    except AttributeError:
        pass
    compiled = compile_pushdown(flt)
    if compiled is None:
        compiled = lower(flt).refusal
    flt._pushdown_memo = compiled
    return compiled


class StoreWrapper(Wrapper):
    """Wraps one :class:`StoredXmlSource` as a YAT source."""

    def __init__(
        self, name: str, source: StoredXmlSource, enable_pushdown: bool = True
    ) -> None:
        super().__init__(name)
        self._source = source
        self._store = source.store
        self._enable_pushdown = enable_pushdown

    # -- capability export ------------------------------------------------------

    def build_interface(self) -> SourceInterface:
        interface = SourceInterface(self.name)
        library = PatternLibrary(STRUCTURE_MODEL)
        library.define("document", PAny())
        for name in self._store.document_names():
            if name != "document":
                library.define(
                    name, PNode(self._store.root_label(name), [PStar(PAny())])
                )
        interface.add_structure(library)
        interface.add_fmodel(store_fmodel())
        for name in self._store.document_names():
            pattern = name if name != "document" else "document"
            interface.add_document(name, STRUCTURE_MODEL, pattern)
        interface.add_operation(
            OperationDecl(
                "bind",
                "algebra",
                inputs=[
                    ArgSpec.value(STRUCTURE_MODEL, "document"),
                    ArgSpec.filter("storefmodel", "Felement"),
                ],
                output=ArgSpec.value("yat", "Tab"),
            )
        )
        return interface

    # -- SourceAdapter ------------------------------------------------------------

    def document_names(self) -> Tuple[str, ...]:
        return self._store.document_names()

    def data_version(self) -> int:
        return self._store.version

    def document(self, name: str) -> DataNode:
        """The store's own hydration memo serves the document; its per-
        document tag is finer than the base memo's ``data_version()``."""
        return self._store.hydrate(name)

    build_document = document

    def memo_stats(self) -> Dict[str, Dict[str, int]]:
        # No "documents" row: document() never touches the base memo.
        return {"hydration": self._store.memo_stats()}

    def store_stats(self) -> Dict[str, int]:
        """Cumulative store counters (metrics export)."""
        return self._store.stats()

    # -- access-path choice --------------------------------------------------------

    def pushdown_access(self, flt: Filter, document: Optional[str] = None) -> str:
        """The access path a pushed Bind of *flt* would take (EXPLAIN),
        with the reason when it scans."""
        meta = self._store.meta(document) if document is not None else None
        compiled, detail = self._pushdown(flt, meta)
        return "store-pushdown" if compiled is not None else f"store-scan ({detail})"

    def _pushdown(
        self, flt: Filter, meta: Optional[DocumentMeta]
    ) -> Tuple[Optional[PushdownQuery], object]:
        """``(compiled query, its bound parameters)`` when *flt* runs as
        SQL on the document *meta* describes for the active request, else
        ``(None, why it scans)``."""
        if not self._enable_pushdown:
            return None, "pushdown off"
        if meta is not None and not meta.pushdown_safe:
            return None, "document not pushdown-safe"
        compiled = _compiled(flt)
        if isinstance(compiled, str):
            return None, compiled
        params = compiled.bind_params()
        if params is None:
            # Worded like the lowering's refusal, so a cached plan's
            # EXPLAIN reads like its cold plan's.
            return None, "lossy numeric constant"
        return compiled, params

    # -- pushed execution --------------------------------------------------------------

    def run_fragment(
        self, fragment: PushedFragment, plan: Plan, outer: Optional[Row]
    ) -> Tuple[Tab, str]:
        if fragment.selections or fragment.projection is not None:
            raise SourceError(
                "store sources execute bare Bind fragments only; selections "
                "stay mediator-side"
            )
        columns = plan.output_columns()
        variables = fragment.filter.variables()
        if tuple(columns) != tuple(variables):
            raise SourceError(
                f"store fragments bind exactly the filter variables "
                f"{tuple(variables)}, plan declares {tuple(columns)}"
            )
        document = fragment.document
        # A write between the metadata read, the fetch and a hydration
        # would hand this read the replacement's node at an old position.
        with self._store.reading():
            meta = self._store.meta(document)
            compiled, params = self._pushdown(fragment.filter, meta)
            pushed = compiled and self._run_pushdown(
                document, meta, compiled, params, columns
            )
        return pushed or self._run_scan(document, fragment.filter, columns)

    def _run_pushdown(
        self, document: str, meta: DocumentMeta, compiled: PushdownQuery,
        params: Tuple[object, ...], columns: Tuple[str, ...],
    ) -> Optional[Tuple[Tab, str]]:
        """``None`` when the statement ran past the store's step budget."""
        touched: Dict[int, int] = {}
        data = [[] for _ in compiled.variables]
        statement = compiled.sql.format(table=meta.table)
        raw = self._store.fetch_bounded(statement, params, MAX_MATCHES)
        if raw is None:
            return None
        for record in raw:
            for i, cells in enumerate(data):
                pre, kind, vtype, value = record[4 * i : 4 * i + 4]
                if kind == "atom":
                    touched.setdefault(pre, 1)
                    cells.append(parse_atom(vtype, value))
                else:
                    node = self._store.hydrate(document, pre, meta.table)
                    touched.setdefault(pre, node.size())
                    cells.append(node)
        self._store.note_pushdown(meta, sum(touched.values()))
        native = f"store-pushdown {document}: {statement}"
        return Tab.from_columns(columns, data, len(raw)), native

    def _run_scan(
        self, document: str, flt: Filter, columns: Tuple[str, ...]
    ) -> Tuple[Tab, str]:
        root = self.document(document)
        self._store.note_scan(document)
        # No ident index crosses the wrapper boundary, so references in
        # an unsafe document bind as themselves (identity deref).
        bindings = bind_engine(flt).tuples(root)
        native = f"store-scan {document} (full hydration)"
        return Tab.from_tuples(columns, bindings), native
