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
    The filter left the translatable fragment (``FRest``, label
    variables, lossy constants) or the document holds references/shared
    subtrees, where interval semantics are unsound.  The document is
    hydrated once (memoized per data version) and matched by the same
    :func:`~repro.core.algebra.engine.bind_engine` the mediator's own
    Bind uses — twig join when the filter and tree qualify, scan kernel
    otherwise — so answers are byte-identical to the in-memory path by
    construction.

The choice is exposed to EXPLAIN as ``[bind: store-pushdown]`` /
``[bind: store-scan]`` via :meth:`StoreWrapper.pushdown_access`, and the
store's counters flow into ``ExecutionStats`` through
:meth:`StoreWrapper.pop_store_stats` after every pushed call.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import SourceError
from repro.capabilities.fmodel import store_fmodel
from repro.capabilities.interface import ArgSpec, OperationDecl, SourceInterface
from repro.core.algebra.bind import MAX_MATCHES
from repro.core.algebra.compiled import identity_deref
from repro.core.algebra.engine import BindCounters, bind_engine
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import Row, Tab
from repro.memo import Memo
from repro.model.filters import Filter
from repro.model.patterns import PAny, PNode, PStar, PatternLibrary
from repro.model.trees import DataNode
from repro.model.values import parse_atom
from repro.sources.stored.source import StoredXmlSource
from repro.store.pushdown import PushdownQuery, compile_pushdown
from repro.wrappers.base import PushedFragment, Wrapper

#: Name of the structural model exported by the wrapper.
STRUCTURE_MODEL = "Store_Structure"


class StoreWrapper(Wrapper):
    """Wraps one :class:`StoredXmlSource` as a YAT source."""

    #: Bound on the compiled-pushdown memo (keyed by filter identity).
    PUSHDOWN_MEMO_CAPACITY = 256

    def __init__(
        self, name: str, source: StoredXmlSource, enable_pushdown: bool = True
    ) -> None:
        super().__init__(name)
        self._source = source
        self._store = source.store
        self._enable_pushdown = enable_pushdown
        #: ``id(filter) -> compiled-or-None``, anchored on the filter;
        #: compilation is pure in the filter and plans replay the same
        #: filter objects.
        self._pushdowns = Memo(self.PUSHDOWN_MEMO_CAPACITY)

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

    def build_document(self, name: str) -> DataNode:
        return self._store.hydrate_document(name)

    def memo_stats(self) -> Dict[str, Dict[str, int]]:
        stats = super().memo_stats()
        stats["hydration"] = self._store.memo_stats()
        stats["pushdowns"] = self._pushdowns.stats()
        return stats

    def pop_store_stats(self) -> Dict[str, int]:
        """Store counter delta since the last pop (evaluator hook)."""
        return self._store.pop_stats()

    def store_stats(self) -> Dict[str, int]:
        """Cumulative store counters (metrics export)."""
        return self._store.stats()

    # -- access-path choice --------------------------------------------------------

    def compiled_pushdown(self, flt: Filter) -> Optional[PushdownQuery]:
        """Memoized :func:`compile_pushdown` (keyed by filter identity)."""
        return self._pushdowns.get_or_build(id(flt), compile_pushdown, flt, anchor=flt)

    def pushdown_access(self, flt: Filter, document: Optional[str] = None) -> str:
        """The access path a pushed Bind of *flt* would take (EXPLAIN)."""
        if (
            self._enable_pushdown
            and (document is None or self._store.pushdown_safe(document))
            and self.compiled_pushdown(flt) is not None
        ):
            return "store-pushdown"
        return "store-scan"

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
        compiled = None
        if self._enable_pushdown and self._store.pushdown_safe(document):
            compiled = self.compiled_pushdown(fragment.filter)
        if compiled is not None:
            return self._run_pushdown(document, compiled, columns)
        return self._run_scan(document, fragment.filter, columns)

    def _run_pushdown(
        self, document: str, compiled: PushdownQuery, columns: Tuple[str, ...]
    ) -> Tuple[Tab, str]:
        raw = self._store.fetch_bounded(
            compiled.sql, compiled.bind_params(document), MAX_MATCHES
        )
        width = len(compiled.variables)
        touched: Dict[int, int] = {}
        rows = []
        for record in raw:
            cells = []
            for i in range(width):
                pre, kind, vtype, value = record[4 * i : 4 * i + 4]
                if kind == "atom":
                    touched.setdefault(pre, 1)
                    cells.append(parse_atom(vtype, value))
                else:
                    node = self._store.hydrate(document, pre)
                    touched.setdefault(pre, node.size())
                    cells.append(node)
            rows.append(Row(columns, tuple(cells)))
        self._store.note_pushdown(document, sum(touched.values()))
        native = f"store-pushdown {document}: {compiled.sql}"
        return Tab(columns, rows), native

    def _run_scan(
        self, document: str, flt: Filter, columns: Tuple[str, ...]
    ) -> Tuple[Tab, str]:
        root = self.document(document)
        self._store.note_scan(document)
        # No ident index crosses the wrapper boundary, so references in
        # an unsafe document bind as themselves (identity deref).
        counters = BindCounters()
        bindings = bind_engine(flt).tuples(root, identity_deref, counters)
        rows = [Row(columns, cells) for cells in bindings]
        matcher = "twig" if counters.twig else "kernel"
        native = f"store-scan {document} ({matcher}, full hydration)"
        return Tab(columns, rows), native
