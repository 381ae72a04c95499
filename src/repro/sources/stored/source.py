"""A source whose documents live shredded in a :class:`DocumentStore`.

The in-memory sources (O2, Wais, SQL) hold Python object graphs and
export trees by construction; this source holds *rows*.  Documents enter
as XML text or as already-built trees, are shredded once on ingest, and
are only ever rehydrated lazily — the wrapper reads positional metadata
and subtree ranges, not the whole document.

The class is deliberately thin: ingest, catalog, and a handle on the
underlying store.  All query capability lives in
:class:`repro.wrappers.store_wrapper.StoreWrapper`.
"""

from __future__ import annotations

from typing import Tuple

from repro.model.trees import DataNode
from repro.model.xml_io import xml_to_tree
from repro.store.document_store import DocumentStore


class StoredXmlSource:
    """XML documents persisted in a sqlite shred.

    ``path`` is the sqlite database file (``":memory:"`` keeps the shred
    process-local, which the tests and benchmarks use; a real deployment
    points at a file so documents outlive the process and scale past
    RAM).
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.store = DocumentStore(path)

    # -- ingest -------------------------------------------------------------

    def add_tree(self, name: str, tree: DataNode) -> int:
        """Shred *tree* as document *name*; returns rows written."""
        return self.store.add(name, tree)

    def add_xml(self, name: str, text: str) -> int:
        """Parse and shred an XML document; returns rows written."""
        return self.add_tree(name, xml_to_tree(text))

    # -- catalog ------------------------------------------------------------

    def document_names(self) -> Tuple[str, ...]:
        return self.store.document_names()

    @property
    def version(self) -> int:
        return self.store.version

    def close(self) -> None:
        self.store.close()
