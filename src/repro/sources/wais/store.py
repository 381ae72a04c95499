"""The Wais document store: full-text indexed XML documents.

Holds a collection of document trees (the ``work`` elements of the
paper's ``artworks`` source), an :class:`InvertedIndex` over them, and the
Z39.50 separation between *queryable* and *retrievable* fields:

"This protocol establishes a clear separation between what you may
retrieve and what you may query.  For instance, one could specify that
only the artist and style elements can be exported from our XML documents
while allowing queries only on the optional fields" (Section 4.2).

By default everything is queryable and retrievable; pass explicit field
sets to reproduce restricted configurations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import WaisError
from repro.model.trees import DataNode
from repro.sources.wais.index import ANY_FIELD, InvertedIndex
from repro.sources.wais.query import WaisQuery


class WaisStore:
    """An indexed store of document trees under one collection root."""

    def __init__(
        self,
        collection_label: str = "works",
        queryable_fields: Optional[Iterable[str]] = None,
        retrievable_fields: Optional[Iterable[str]] = None,
    ) -> None:
        self.collection_label = collection_label
        #: The field policy: searchable / exportable element labels, or
        #: ``None`` for "every field".
        self.queryable_fields = (
            frozenset(queryable_fields) if queryable_fields else None
        )
        self.retrievable_fields = (
            frozenset(retrievable_fields) if retrievable_fields else None
        )
        self._documents: Dict[str, DataNode] = {}
        self._order: List[str] = []
        self._index = InvertedIndex()
        #: Monotonic data version; wrappers key document memos on it.
        self.version = 0

    def __len__(self) -> int:
        return len(self._documents)

    # -- loading -----------------------------------------------------------------

    def add(self, document: DataNode, doc_id: Optional[str] = None) -> str:
        """Index and store one document; returns its id."""
        if doc_id is None:
            doc_id = f"d{len(self._order) + 1}"
        if doc_id in self._documents:
            raise WaisError(f"duplicate document id: {doc_id!r}")
        stored = document if document.ident else document.with_ident(doc_id)
        self._documents[doc_id] = stored
        self._order.append(doc_id)
        self._index.add_document(doc_id, stored)
        self.version += 1
        return doc_id

    # -- querying ------------------------------------------------------------------

    def field_queryable(self, field: str) -> bool:
        """May clients search on this field?"""
        if self.queryable_fields is None:
            return True
        return field == ANY_FIELD or field in self.queryable_fields

    def field_retrievable(self, field: str) -> bool:
        """May clients see this element in retrieved documents?"""
        if self.retrievable_fields is None:
            return True
        return field in self.retrievable_fields

    def search(self, query: WaisQuery) -> Tuple[str, ...]:
        """Document ids matching every term, in insertion order."""
        matching: Optional[Set[str]] = None
        for term in query.terms:
            if not self.field_queryable(term.field):
                raise WaisError(f"field {term.field!r} is not queryable")
            hits = self._index.lookup(term.text, term.field)
            matching = hits if matching is None else (matching & hits)
            if not matching:
                return ()
        if matching is None:
            matching = set(self._documents)
        return tuple(doc_id for doc_id in self._order if doc_id in matching)

    def fetch(self, doc_id: str) -> DataNode:
        """Retrieve one document, pruned to the retrievable fields."""
        document = self._documents.get(doc_id)
        if document is None:
            raise WaisError(f"unknown document id: {doc_id!r}")
        if self.retrievable_fields is None:
            return document
        pruned_children = [
            child for child in document.children if self.field_retrievable(child.label)
        ]
        return DataNode(
            document.label,
            children=pruned_children,
            ident=document.ident,
            collection=document.collection,
        )

    def collection_tree(self, query: Optional[WaisQuery] = None) -> DataNode:
        """The (matching subset of the) collection as one document tree."""
        doc_ids = self.search(query) if query is not None else tuple(self._order)
        return DataNode(
            self.collection_label,
            children=[self.fetch(doc_id) for doc_id in doc_ids],
        )

    def document_ids(self) -> Tuple[str, ...]:
        return tuple(self._order)

    def element_labels(self) -> Tuple[str, ...]:
        """All element labels appearing in stored documents (sorted)."""
        labels: Set[str] = set()
        for document in self._documents.values():
            for node in document.descendants():
                labels.add(node.label)
        return tuple(sorted(labels))
