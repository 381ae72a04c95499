"""The generic XML-Wais wrapper: full-text queries over XML documents.

"christop wraps the cultural source with another generic wrapper.  The
xmlwais wrapper understands XML data, typed with our type system and
full-text indexed by Wais" (paper, Section 2).

The wrapper exports:

* the ``Artworks_Structure`` model (``works`` root, ``work`` documents
  with their mandatory elements plus ``*`` for optional fields);
* the very restrictive ``waisfmodel`` of Section 4.2 — only whole ``work``
  subtrees can be bound;
* ``bind``, ``select`` and the external ``contains`` predicate, together
  with the declared equivalence connecting ``contains`` to equality.

A validated pushed fragment is ``[Select contains and ...]* (Bind
works *work $w (Source))``; it translates to a
:class:`~repro.sources.wais.query.WaisQuery` answered by the inverted
index, and only the matching documents are transferred.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import SourceError
from repro.capabilities.equivalences import SelectionImplication
from repro.capabilities.fmodel import wais_fmodel
from repro.capabilities.interface import ArgSpec, OperationDecl, SourceInterface
from repro.core.algebra.expressions import Const, FunCall, bound, conjuncts
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import Row, Tab
from repro.model.patterns import (
    PAny,
    PAtomic,
    PNode,
    PRef,
    PStar,
    PatternLibrary,
)
from repro.model.trees import DataNode
from repro.sources.wais.query import WaisQuery, WaisTerm
from repro.sources.wais.store import WaisStore
from repro.wrappers.base import PushedFragment, Wrapper, outer_constant

#: Name of the structural model exported by the wrapper (Figure 3).
STRUCTURE_MODEL = "Artworks_Structure"
#: The one document the wrapper exports, and the fields its ``work``
#: pattern declares mandatory (Figure 3).
DOCUMENT_NAME = "artworks"
MANDATORY_FIELDS = ("artist", "title", "style", "size")


class WaisWrapper(Wrapper):
    """Wraps one :class:`WaisStore` as a YAT source."""

    def __init__(self, name: str, store: WaisStore) -> None:
        super().__init__(name)
        self._store = store

    # -- capability export ------------------------------------------------------

    def build_interface(self) -> SourceInterface:
        interface = SourceInterface(self.name)
        library = PatternLibrary(STRUCTURE_MODEL)
        work_children = [
            PNode(field, [PAtomic("String")]) for field in MANDATORY_FIELDS
        ]
        work_children.append(PStar(PAny()))
        library.define("work", PNode("work", work_children))
        library.define(
            "works", PNode(self._store.collection_label, [PStar(PRef("work"))])
        )
        interface.add_structure(library)
        interface.add_fmodel(wais_fmodel(STRUCTURE_MODEL))
        interface.add_document(DOCUMENT_NAME, STRUCTURE_MODEL, "works")
        interface.add_operation(
            OperationDecl(
                "bind",
                "algebra",
                inputs=[
                    ArgSpec.value(STRUCTURE_MODEL, "works"),
                    ArgSpec.filter("waisfmodel", "Fworks"),
                ],
                output=ArgSpec.value("yat", "Tab"),
            )
        )
        interface.add_operation(OperationDecl("select", "algebra"))
        # Terms combine by conjunction only: a Wais query is a term list.
        interface.add_operation(OperationDecl("and", "boolean"))
        interface.add_operation(
            OperationDecl(
                "contains",
                "external",
                inputs=[
                    ArgSpec.value(STRUCTURE_MODEL, "work"),
                    ArgSpec.leaf("String"),
                ],
                output=ArgSpec.leaf("Bool"),
            )
        )
        # Z39.50 structured fields: one predicate per queryable field,
        # "declaring a predicate for each queried field and exporting
        # them to the mediator" (paper, Section 4.2).
        for field in self._queryable_fields():
            interface.add_operation(
                OperationDecl(
                    f"contains_{field}",
                    "external",
                    inputs=[
                        ArgSpec.value(STRUCTURE_MODEL, "work"),
                        ArgSpec.leaf("String"),
                    ],
                    output=ArgSpec.leaf("Bool"),
                )
            )
        interface.add_equivalence(
            SelectionImplication("=", "contains", "String", field_scoped=True)
        )
        return interface

    def _queryable_fields(self) -> Tuple[str, ...]:
        """Element labels clients may search on: the store's declared
        policy, whatever the data (so every shard of one split store
        declares one interface), else every label its data holds."""
        skip = {self._store.collection_label, "work"}
        declared = self._store.queryable_fields
        labels = sorted(declared) if declared else self._store.element_labels()
        return tuple(label for label in labels if label not in skip)

    # -- SourceAdapter ------------------------------------------------------------

    def document_names(self) -> Tuple[str, ...]:
        return (DOCUMENT_NAME,)

    def data_version(self) -> int:
        return self._store.version

    def holds_data(self) -> bool:
        return len(self._store) > 0

    def build_document(self, name: str) -> DataNode:
        if name != DOCUMENT_NAME:
            raise SourceError(f"Wais source exports no document {name!r}")
        return self._store.collection_tree()

    def ident_index(self) -> Dict[str, DataNode]:
        return {}

    # -- pushed execution --------------------------------------------------------------

    def run_fragment(
        self, fragment: PushedFragment, plan: Plan, outer: Optional[Row]
    ) -> Tuple[Tab, str]:
        columns = plan.output_columns()
        terms = [
            self._term(call, columns, outer)
            for predicate in fragment.selections
            for call in conjuncts(predicate)
        ]
        query = WaisQuery(terms)
        # contains() holds for a text only, as at the mediator: any other
        # value (a number, or the work document itself) matches nothing.
        texts = all(isinstance(term.text, str) for term in terms)
        doc_ids = self._store.search(query) if texts else ()
        # The filter binds the work documents, or nothing (``works *
        # work``: one empty row per document).
        works = tuple(self._store.fetch(doc_id) for doc_id in doc_ids)
        data = [works] * len(columns)
        native = f"wais-search {query.render()}"
        return Tab.from_columns(columns, data, len(doc_ids)), native

    @staticmethod
    def _term(
        call: FunCall, columns: Tuple[str, ...], outer: Optional[Row]
    ) -> WaisTerm:
        """The term of one validated ``contains[_field]($w, text)`` call;
        a text variable is the work document or an outer parameter."""
        text = call.args[1]
        if isinstance(text, Const):
            value = bound(text.value)
        elif text.name in columns:
            value = None
        else:
            value = outer_constant(outer, text.name)
        field = call.name.removeprefix("contains_") if call.name != "contains" else None
        return WaisTerm(value, field=field)
