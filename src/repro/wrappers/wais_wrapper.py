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

Pushed fragments must be ``[Select contains]* (Bind works*$w (Source))``;
they translate to a :class:`~repro.sources.wais.query.WaisQuery` answered
by the inverted index, and only the matching documents are transferred.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SourceError
from repro.capabilities.equivalences import SelectionImplication
from repro.capabilities.fmodel import wais_fmodel
from repro.capabilities.interface import ArgSpec, OperationDecl, SourceInterface
from repro.core.algebra.expressions import Const, Expr, FunCall, Var
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import Row, Tab
from repro.model.filters import FElem, FStar, FVar, Filter
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


class WaisWrapper(Wrapper):
    """Wraps one :class:`WaisStore` as a YAT source."""

    def __init__(
        self,
        name: str,
        store: WaisStore,
        document_name: str = "artworks",
        mandatory_fields: Tuple[str, ...] = ("artist", "title", "style", "size"),
    ) -> None:
        super().__init__(name)
        self._store = store
        self._document_name = document_name
        self._mandatory_fields = mandatory_fields

    # -- capability export ------------------------------------------------------

    def build_interface(self) -> SourceInterface:
        interface = SourceInterface(self.name)
        library = PatternLibrary(STRUCTURE_MODEL)
        work_children = [
            PNode(field, [PAtomic("String")]) for field in self._mandatory_fields
        ]
        work_children.append(PStar(PAny()))
        library.define("work", PNode("work", work_children))
        library.define(
            "works", PNode(self._store.collection_label, [PStar(PRef("work"))])
        )
        interface.add_structure(library)
        interface.add_fmodel(wais_fmodel(STRUCTURE_MODEL))
        interface.add_document(self._document_name, STRUCTURE_MODEL, "works")
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
        """Element labels clients may search on, per the store's policy."""
        skip = {self._store.collection_label, "work"}
        return tuple(
            label
            for label in self._store.element_labels()
            if label not in skip and self._store.field_queryable(label)
        )

    # -- SourceAdapter ------------------------------------------------------------

    def document_names(self) -> Tuple[str, ...]:
        return (self._document_name,)

    def data_version(self) -> int:
        return self._store.version

    def build_document(self, name: str) -> DataNode:
        if name != self._document_name:
            raise SourceError(f"Wais source exports no document {name!r}")
        return self._store.collection_tree()

    def ident_index(self) -> Dict[str, DataNode]:
        return {}

    # -- pushed execution --------------------------------------------------------------

    def run_fragment(
        self, fragment: PushedFragment, plan: Plan, outer: Optional[Row]
    ) -> Tuple[Tab, str]:
        work_var = self._work_variable(fragment.filter)
        terms: List[WaisTerm] = []
        for predicate in fragment.selections:
            terms.append(self._predicate_term(predicate, work_var, outer))
        query = WaisQuery(terms)
        doc_ids = self._store.search(query)
        columns = plan.output_columns()
        if columns != (work_var,):
            raise SourceError(
                f"Wais fragments bind exactly the work variable; expected "
                f"column {work_var!r}, plan declares {columns}"
            )
        rows = [
            Row(columns, (self._store.fetch(doc_id),)) for doc_id in doc_ids
        ]
        native = f"wais-search {query.render()}"
        return Tab(columns, rows), native

    def _work_variable(self, flt: Filter) -> str:
        if (
            not isinstance(flt, FElem)
            or flt.label != self._store.collection_label
            or len(flt.children) != 1
            or not isinstance(flt.children[0], FStar)
        ):
            raise SourceError(
                "Wais filters have the shape works [ * work $w ] "
                f"(collection label {self._store.collection_label!r})"
            )
        inner = flt.children[0].child
        if isinstance(inner, FVar):
            return inner.name
        if (
            isinstance(inner, FElem)
            and inner.label == "work"
            and inner.var is not None
            and not inner.children
        ):
            return inner.var
        raise SourceError(
            "Wais sources only bind whole work documents (tree variable)"
        )

    def _predicate_term(
        self, predicate: Expr, work_var: str, outer: Optional[Row]
    ) -> WaisTerm:
        if not isinstance(predicate, FunCall) or not (
            predicate.name == "contains" or predicate.name.startswith("contains_")
        ):
            raise SourceError(
                f"Wais sources only evaluate contains predicates, got "
                f"{predicate.text()}"
            )
        field: Optional[str] = None
        if predicate.name.startswith("contains_"):
            field = predicate.name.removeprefix("contains_")
            if not self._store.field_queryable(field):
                raise SourceError(f"field {field!r} is not queryable")
        if len(predicate.args) != 2:
            raise SourceError("contains takes (document, text)")
        target, text = predicate.args
        if not isinstance(target, Var) or target.name != work_var:
            raise SourceError(
                f"contains must test the bound work variable ${work_var}"
            )
        if isinstance(text, Const):
            value = text.value
        elif isinstance(text, Var):
            value = outer_constant(outer, text.name)
        else:
            raise SourceError("the contains text must be a constant or parameter")
        if not isinstance(value, str):
            raise SourceError("the contains text must be a string")
        return WaisTerm(value, field=field)
