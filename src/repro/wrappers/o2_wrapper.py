"""The generic O2 wrapper: exports an object database and wraps OQL.

"simeon wraps the O2 object database.  For this, he simply needs to run
the o2-wrapper program that can export structural information from any O2
database ... as well as the system query capabilities (i.e., it wraps
OQL)" (paper, Section 2).

The wrapper is *generic*: everything it exports — schema patterns, the
Fmodel, extents, methods — is derived mechanically from the
:class:`~repro.sources.objectdb.schema.Schema`, with no per-application
code.  A pushed fragment translates once to an OQL select template (the
Section 4.1 example), whose constants, outer values and passed keys are
slots, and compiles once per passed-key pairs; each call runs it over
its own values and returns a Tab.  The OQL text of a call is written
from the template and the values captured at the call only when
something reads it (EXPLAIN, a trace, ``ExecutionStats.native_queries``).
A fragment under set semantics (``Distinct`` on top) becomes ``select
distinct``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.capabilities.fmodel import o2_fmodel
from repro.capabilities.interface import ArgSpec, OperationDecl, SourceInterface
from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    Expr,
    Var,
    bound,
)
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import BindingSet, Row, Tab
from repro.model.filters import FConst, FElem, Filter, FVar
from repro.model.trees import DataNode
from repro.sources.objectdb.database import ObjectDatabase, OdmgObject
from repro.sources.objectdb.schema import AtomicType, OdmgType, RefType, TupleType
from repro.sources.objectdb.oql.ast import (
    OqlAnd,
    OqlCompare,
    OqlKeySet,
    OqlMethodCall,
    OqlNode,
    OqlNot,
    OqlOr,
    OqlPath,
    OqlProjection,
    OqlRange,
    OqlSelect,
    OqlSlot,
)
from repro.sources.objectdb.oql.compiled import CompiledSelect, compile_select
from repro.wrappers.base import (
    NativeText,
    PushedFragment,
    Wrapper,
    outer_constant,
    passed_columns,
    without_passed,
)

_ATOMIC_RESULTS = {"Int": "Int", "Float": "Float", "String": "String", "Bool": "Bool"}


class O2Wrapper(Wrapper):
    """Wraps one :class:`ObjectDatabase` as a YAT source."""

    def __init__(self, name: str, database: ObjectDatabase) -> None:
        super().__init__(name)
        self._db = database

    # -- capability export ---------------------------------------------------

    def build_interface(self) -> SourceInterface:
        interface = SourceInterface(self.name)
        library = self._db.schema.to_pattern_library()
        interface.add_structure(library)
        interface.add_fmodel(o2_fmodel())
        for extent in self._db.extent_names():
            interface.add_document(extent, library.name, extent)
        interface.add_operation(
            OperationDecl(
                "bind",
                "algebra",
                inputs=[
                    ArgSpec.value(library.name, "Type"),
                    ArgSpec.filter("o2fmodel", "Fextent"),
                ],
                output=ArgSpec.value("yat", "Tab"),
            )
        )
        for operation in ("select", "map", "project", "distinct"):
            interface.add_operation(OperationDecl(operation, "algebra"))
        for predicate in (
            "eq", "neq", "lt", "lte", "gt", "gte", "and", "or", "not"
        ):
            interface.add_operation(OperationDecl(predicate, "boolean"))
        for method in self._db.schema.methods.values():
            result_name = getattr(method.result, "name", "Float")
            interface.add_operation(
                OperationDecl(
                    method.name,
                    "method",
                    inputs=[ArgSpec.value(library.name, method.class_name)],
                    output=ArgSpec.leaf(_ATOMIC_RESULTS.get(result_name, "String")),
                )
            )
        return interface

    # -- SourceAdapter ----------------------------------------------------------

    def document_names(self) -> Tuple[str, ...]:
        return self._db.extent_names()

    def data_version(self) -> int:
        return self._db.version

    def build_document(self, name: str) -> DataNode:
        return self._db.export_extent(name)

    def ident_index(self) -> Dict[str, DataNode]:
        return self._db.ident_index()

    # -- pushed execution ----------------------------------------------------------

    def run_fragment(
        self, fragment: PushedFragment, plan: Plan, outer: Optional[Row]
    ) -> Tuple[Tab, str]:
        # The fragment, which its plan keeps, holds the translation and
        # one compiled select per passed-key pairs: each value a call
        # supplies is a slot, so every call of the shape reuses it.
        translator = fragment.prepared
        if translator is None:
            translator = fragment.prepared = self._translated(fragment)
        columns = plan.output_columns()
        if translator.empty:
            return (
                Tab.from_columns(columns, [()] * len(columns), 0),
                f"-- no member of {fragment.document} matches",
            )
        template, sources, select = translator.select(fragment, outer)
        slots = tuple(
            outer_constant(outer, source.name) if source.__class__ is Var
            else bound(source)
            for source in sources
        )
        keys = tuple(outer.keys.values()) if isinstance(outer, BindingSet) else ()
        oql_rows = select.run(self._db, slots, keys)
        cells = translator.cells
        if fragment.projection is not None:
            cells = {alias: cells[column] for column, alias in fragment.projection}
        data = []
        for column in columns:
            convert = cells[column]
            values = [raw.get(column) for raw in oql_rows]
            data.append(values if convert is None else [convert(v) for v in values])
        native = NativeText(lambda: template.bind(slots, keys).text())
        return Tab.from_columns(columns, data, len(oql_rows)), native

    def _translated(self, fragment: PushedFragment) -> "_OqlTranslator":
        translator = _OqlTranslator(self._db, fragment.document)
        translator.translate_filter(fragment.filter)
        return translator


class _OqlTranslator:
    """Builds the OQL select template of a pushed fragment.

    Variables of the filter become OQL projections; nested collection
    navigation becomes dependent ``from`` ranges (the OQL counterpart of
    the algebra's DJoin, Section 5.1); mediator predicates translate to
    the ``where`` clause, with query constants and outer-row variables
    as slots each call fills (information passing) — and a whole
    :class:`BindingSet` as one key set.
    """

    def __init__(self, database: ObjectDatabase, document: str) -> None:
        self._db = database
        self._document = document
        self._ranges: List[OqlRange] = []
        #: ``{column: cell conversion}``; ``None`` keeps the OQL value.
        self.cells: Dict[str, Optional[Callable[[object], object]]] = {}
        #: ``(path, constant)`` equalities of the filter, in filter order;
        #: a :class:`Param` constant is bound per call.
        self._constants: List[Tuple[OqlPath, object]] = []
        #: ``{passed pairs or None: (template, slot sources, compiled
        #: select)}`` (:meth:`select`).
        self._selects: Dict[object, tuple] = {}
        #: ``{variable: the path it projects}``, in filter order.
        self._paths: Dict[str, OqlNode] = {}
        #: Set when a label or constant of the filter can match no
        #: exported node: the answer is empty, and no OQL runs.
        self.empty = False

    # -- range allocation -------------------------------------------------------

    def _new_range(self, collection: OqlNode) -> str:
        variable = f"R{len(self._ranges) + 1}"
        self._ranges.append(OqlRange(variable, collection))
        return variable

    # -- filter translation --------------------------------------------------------
    #
    # The filter is validated against ``Fextent``; the walk follows it
    # down the schema's types, so each position knows what the export
    # holds there.  A label or constant the export never holds at its
    # position makes the answer empty, as the mediator's own Bind over
    # the exported extent would.

    def translate_filter(self, flt: FElem) -> None:
        """``set [ * member ]``: one range over the extent."""
        variable = self._new_range(OqlPath(self._document))
        class_name = self._db.schema.extents()[self._document]
        member = flt.children[0].child
        if isinstance(member, FVar):
            self._project(member.name, OqlPath(variable), self._object_cell)
        else:
            self._object(member, OqlPath(variable), class_name)

    def _project(self, name: str, path: OqlPath, convert) -> None:
        self._paths[name] = path
        self.cells[name] = convert

    def _object(self, flt: FElem, path: OqlPath, class_name: str) -> None:
        """``class [ <class name> [ tuple ] ]``: an extent member, or the
        target of a reference (element filters follow references)."""
        if flt.label != "class":
            self.empty = True
            return
        if flt.var is not None:
            self._project(flt.var, path, self._object_cell)
        for named in flt.children:
            if named.label != class_name:
                self.empty = True
                return
            value_type = self._db.schema.class_of(class_name).type
            for content in named.children:
                self._value(content, path, value_type)

    def _value(self, flt: Filter, path: OqlPath, odmg_type: OdmgType) -> None:
        """A filter over a value node of *odmg_type* (a tuple, a
        collection, a reference, or an atomic collection item)."""
        if isinstance(flt, FVar):
            self._project(flt.name, path, self._cell(odmg_type))
        elif isinstance(flt, FConst) or isinstance(odmg_type, AtomicType):
            # A constant never matches a tuple, collection or object,
            # and an element filter never matches an atom.
            if isinstance(flt, FConst) and isinstance(odmg_type, AtomicType):
                self._constants.append((path, flt.value))
            else:
                self.empty = True
        elif isinstance(odmg_type, RefType):
            self._object(flt, path, odmg_type.class_name)
        elif isinstance(odmg_type, TupleType):
            self._tuple(flt, path, odmg_type)
        elif flt.label != odmg_type.kind:
            self.empty = True
        else:
            if flt.var is not None:
                self._project(flt.var, path, self._cell(odmg_type))
            variable = self._new_range(path)
            self._value(flt.children[0].child, OqlPath(variable), odmg_type.element)

    def _tuple(self, flt: FElem, path: OqlPath, odmg_type: TupleType) -> None:
        """``tuple [ attribute: content, ... ]``; attributes are ground."""
        if flt.label != "tuple":
            self.empty = True
            return
        if flt.var is not None:
            self._project(flt.var, path, self._cell(odmg_type))
        attributes = dict(odmg_type.attributes)
        for item in flt.children:
            attribute_type = attributes.get(item.label)
            if attribute_type is None:
                self.empty = True
                return
            attribute_path = OqlPath(path.root, path.steps + (item.label,))
            for content in item.children:
                self._value(content, attribute_path, attribute_type)

    # -- cells ----------------------------------------------------------------------

    def _object_cell(self, value: object) -> DataNode:
        return self._db.export_object(_oid(value))

    def _cell(self, odmg_type: OdmgType) -> Optional[Callable[[object], object]]:
        """How a variable's OQL value becomes the node the export holds
        at a position of *odmg_type* (a reference binds as itself)."""
        if isinstance(odmg_type, AtomicType):
            return None
        if isinstance(odmg_type, RefType):
            return lambda value: DataNode("class", ref_target=_oid(value))
        export = self._db.export_value
        if isinstance(odmg_type, TupleType):
            return lambda value: export(
                odmg_type, value.values if isinstance(value, OdmgObject) else value
            )
        return lambda value: export(odmg_type, value)

    # -- the select ------------------------------------------------------------------

    def select(
        self, fragment: PushedFragment, outer: Optional[Row]
    ) -> Tuple[OqlSelect, Tuple[object, ...], CompiledSelect]:
        """``(template, slot sources, compiled select)`` for calls passing
        *outer*'s key pairs, made on the first one.  A slot's source is a
        constant (:func:`bound` per call) or a :class:`Var` of the outer
        row; the where clause holds the filter's equalities, then the
        selections, then the passed keys."""
        pairs = outer.pairs if isinstance(outer, BindingSet) else None
        made = self._selects.get(pairs)
        if made is None:
            sources: List[object] = []
            wheres: List[OqlNode] = [
                OqlCompare("=", path, _slot(value, sources))
                for path, value in self._constants
            ]
            selections = fragment.selections
            if pairs is not None:
                selections = without_passed(selections, outer)
            wheres.extend(self._oql(predicate, sources) for predicate in selections)
            if pairs is not None:
                wheres.append(OqlKeySet(passed_columns(outer, self._paths)))
            alias_of = (
                {name: name for name in self._paths}
                if fragment.projection is None
                else dict(fragment.projection)
            )
            items = [
                OqlProjection(alias_of[name], node)
                for name, node in self._paths.items()
                if name in alias_of
            ]
            where = OqlAnd(wheres) if len(wheres) > 1 else next(iter(wheres), None)
            template = OqlSelect(items, self._ranges, where, fragment.distinct)
            made = self._selects[pairs] = (
                template, tuple(sources), compile_select(template)
            )
        return made

    def _oql(self, expr: Expr, sources: List[object]) -> OqlNode:
        if isinstance(expr, Var):
            if expr.name in self._paths:
                return self._paths[expr.name]
            return _slot(expr, sources)
        if isinstance(expr, Const):
            return _slot(expr.value, sources)
        if isinstance(expr, Cmp):
            return OqlCompare(
                expr.op, self._oql(expr.left, sources), self._oql(expr.right, sources)
            )
        if isinstance(expr, BoolAnd):
            return OqlAnd([self._oql(op, sources) for op in expr.operands])
        if isinstance(expr, BoolOr):
            return OqlOr([self._oql(op, sources) for op in expr.operands])
        if isinstance(expr, BoolNot):
            return OqlNot(self._oql(expr.operand, sources))
        # A validated call: a declared method on its one receiver.
        return OqlMethodCall(self._oql(expr.args[0], sources), expr.name, [])


def _slot(source: object, sources: List[object]) -> OqlSlot:
    sources.append(source)
    return OqlSlot(len(sources) - 1)


def _oid(value: object) -> str:
    """The object identifier of an OQL object or reference value."""
    return value.oid if isinstance(value, OdmgObject) else value.value
