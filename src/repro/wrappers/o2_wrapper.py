"""The generic O2 wrapper: exports an object database and wraps OQL.

"simeon wraps the O2 object database.  For this, he simply needs to run
the o2-wrapper program that can export structural information from any O2
database ... as well as the system query capabilities (i.e., it wraps
OQL)" (paper, Section 2).

The wrapper is *generic*: everything it exports — schema patterns, the
Fmodel, extents, methods — is derived mechanically from the
:class:`~repro.sources.objectdb.schema.Schema`, with no per-application
code.  Pushed fragments are translated to OQL text (the Section 4.1
example), evaluated by the OQL engine, and returned as a Tab.  A
fragment under set semantics (``Distinct`` on top) becomes ``select
distinct``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SourceError
from repro.capabilities.fmodel import o2_fmodel
from repro.capabilities.interface import ArgSpec, OperationDecl, SourceInterface
from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    Expr,
    FunCall,
    Var,
    bound,
)
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import BindingSet, Row, Tab
from repro.model.filters import (
    FConst,
    FElem,
    Filter,
    FStar,
    FVar,
)
from repro.model.trees import DataNode
from repro.model.values import COLLECTION_KINDS
from repro.sources.objectdb.database import ObjectDatabase, OdmgObject, Oid
from repro.sources.objectdb.oql.ast import (
    OqlAnd,
    OqlCompare,
    OqlLiteral,
    OqlMethodCall,
    OqlNode,
    OqlNot,
    OqlOr,
    OqlPath,
    OqlProjection,
    OqlRange,
    OqlSelect,
)
from repro.sources.objectdb.oql.compiled import compile_select
from repro.sources.objectdb.oql.evaluator import evaluate_oql
from repro.observability.context import current_context
from repro.wrappers.base import (
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
                    ArgSpec.filter("o2fmodel", "Ftype"),
                ],
                output=ArgSpec.value("yat", "Tab"),
            )
        )
        for operation in ("select", "map", "project", "distinct"):
            interface.add_operation(OperationDecl(operation, "algebra"))
        for predicate in ("eq", "neq", "lt", "lte", "gt", "gte"):
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
        context = current_context()
        reference = context is not None and context.reference
        if reference:
            # ``ExecutionPolicy.serial()``, byte for byte the seed
            # behavior: translate and interpret from scratch on every call.
            prepared = self._translated(fragment)
        else:
            # The filter translates once per fragment, which its plan
            # keeps: the translation depends on the document and the
            # filter only — a filter constant is a slot each call binds —
            # so every parameter vector of a cached plan reuses it.
            prepared = fragment.prepared
            if prepared is None:
                prepared = fragment.prepared = self._translated(fragment)
        # Each call specializes the translation with the request's bound
        # constants and its outer bindings (one row, or a whole
        # :class:`BindingSet`).
        translator = prepared.specialized(outer)
        selections = fragment.selections
        if isinstance(outer, BindingSet):
            selections = without_passed(selections, outer)
        for predicate in selections:
            translator.add_predicate(predicate)
        if isinstance(outer, BindingSet):
            translator.add_keys(outer)
        columns = plan.output_columns()
        query = translator.build_select(
            columns, fragment.projection, fragment.distinct
        )
        oql_rows = (
            evaluate_oql(query, self._db)
            if reference
            else compile_select(query).run(self._db)
        )
        convert = self._to_cell
        data = [tuple(convert(raw.get(c)) for raw in oql_rows) for c in columns]
        return Tab.from_columns(columns, data, len(oql_rows)), query.text()

    def _translated(self, fragment: PushedFragment) -> "_OqlTranslator":
        translator = _OqlTranslator(self._db, fragment.document)
        translator.translate_filter(fragment.filter)
        return translator

    def _to_cell(self, value: object):
        if isinstance(value, OdmgObject):
            return self._db.export_object(value.oid)
        if isinstance(value, Oid):
            return self._db.export_object(value.value)
        if isinstance(value, list):
            return tuple(self._to_cell(item) for item in value)
        if isinstance(value, dict):
            raise SourceError("cannot return a bare tuple value from OQL")
        return value


class _OqlTranslator:
    """Builds one OQL select from a pushed fragment.

    Variables of the filter become OQL projections; nested collection
    navigation becomes dependent ``from`` ranges (the OQL counterpart of
    the algebra's DJoin, Section 5.1); mediator predicates translate to
    the ``where`` clause, with query constants and outer-row variables
    inlined as literals (information passing) — and a whole
    :class:`BindingSet` as one disjunction of its keys.
    """

    def __init__(self, database: ObjectDatabase, document: str) -> None:
        self._db = database
        self._document = document
        self._outer: Optional[Row] = None
        self._ranges: List[OqlRange] = []
        self._projections: Dict[str, OqlNode] = {}
        #: ``(path, constant)`` equalities of the filter, in filter order;
        #: a :class:`Param` constant is bound per call (:meth:`specialized`).
        self._constants: List[Tuple[OqlPath, object]] = []
        self._wheres: List[OqlNode] = []
        self._paths: Dict[str, OqlNode] = {}
        self._range_counter = 0

    # -- range allocation -------------------------------------------------------

    def _new_range(self, collection: OqlNode) -> str:
        self._range_counter += 1
        variable = f"R{self._range_counter}"
        self._ranges.append(OqlRange(variable, collection))
        return variable

    # -- filter translation --------------------------------------------------------

    def translate_filter(self, flt: Filter) -> None:
        if not isinstance(flt, FElem) or not isinstance(flt.label, str):
            raise SourceError("O2 filter root must be a concrete element")
        if flt.label not in ("set",) + COLLECTION_KINDS:
            raise SourceError(
                f"O2 filter root must be an extent collection, got {flt.label!r}"
            )
        stars = [item for item in flt.children if isinstance(item, FStar)]
        if len(stars) != 1 or len(flt.children) != 1:
            raise SourceError(
                "O2 extent filter must iterate its members with exactly one star"
            )
        variable = self._new_range(OqlPath(self._document))
        self._class_filter(stars[0].child, OqlPath(variable))

    def _class_filter(self, flt: Filter, base: OqlPath) -> None:
        if isinstance(flt, FVar):
            self._projections[flt.name] = base
            self._paths[flt.name] = base
            return
        if not isinstance(flt, FElem) or flt.label != "class":
            raise SourceError(
                f"expected a class filter over extent members, got {flt!r}"
            )
        if flt.var is not None:
            self._projections[flt.var] = base
            self._paths[flt.var] = base
        if not flt.children:
            return
        if len(flt.children) != 1 or not isinstance(flt.children[0], FElem):
            raise SourceError("a class filter holds exactly one class-name element")
        named = flt.children[0]
        if not isinstance(named.label, str):
            raise SourceError("the class name must be ground in an O2 filter")
        # Class-membership check: only objects of that class match.
        definition = self._db.schema.classes.get(named.label)
        if definition is None:
            raise SourceError(f"unknown class {named.label!r} in pushed filter")
        if len(named.children) != 1:
            raise SourceError("the class-name element holds exactly the tuple filter")
        self._tuple_filter(named.children[0], base)

    def _tuple_filter(self, flt: Filter, base: OqlPath) -> None:
        if not isinstance(flt, FElem) or flt.label != "tuple":
            raise SourceError(f"expected a tuple filter, got {flt!r}")
        for item in flt.children:
            if not isinstance(item, FElem) or not isinstance(item.label, str):
                raise SourceError(
                    "tuple attributes must be ground elements in an O2 filter"
                )
            attribute_path = OqlPath(base.root, base.steps + (item.label,))
            if not item.children:
                continue
            if len(item.children) != 1:
                raise SourceError(
                    f"attribute {item.label!r} admits exactly one content filter"
                )
            self._attribute_content(item.children[0], attribute_path)

    def _attribute_content(self, content: Filter, path: OqlPath) -> None:
        if isinstance(content, FVar):
            self._projections[content.name] = path
            self._paths[content.name] = path
            return
        if isinstance(content, FConst):
            self._constants.append((path, content.value))
            return
        if isinstance(content, FElem) and isinstance(content.label, str):
            if content.label in COLLECTION_KINDS:
                self._collection_content(content, path)
                return
            if content.label == "class":
                # Direct (single) reference attribute: path navigation
                # dereferences it transparently in the OQL engine.
                self._class_filter(content, path)
                return
            if content.label == "tuple":
                self._tuple_filter(content, path)
                return
        raise SourceError(f"unsupported attribute content filter: {content!r}")

    def _collection_content(self, content: FElem, path: OqlPath) -> None:
        stars = [item for item in content.children if isinstance(item, FStar)]
        if len(stars) != 1 or len(content.children) != 1:
            raise SourceError(
                "a collection filter iterates its members with exactly one star"
            )
        variable = self._new_range(path)
        inner = stars[0].child
        if isinstance(inner, FVar):
            self._projections[inner.name] = OqlPath(variable)
            self._paths[inner.name] = OqlPath(variable)
            return
        self._class_filter(inner, OqlPath(variable))

    # -- per-call specialization ---------------------------------------------------

    def specialized(self, outer: Optional[Row]) -> "_OqlTranslator":
        """A per-call view sharing this translator's structural state.

        The filter translation (ranges, projected paths, the paths its
        constants compare) depends on neither the request's constants nor
        the outer row; the where clause does.  The clone shares those
        structures read-only and gets its own where list — the filter's
        equalities on the bound constants first — and outer row, so one
        filter translation serves every parameter vector and every
        information-passing round trip without mutation, which also keeps
        concurrent requests and DJoin dispatch safe.
        """
        clone = _OqlTranslator.__new__(_OqlTranslator)
        clone._db = self._db
        clone._document = self._document
        clone._outer = outer
        clone._ranges = self._ranges
        clone._projections = self._projections
        clone._paths = self._paths
        clone._constants = self._constants
        clone._wheres = [
            OqlCompare("=", path, OqlLiteral(bound(value)))
            for path, value in self._constants
        ]
        clone._range_counter = self._range_counter
        return clone

    # -- predicate translation ---------------------------------------------------------

    def add_predicate(self, predicate: Expr) -> None:
        self._wheres.append(self._expr(predicate))

    def add_keys(self, outer: BindingSet) -> None:
        """``(c1 = k11 and c2 = k12) or (c1 = k21 and c2 = k22) or ...``:
        the passed equalities for every binding of *outer* at once."""
        paths = passed_columns(outer, self._paths)
        alternatives: List[OqlNode] = []
        for values in outer.keys.values():
            equalities = [
                OqlCompare("=", path, OqlLiteral(value))
                for path, value in zip(paths, values)
            ]
            alternatives.append(
                equalities[0] if len(equalities) == 1 else OqlAnd(equalities)
            )
        self._wheres.append(
            alternatives[0] if len(alternatives) == 1 else OqlOr(alternatives)
        )

    def _expr(self, expr: Expr) -> OqlNode:
        if isinstance(expr, Var):
            if expr.name in self._paths:
                return self._paths[expr.name]
            return OqlLiteral(outer_constant(self._outer, expr.name))
        if isinstance(expr, Const):
            return OqlLiteral(bound(expr.value))
        if isinstance(expr, Cmp):
            return OqlCompare(expr.op, self._expr(expr.left), self._expr(expr.right))
        if isinstance(expr, BoolAnd):
            return OqlAnd([self._expr(op) for op in expr.operands])
        if isinstance(expr, BoolOr):
            return OqlOr([self._expr(op) for op in expr.operands])
        if isinstance(expr, BoolNot):
            return OqlNot(self._expr(expr.operand))
        if isinstance(expr, FunCall):
            return self._method_call(expr)
        raise SourceError(f"cannot translate expression {expr!r} to OQL")

    def _method_call(self, expr: FunCall) -> OqlNode:
        method = self._db.schema.methods.get(expr.name)
        if method is None:
            raise SourceError(f"unknown O2 method {expr.name!r}")
        if not expr.args or not isinstance(expr.args[0], Var):
            raise SourceError(
                f"method {expr.name!r} needs an object variable receiver"
            )
        receiver = self._paths.get(expr.args[0].name)
        if not isinstance(receiver, OqlPath):
            raise SourceError(
                f"receiver ${expr.args[0].name} of {expr.name!r} is not bound "
                "by the pushed filter"
            )
        args = [self._expr(arg) for arg in expr.args[1:]]
        return OqlMethodCall(receiver, expr.name, args)

    # -- assembly -----------------------------------------------------------------------

    def build_select(
        self,
        columns: Tuple[str, ...],
        projection: Optional[Tuple[Tuple[str, str], ...]],
        distinct: bool,
    ) -> OqlSelect:
        if projection is not None:
            wanted = {column for column, _alias in projection}
            alias_of = {column: alias for column, alias in projection}
        else:
            wanted = set(self._projections)
            alias_of = {name: name for name in self._projections}
        items: List[OqlProjection] = []
        for name, node in self._projections.items():
            if name in wanted:
                items.append(OqlProjection(alias_of[name], node))
        missing = set(columns) - {item.alias for item in items}
        if missing:
            raise SourceError(
                f"pushed plan expects columns {sorted(missing)} the filter "
                "does not bind"
            )
        where: Optional[OqlNode] = None
        if self._wheres:
            where = self._wheres[0] if len(self._wheres) == 1 else OqlAnd(self._wheres)
        return OqlSelect(items, self._ranges, where, distinct)
