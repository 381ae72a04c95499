"""The generic SQL wrapper.

"Obviously, SQL can be described in a similar manner [to OQL], eventhough
the wrapper's implementation is more complex due to the non-functional
nature of SQL" (paper, Section 4.1).  This wrapper demonstrates that
claim: the same interface machinery — structure patterns, an Fmodel with
``bind``/``inst`` flags, declared algebra operations and predicates —
describes a relational source, and pushed fragments translate to
parameterized SQL executed over DB-API (:mod:`sqlite3`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SourceError
from repro.capabilities.fmodel import FModel, fleaf, fnode, fref, fstar, funion
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
from repro.model.filters import FConst, FElem, FStar, FVar, Filter
from repro.model.patterns import SYMBOL
from repro.model.trees import DataNode
from repro.sources.relational.engine import SqlDatabase
from repro.wrappers.base import (
    PushedFragment,
    Wrapper,
    outer_constant,
    passed_columns,
    without_passed,
)

_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def sql_fmodel(model_name: str = "sqlfmodel") -> FModel:
    """Filter restrictions for a relational source.

    Rows can be bound as trees; columns must be named (ground) and bind
    only their values; the row star stays a star (no positional access).
    """
    model = FModel(model_name)
    model.define(
        "Frow",
        fnode(
            "row",
            fstar(
                fnode(
                    SYMBOL,
                    funion(fleaf("Int"), fleaf("Bool"), fleaf("Float"),
                           fleaf("String")),
                    bind="none",
                ),
                inst="ground",
            ),
            bind="tree",
        ),
    )
    model.define(
        "Frows",
        fnode(
            "rows",
            fstar(fref(model_name, "Frow"), inst="none"),
            bind="none",
            inst="ground",
        ),
    )
    return model


def _restored(declared: Optional[str], values: List[object]) -> tuple:
    """One answer column with the types SQLite loses put back from the
    schema: Bool and Float columns come back as integers."""
    if declared == "Bool":
        return tuple(bool(v) if isinstance(v, int) else v for v in values)
    if declared == "Float":
        return tuple(float(v) if isinstance(v, int) else v for v in values)
    return tuple(values)


class SqlWrapper(Wrapper):
    """Wraps one :class:`SqlDatabase` as a YAT source."""

    def __init__(self, name: str, database: SqlDatabase) -> None:
        super().__init__(name)
        self._db = database

    # -- capability export ----------------------------------------------------

    def build_interface(self) -> SourceInterface:
        interface = SourceInterface(self.name)
        library = self._db.to_pattern_library()
        interface.add_structure(library)
        interface.add_fmodel(sql_fmodel())
        for table in self._db.table_names():
            interface.add_document(table, library.name, table)
        interface.add_operation(
            OperationDecl(
                "bind",
                "algebra",
                inputs=[
                    ArgSpec.value(library.name, "row"),
                    ArgSpec.filter("sqlfmodel", "Frows"),
                ],
                output=ArgSpec.value("yat", "Tab"),
            )
        )
        for operation in ("select", "project"):
            interface.add_operation(OperationDecl(operation, "algebra"))
        for predicate in ("eq", "neq", "lt", "lte", "gt", "gte"):
            interface.add_operation(OperationDecl(predicate, "boolean"))
        return interface

    # -- SourceAdapter -----------------------------------------------------------

    def document_names(self) -> Tuple[str, ...]:
        return self._db.table_names()

    def data_version(self) -> int:
        return self._db.version

    def build_document(self, name: str) -> DataNode:
        return self._db.export_table(name)

    def ident_index(self) -> Dict[str, DataNode]:
        return {}

    # -- pushed execution ----------------------------------------------------------

    def run_fragment(
        self, fragment: PushedFragment, plan: Plan, outer: Optional[Row]
    ) -> Tuple[Tab, str]:
        table = self._db.table(fragment.document)
        var_columns, constants = self._filter_columns(fragment.filter, table)
        where_parts: List[str] = []
        params: List[object] = []
        for column, value in constants:
            where_parts.append(f"{column} = ?")
            params.append(value)
        selections = fragment.selections
        if isinstance(outer, BindingSet):
            selections = without_passed(selections, outer)
        for predicate in selections:
            part = self._predicate_sql(predicate, var_columns, params, outer)
            where_parts.append(part)

        if fragment.projection is not None:
            wanted = {column for column, _alias in fragment.projection}
            alias_of = dict(fragment.projection)
        else:
            wanted = set(var_columns)
            alias_of = {name: name for name in var_columns}
        select_items = [
            f"{column} AS {alias_of[var]}"
            for var, column in var_columns.items()
            if var in wanted
        ]
        if not select_items:
            raise SourceError("pushed SQL fragment projects no columns")
        sql = f"SELECT {', '.join(select_items)} FROM {table.name}"
        blocks = [(None, [])]
        if isinstance(outer, BindingSet):
            blocks = self._key_blocks(outer, var_columns, len(params))
        raw_rows: List[Dict[str, object]] = []
        natives: List[str] = []
        for condition, key_params in blocks:
            parts = where_parts + ([condition] if condition else [])
            statement = sql + (" WHERE " + " AND ".join(parts) if parts else "")
            bound = params + key_params
            raw_rows.extend(self._db.query(statement, bound))
            natives.append(
                f"{statement} -- params {tuple(bound)!r}" if bound else statement
            )
        columns = plan.output_columns()
        missing = set(columns) - set(alias_of[v] for v in var_columns if v in wanted)
        if missing:
            raise SourceError(
                f"pushed SQL plan expects columns {sorted(missing)} the filter "
                "does not bind"
            )
        declared = {
            alias_of[var]: table.column(column).type_name
            for var, column in var_columns.items()
            if var in alias_of
        }
        data = [
            _restored(declared.get(c), [raw[c] for raw in raw_rows])
            for c in columns
        ]
        return Tab.from_columns(columns, data, len(raw_rows)), "; ".join(natives)

    def _key_blocks(
        self, outer: BindingSet, var_columns: Dict[str, str], used: int
    ) -> List[Tuple[str, List[object]]]:
        """``(condition, its parameters)`` per statement of a set-valued call.

        The keys become a row-value ``IN (VALUES ...)``, split only where
        the bind-variable limit the engine reports forces it (*used* are
        taken already): a key lives in exactly one block, so concatenating
        the blocks' answers keeps the table's order within every key.
        """
        columns = passed_columns(outer, var_columns)
        keys = list(outer.keys.values())
        limit = self._db.variable_limit()
        per_block = len(keys)
        if limit is not None:
            per_block = max(1, (limit - used) // len(columns))
        row = "(" + ", ".join("?" * len(columns)) + ")"
        blocks = []
        for start in range(0, len(keys), per_block):
            block = keys[start:start + per_block]
            blocks.append((
                f"({', '.join(columns)}) IN "
                f"(VALUES {', '.join([row] * len(block))})",
                [value for key in block for value in key],
            ))
        return blocks

    def _filter_columns(self, flt: Filter, table):
        """Extract ``{variable: column}`` and constant equality constraints."""
        if (
            not isinstance(flt, FElem)
            or flt.label != "rows"
            or len(flt.children) != 1
            or not isinstance(flt.children[0], FStar)
        ):
            raise SourceError("SQL filters have the shape rows [ * row [...] ]")
        row_filter = flt.children[0].child
        if not isinstance(row_filter, FElem) or row_filter.label != "row":
            raise SourceError("SQL filters iterate over row elements")
        if row_filter.var is not None:
            raise SourceError(
                "binding whole rows as trees is not implemented by this wrapper; "
                "bind the needed columns instead"
            )
        var_columns: Dict[str, str] = {}
        constants: List[Tuple[str, object]] = []
        for item in row_filter.children:
            if not isinstance(item, FElem) or not isinstance(item.label, str):
                raise SourceError("SQL column filters must be ground elements")
            table.column(item.label)  # raises for unknown columns
            if len(item.children) != 1:
                raise SourceError(
                    f"column {item.label!r} admits exactly one content filter"
                )
            content = item.children[0]
            if isinstance(content, FVar):
                var_columns[content.name] = item.label
            elif isinstance(content, FConst):
                constants.append((item.label, bound(content.value)))
            else:
                raise SourceError(
                    f"column content must be a variable or constant, got {content!r}"
                )
        return var_columns, constants

    def _predicate_sql(
        self,
        predicate: Expr,
        var_columns: Dict[str, str],
        params: List[object],
        outer: Optional[Row],
    ) -> str:
        if isinstance(predicate, BoolAnd):
            return "(" + " AND ".join(
                self._predicate_sql(op, var_columns, params, outer)
                for op in predicate.operands
            ) + ")"
        if isinstance(predicate, BoolOr):
            return "(" + " OR ".join(
                self._predicate_sql(op, var_columns, params, outer)
                for op in predicate.operands
            ) + ")"
        if isinstance(predicate, BoolNot):
            return "NOT " + self._predicate_sql(
                predicate.operand, var_columns, params, outer
            )
        if isinstance(predicate, Cmp):
            left = self._scalar_sql(predicate.left, var_columns, params, outer)
            right = self._scalar_sql(predicate.right, var_columns, params, outer)
            return f"{left} {_SQL_OPS[predicate.op]} {right}"
        raise SourceError(f"cannot translate predicate {predicate!r} to SQL")

    def _scalar_sql(
        self,
        expr: Expr,
        var_columns: Dict[str, str],
        params: List[object],
        outer: Optional[Row],
    ) -> str:
        if isinstance(expr, Var):
            if expr.name in var_columns:
                return var_columns[expr.name]
            params.append(outer_constant(outer, expr.name))
            return "?"
        if isinstance(expr, Const):
            value = bound(expr.value)
            params.append(int(value) if isinstance(value, bool) else value)
            return "?"
        raise SourceError(f"cannot translate expression {expr!r} to SQL")
