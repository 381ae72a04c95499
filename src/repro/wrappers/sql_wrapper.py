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

from repro.capabilities.fmodel import FModel, fleaf, fnode, fref, fstar, funion
from repro.capabilities.interface import ArgSpec, OperationDecl, SourceInterface
from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Const,
    Expr,
    Var,
    bound,
)
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import BindingSet, Row, Tab
from repro.model.filters import FVar, Filter
from repro.model.patterns import SYMBOL
from repro.model.trees import DataNode
from repro.sources.relational.engine import SqlDatabase, SqlTable
from repro.wrappers.base import (
    PushedFragment,
    Wrapper,
    outer_constant,
    passed_columns,
    without_passed,
)

_SQL_OPS = {"=": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def sql_fmodel() -> FModel:
    """Filter restrictions for a relational source, the ``sqlfmodel``.

    Columns must be named (ground) and bind only their values; the row
    star stays a star (no positional access), iterated exactly once.
    Rows bind no tree variable (``bind="none"`` on ``row``): the
    translator selects columns and never rebuilds a row element, so a
    filter binding whole rows stays mediator-side.
    """
    model = FModel("sqlfmodel")
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
            bind="none",
        ),
    )
    model.define(
        "Frows",
        fnode(
            "rows",
            fstar(fref("sqlfmodel", "Frow"), inst="none"),
            bind="none",
            inst="ground",
        ),
    )
    return model


def _filter_columns(flt: Filter, table: SqlTable):
    """``({variable: column}, [(column, constant)], {named column})`` of
    a validated ``rows [ * row [ column: content, ... ] ]`` filter, or
    ``None`` when no exported row can match it: it names an undeclared
    column, or equates one with a constant of another kind
    (:func:`_kinds_differ`)."""
    var_columns: Dict[str, str] = {}
    constants: List[Tuple[str, object]] = []
    named = set()
    known = table.column_names()
    for item in flt.children[0].child.children:
        if item.label not in known:
            return None
        named.add(item.label)
        for content in item.children:
            if isinstance(content, FVar):
                var_columns[content.name] = item.label
                continue
            value = bound(content.value)
            if _kinds_differ(table.column(item.label).type_name, value):
                return None
            constants.append((item.label, value))
    return var_columns, constants, named


def _kinds_differ(declared: str, value: object) -> bool:
    """Whether *value* is a string and the column a number or the other
    way round: SQLite's column affinity would convert one into the
    other, where the mediator's ``=`` says they differ."""
    return isinstance(value, str) != (declared == "String")


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
        for predicate in (
            "eq", "neq", "lt", "lte", "gt", "gte", "and", "or", "not"
        ):
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
        columns = plan.output_columns()
        parts = _filter_columns(fragment.filter, table)
        if parts is None:
            return (
                Tab.from_columns(columns, [()] * len(columns), 0),
                f"-- no row of {table.name} matches",
            )
        var_columns, constants, named = parts
        where_parts: List[str] = []
        params: List[object] = []
        for column, value in constants:
            where_parts.append(f"{column} = ?")
            params.append(value)
        selections = fragment.selections
        if isinstance(outer, BindingSet):
            selections = without_passed(selections, outer)
        for predicate in selections:
            part = self._predicate_sql(predicate, table, var_columns, params, outer)
            where_parts.append(part)

        if fragment.projection is not None:
            wanted = {column for column, _alias in fragment.projection}
            alias_of = dict(fragment.projection)
        else:
            wanted = set(var_columns)
            alias_of = {name: name for name in var_columns}
        # A row with a NULL in a column the filter names is no answer: the
        # export leaves that column out of its row, so the mediator's
        # Bind drops it.  A fetched row is checked after the fetch, and
        # ``column = ?`` holds for no NULL.
        checked = {column for var, column in var_columns.items() if var in wanted}
        checked.update(column for column, _value in constants)
        where_parts += [
            f"{column} IS NOT NULL" for column in sorted(named - checked)
        ]
        # A fragment binding no column still answers one row per match.
        select_items = [
            f"{column} AS {alias_of[var]}"
            for var, column in var_columns.items()
            if var in wanted
        ] or ["1"]
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
            raw_rows.extend(
                raw for raw in self._db.query(statement, bound)
                if None not in raw.values()
            )
            natives.append(
                f"{statement} -- params {tuple(bound)!r}" if bound else statement
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

    def _predicate_sql(
        self,
        predicate: Expr,
        table: SqlTable,
        var_columns: Dict[str, str],
        params: List[object],
        outer: Optional[Row],
    ) -> str:
        if isinstance(predicate, BoolAnd):
            return "(" + " AND ".join(
                self._predicate_sql(op, table, var_columns, params, outer)
                for op in predicate.operands
            ) + ")"
        if isinstance(predicate, BoolOr):
            return "(" + " OR ".join(
                self._predicate_sql(op, table, var_columns, params, outer)
                for op in predicate.operands
            ) + ")"
        if isinstance(predicate, BoolNot):
            return "NOT " + self._predicate_sql(
                predicate.operand, table, var_columns, params, outer
            )
        # The interface declares comparisons and no function: the rest
        # of a validated predicate is one comparison.
        left = self._scalar_sql(predicate.left, var_columns, params, outer)
        right = self._scalar_sql(predicate.right, var_columns, params, outer)
        if predicate.op in ("=", "!=") and (left == "?") != (right == "?"):
            # A column and a constant of the other kind are never equal.
            # (An outer value keeps SQLite's affinity: the DJoin checks
            # the kinds of what a set-valued call answers.)
            column, value = (
                (right, predicate.left) if left == "?" else (left, predicate.right)
            )
            declared = table.column(column).type_name
            if isinstance(value, Const) and _kinds_differ(declared, params[-1]):
                params.pop()
                return "0" if predicate.op == "=" else "1"
        return f"{left} {_SQL_OPS[predicate.op]} {right}"

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
        value = bound(expr.value)
        params.append(int(value) if isinstance(value, bool) else value)
        return "?"
