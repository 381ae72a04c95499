"""A typed relational source backed by :mod:`sqlite3` (DB-API).

The paper claims SQL sources wrap "in a similar manner" to OQL
(Section 4.1).  This module provides the substrate for that claim: a
schema of typed tables over an in-memory SQLite database, XML export of
tables in a flat row encoding, and parameterized query execution for the
SQL the wrapper generates from pushed plans.

Export encoding (mirrors the O2 ``set * class`` shape at one nesting
level less, since rows are flat)::

    <rows col="set">
      <row><title type="String">Nympheas</title><year type="Int">1897</year></row>
      ...
    </rows>
"""

from __future__ import annotations

import sqlite3
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SqlSourceError
from repro.model.patterns import PAtomic, PNode, PStar, PatternLibrary
from repro.model.trees import DataNode
from repro.model.values import ATOMIC_TYPE_NAMES

_SQLITE_TYPES = {
    "Int": "INTEGER",
    "Float": "REAL",
    "String": "TEXT",
    "Bool": "INTEGER",
}

_IDENT_OK = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_identifier(name: str) -> str:
    """Guard against SQL injection through schema identifiers."""
    if not name or not set(name) <= _IDENT_OK or name[0].isdigit():
        raise SqlSourceError(f"invalid SQL identifier: {name!r}")
    return name


class SqlColumn:
    """One typed column."""

    __slots__ = ("name", "type_name")

    def __init__(self, name: str, type_name: str) -> None:
        if type_name not in ATOMIC_TYPE_NAMES:
            raise SqlSourceError(f"unknown column type: {type_name!r}")
        self.name = _check_identifier(name)
        self.type_name = type_name

    def __repr__(self) -> str:
        return f"SqlColumn({self.name!r}, {self.type_name!r})"


class SqlTable:
    """One table: a name and its columns."""

    __slots__ = ("name", "columns")

    def __init__(self, name: str, columns: Sequence[SqlColumn]) -> None:
        self.name = _check_identifier(name)
        if not columns:
            raise SqlSourceError(f"table {name!r} needs at least one column")
        self.columns = tuple(columns)

    def column_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.columns)

    def column(self, name: str) -> SqlColumn:
        for column in self.columns:
            if column.name == name:
                return column
        raise SqlSourceError(f"table {self.name!r} has no column {name!r}")


class SqlDatabase:
    """In-memory SQLite database with a typed schema and XML export."""

    def __init__(self, name: str = "sqlsource") -> None:
        self.name = name
        # One shared connection, serialized by our own lock: parallel
        # plan branches may push SQL from pool threads, and sqlite3's
        # same-thread check would otherwise reject them.
        self._connection = sqlite3.connect(":memory:", check_same_thread=False)
        self._query_lock = threading.Lock()
        self._tables: Dict[str, SqlTable] = {}
        #: Monotonic data version; wrappers key document memos on it.
        self.version = 0

    def close(self) -> None:
        self._connection.close()

    # -- schema ---------------------------------------------------------------

    def create_table(self, table: SqlTable) -> None:
        if table.name in self._tables:
            raise SqlSourceError(f"table {table.name!r} already exists")
        columns_sql = ", ".join(
            f"{column.name} {_SQLITE_TYPES[column.type_name]}"
            for column in table.columns
        )
        self._connection.execute(f"CREATE TABLE {table.name} ({columns_sql})")
        self._tables[table.name] = table
        self.version += 1

    def table(self, name: str) -> SqlTable:
        try:
            return self._tables[name]
        except KeyError:
            raise SqlSourceError(f"unknown table: {name!r}") from None

    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    # -- updates ------------------------------------------------------------------

    def insert_rows(self, table_name: str, rows: Iterable[Dict[str, object]]) -> int:
        """Insert dictionaries as rows; returns the number inserted."""
        table = self.table(table_name)
        names = table.column_names()
        placeholders = ", ".join("?" for _ in names)
        sql = f"INSERT INTO {table.name} ({', '.join(names)}) VALUES ({placeholders})"
        count = 0
        for row in rows:
            missing = set(names) - set(row)
            if missing:
                raise SqlSourceError(
                    f"row for {table_name!r} is missing columns {sorted(missing)}"
                )
            values = tuple(
                int(row[n]) if isinstance(row[n], bool) else row[n] for n in names
            )
            self._connection.execute(sql, values)
            count += 1
        self._connection.commit()
        if count:
            self.version += 1
        return count

    # -- queries --------------------------------------------------------------------

    def query(
        self, sql: str, params: Sequence[object] = ()
    ) -> List[Dict[str, object]]:
        """Run a SELECT and return rows as dictionaries."""
        with self._query_lock:
            try:
                cursor = self._connection.execute(sql, tuple(params))
            except sqlite3.Error as exc:
                raise SqlSourceError(f"SQL error: {exc} in {sql!r}") from exc
            names = [description[0] for description in cursor.description]
            return [dict(zip(names, row)) for row in cursor.fetchall()]

    def variable_limit(self) -> Optional[int]:
        """How many ``?`` parameters one statement may bind, as the engine
        itself reports it: the connection's run-time limit, or (Python
        3.10 has no ``getlimit``) the compile-time one.  ``None`` when it
        reports neither — there is then nothing to split at, and sqlite
        rejects a statement that binds too many."""
        getlimit = getattr(self._connection, "getlimit", None)
        if getlimit is not None:
            return getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
        with self._query_lock:
            options = self._connection.execute("PRAGMA compile_options").fetchall()
        for (option,) in options:
            if option.startswith("MAX_VARIABLE_NUMBER="):
                return int(option.partition("=")[2])
        return None

    def row_count(self, table_name: str) -> int:
        table = self.table(table_name)
        rows = self.query(f"SELECT COUNT(*) AS n FROM {table.name}")
        return int(rows[0]["n"])

    # -- XML export -------------------------------------------------------------------

    def export_table(self, table_name: str) -> DataNode:
        """The whole table as a ``rows [ row* ]`` document tree."""
        table = self.table(table_name)
        rows = self.query(f"SELECT * FROM {table.name}")
        children = [self._row_tree(table, row) for row in rows]
        return DataNode("rows", children=children, collection="set")

    def _row_tree(self, table: SqlTable, row: Dict[str, object]) -> DataNode:
        children = []
        for column in table.columns:
            value = row[column.name]
            if value is None:
                continue
            if column.type_name == "Bool":
                value = bool(value)
            if column.type_name == "Float" and isinstance(value, int):
                value = float(value)
            children.append(DataNode(column.name, atom=value))
        return DataNode("row", children=children)

    def to_pattern_library(self) -> PatternLibrary:
        """Structure patterns for every table: ``rows [ * row [cols] ]``,
        each column ``* col``: :meth:`export_table` leaves a NULL out."""
        library = PatternLibrary(self.name)
        for table in self._tables.values():
            row_pattern = PNode(
                "row",
                [
                    PStar(PNode(column.name, [PAtomic(column.type_name)]))
                    for column in table.columns
                ],
            )
            library.define(
                table.name,
                PNode("rows", [PStar(row_pattern)], collection="set"),
            )
            library.define(f"{table.name}_row", row_pattern)
        return library
