"""The ``Tab`` structure: a ¬1NF relation over variable bindings.

"Starting from an arbitrary XML structure, we apply an operator, called
Bind, whose purpose is to extract the relevant information and produce a
structure, called Tab, comparable to a ¬1NF relation" (paper, Section 3.1).

A :class:`Tab` has named columns (the filter variables, without the ``$``
sigil) and rows of cells.  A cell holds:

* an atom (``int``/``float``/``str``/``bool``) — a bound leaf value,
* a :class:`~repro.model.trees.DataNode` — a bound subtree,
* a tuple of cells — a bound *collection* (edge variables like
  ``$fields`` in Figure 4, or the output of ``Group``),
* :data:`~repro.model.filters.MISSING` — an optional item that matched
  nothing.

Tabs are the unit of exchange between wrappers and the mediator: a pushed
``Bind`` returns a Tab serialized in XML, and
:func:`tab_to_xml`/:func:`xml_to_tab` define that wire format.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import AlgebraError, UnknownVariableError, XmlFormatError
from repro.model.filters import MISSING, MissingValue
from repro.model.trees import DataNode
from repro.model.values import atom_type_name, is_atom, parse_atom
from repro.model.xml_io import (
    decode_atom_text,
    element_to_tree,
    element_size,
    encode_atom_text,
    escaped_text_size,
    serialized_size,
    tree_to_element,
)

Cell = object  # Atom | DataNode | tuple | MissingValue

#: Bounded process-wide memo of column shapes.  Keyed by the columns
#: tuple itself; the value is ``(interned_tuple, {name: position})`` so
#: every Row/Tab of the same shape shares one tuple and one position map
#: (O(1) column probes instead of ``tuple.index``'s O(n) scan).
#:
#: Deliberately a bare dict, not a :class:`repro.memo.Memo`: it is probed
#: lock-free inside every Row/Tab constructor and holds 4-31 shapes of
#: 4,096 on every benchmark workload, so a locked recency update here
#: would be pure cost.  It is cleared wholesale if it ever fills.
_COLUMN_MAP_CAPACITY = 4096
_COLUMN_MAPS: dict = {}
_column_map_evictions = 0


def _column_map(columns: Sequence[str]) -> Tuple[Tuple[str, ...], dict]:
    global _column_map_evictions
    columns = tuple(columns)
    entry = _COLUMN_MAPS.get(columns)
    if entry is None:
        if len(_COLUMN_MAPS) >= _COLUMN_MAP_CAPACITY:
            _column_map_evictions += len(_COLUMN_MAPS)
            _COLUMN_MAPS.clear()
        positions: dict = {}
        for index, name in enumerate(columns):
            # First occurrence wins, matching ``tuple.index`` semantics
            # for (pathological) duplicate column names.
            if name not in positions:
                positions[name] = index
        entry = (columns, positions)
        _COLUMN_MAPS[columns] = entry
    return entry


def column_map_stats() -> dict:
    """Entries/capacity/evictions of the shared column-shape memo.

    Lookups are not counted (the probe is lock-free), so the row carries
    no ``hits``/``misses``.
    """
    return {
        "entries": len(_COLUMN_MAPS),
        "capacity": _COLUMN_MAP_CAPACITY,
        "evictions": _column_map_evictions,
    }


class Row:
    """One row of a :class:`Tab`: an immutable mapping column -> cell."""

    __slots__ = ("_columns", "_cells", "_positions", "_vkey", "_vhash")

    def __init__(self, columns: Sequence[str], cells: Sequence[Cell]) -> None:
        if len(columns) != len(cells):
            raise AlgebraError(
                f"row arity mismatch: {len(columns)} columns, {len(cells)} cells"
            )
        self._columns, self._positions = _column_map(columns)
        self._cells = tuple(cells)
        # Rows are immutable; the structural key and hash are computed at
        # most once per row (distinct(), hash-join probes, set operators
        # all consume them repeatedly).
        self._vkey = None
        self._vhash = None

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._columns

    @property
    def cells(self) -> Tuple[Cell, ...]:
        return self._cells

    def __getitem__(self, column: str) -> Cell:
        index = self._positions.get(column)
        if index is None:
            raise UnknownVariableError(
                f"unknown variable ${column}; row has {list(self._columns)}"
            )
        return self._cells[index]

    def get(self, column: str, default: Cell = None) -> Cell:
        """Like ``dict.get`` over the row's columns."""
        index = self._positions.get(column)
        if index is None:
            return default
        return self._cells[index]

    def __contains__(self, column: str) -> bool:
        return column in self._positions

    def as_dict(self) -> dict:
        """A fresh ``{column: cell}`` dictionary for this row."""
        return dict(zip(self._columns, self._cells))

    def extended(self, columns: Sequence[str], cells: Sequence[Cell]) -> "Row":
        """A new row with extra columns appended."""
        return Row(self._columns + tuple(columns), self._cells + tuple(cells))

    def projected(self, columns: Sequence[str]) -> "Row":
        """A new row restricted to *columns*, in the given order."""
        return Row(tuple(columns), tuple(self[c] for c in columns))

    def renamed(self, mapping: dict) -> "Row":
        """A new row with columns renamed through *mapping* (old -> new)."""
        return Row(
            tuple(mapping.get(c, c) for c in self._columns), self._cells
        )

    def _value_key(self) -> tuple:
        key = self._vkey
        if key is None:
            key = self._vkey = (
                self._columns,
                tuple(_cell_key(cell) for cell in self._cells),
            )
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self) -> int:
        h = self._vhash
        if h is None:
            h = self._vhash = hash(self._value_key())
        return h

    def __repr__(self) -> str:
        pairs = ", ".join(f"${c}={v!r}" for c, v in zip(self._columns, self._cells))
        return f"Row({pairs})"


class BindingSet(Row):
    """The outer row of a *set-valued* pushed call (information passing).

    Stands for every outer row that agrees with this row's own columns
    and whose passed variables take one of ``keys``: the source answers
    with the rows matching **any** key, each once, in its own order, and
    the DJoin re-expands them by key.  ``pairs`` names, per key position,
    the fragment column and the outer variable it is equated with.  A key
    column holds strings only or numbers only, and within one kind the
    source's ``=`` has to agree with the mediator's; what it does across
    the kinds (sqlite coerces by column affinity) the DJoin detects and
    does not rely on.  The passed variables are deliberately *not*
    columns of this row, so a wrapper that does not know about sets fails
    loudly in ``outer_constant`` instead of answering for one key.
    """

    __slots__ = ("pairs", "keys")

    def __init__(self, base, pairs, keys: dict) -> None:
        passed = {variable for _column, variable in pairs}
        columns = tuple(
            c for c in (base.columns if base is not None else ()) if c not in passed
        )
        super().__init__(columns, tuple(base[c] for c in columns))
        #: ``((fragment column, outer variable), ...)``.
        self.pairs = tuple(pairs)
        #: ``{equality key: atom tuple}``, distinct, in first-appearance
        #: order; the dict keys identify the set (call-cache key), the
        #: values are what a wrapper inlines.
        self.keys = keys


def _cell_key(cell: Cell) -> object:
    """Hashable structural key for a cell (used for set semantics)."""
    if isinstance(cell, tuple):
        return ("coll",) + tuple(_cell_key(item) for item in cell)
    if isinstance(cell, DataNode):
        return ("node", cell._value_key())
    if isinstance(cell, MissingValue):
        return ("missing",)
    if isinstance(cell, Row):
        return ("row", cell._value_key())
    return ("atom", type(cell).__name__, cell)


class Tab:
    """A ¬1NF relation: named columns plus a sequence of rows.

    Storage is dual: a Tab holds either materialized :class:`Row` objects
    (the seed representation, still the wire/wrapper format) or parallel
    per-column cell arrays (the vectorized evaluator's batch format, see
    :meth:`from_columns`).  Either side is derived lazily from the other
    and cached — *late materialization*: a columnar Tab only pays for Row
    objects when a row-at-a-time consumer (serialization, tree
    construction, the interpretive oracle) actually iterates it.
    """

    __slots__ = ("_columns", "_rows", "_cols", "_length", "_ssize")

    def __init__(self, columns: Sequence[str], rows: Iterable[Row] = ()) -> None:
        self._columns, _ = _column_map(columns)
        rows = tuple(rows)
        for row in rows:
            if row.columns is not self._columns and row.columns != self._columns:
                raise AlgebraError(
                    f"row columns {row.columns} do not match tab columns {self._columns}"
                )
        self._rows = rows
        self._cols = None
        self._length = len(rows)
        # Serialized byte size, cached by ``tab_serialized_size`` — a
        # wrapper-cached pushed result is re-measured on every hit.
        self._ssize = None

    @classmethod
    def from_dicts(cls, columns: Sequence[str], dicts: Iterable[dict]) -> "Tab":
        """Build a Tab from dictionaries (missing keys become MISSING)."""
        columns = tuple(columns)
        rows = [
            Row(columns, tuple(d.get(c, MISSING) for c in columns)) for d in dicts
        ]
        return cls(columns, rows)

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[str],
        column_data: Sequence[Sequence[Cell]],
        length: int = None,
    ) -> "Tab":
        """Build a columnar Tab from parallel per-column cell arrays.

        No Row objects are created; they materialize lazily on first
        row-wise access.  All columns must share one length (pass
        *length* explicitly for the zero-column edge case).
        """
        tab = cls.__new__(cls)
        tab._columns, _ = _column_map(columns)
        cols = tuple(
            data if type(data) is tuple else tuple(data) for data in column_data
        )
        if len(cols) != len(tab._columns):
            raise AlgebraError(
                f"column data arity mismatch: {len(tab._columns)} columns, "
                f"{len(cols)} arrays"
            )
        if length is None:
            length = len(cols[0]) if cols else 0
        for data in cols:
            if len(data) != length:
                raise AlgebraError(
                    f"ragged column data: expected {length} cells, got {len(data)}"
                )
        tab._rows = None
        tab._cols = cols
        tab._length = length
        tab._ssize = None
        return tab

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._columns

    @property
    def rows(self) -> Tuple[Row, ...]:
        rows = self._rows
        if rows is None:
            columns = self._columns
            if self._cols:
                rows = tuple(Row(columns, cells) for cells in zip(*self._cols))
            else:
                rows = tuple(Row(columns, ()) for _ in range(self._length))
            self._rows = rows
        return rows

    @property
    def is_columnar(self) -> bool:
        """True while the Tab holds only column arrays (no Row objects)."""
        return self._rows is None

    def column_data(self) -> Tuple[Tuple[Cell, ...], ...]:
        """Parallel per-column cell arrays (derived from rows if needed)."""
        cols = self._cols
        if cols is None:
            if self._rows:
                cols = tuple(zip(*(row.cells for row in self._rows)))
            else:
                cols = tuple(() for _ in self._columns)
            self._cols = cols
        return cols

    def column(self, name: str) -> Tuple[Cell, ...]:
        """One column's cells, by name."""
        index = _column_map(self._columns)[1].get(name)
        if index is None:
            raise UnknownVariableError(
                f"unknown variable ${name}; tab has {list(self._columns)}"
            )
        return self.column_data()[index]

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tab):
            return NotImplemented
        return self._columns == other._columns and self.rows == other.rows

    def __repr__(self) -> str:
        return f"Tab({list(self._columns)}, {self._length} rows)"

    # -- algebra-support helpers -------------------------------------------

    def project(self, columns: Sequence[str]) -> "Tab":
        """Restrict every row to *columns* (order preserved as given)."""
        columns = tuple(columns)
        if self._rows is None:
            positions = _column_map(self._columns)[1]
            data = []
            for name in columns:
                index = positions.get(name)
                if index is None:
                    raise UnknownVariableError(
                        f"unknown variable ${name}; row has {list(self._columns)}"
                    )
                data.append(self._cols[index])
            return Tab.from_columns(columns, data, self._length)
        return Tab(columns, [row.projected(columns) for row in self._rows])

    def rename(self, mapping: dict) -> "Tab":
        """Rename columns through *mapping* (old -> new)."""
        renamed = tuple(mapping.get(c, c) for c in self._columns)
        if self._rows is None:
            return Tab.from_columns(renamed, self._cols, self._length)
        return Tab(renamed, [row.renamed(mapping) for row in self._rows])

    def select(self, predicate: Callable[[Row], bool]) -> "Tab":
        """Keep rows satisfying *predicate*."""
        return Tab(self._columns, [row for row in self.rows if predicate(row)])

    def distinct(self) -> "Tab":
        """Remove duplicate rows (structural value equality)."""
        if self._rows is None:
            # Batch-level distinct: structural keys straight off the
            # column arrays, no Row materialization.
            cols = self._cols
            seen = set()
            keep: List[int] = []
            for index, cells in enumerate(zip(*cols) if cols else ()):
                key = tuple(_cell_key(cell) for cell in cells)
                if key not in seen:
                    seen.add(key)
                    keep.append(index)
            if not cols:
                keep = [0] if self._length else []
            if len(keep) == self._length:
                return self
            return Tab.from_columns(
                self._columns,
                tuple(tuple(col[i] for i in keep) for col in cols),
                len(keep),
            )
        seen = set()
        kept: List[Row] = []
        for row in self._rows:
            key = row._value_key()
            if key not in seen:
                seen.add(key)
                kept.append(row)
        return Tab(self._columns, kept)

    def extend(self, columns: Sequence[str], compute: Callable[[Row], Sequence[Cell]]) -> "Tab":
        """Append computed columns to every row."""
        new_columns = self._columns + tuple(columns)
        rows = [row.extended(columns, compute(row)) for row in self.rows]
        return Tab(new_columns, rows)

    def sorted_by(self, key: Callable[[Row], object], reverse: bool = False) -> "Tab":
        """Rows sorted by *key*."""
        return Tab(self._columns, sorted(self.rows, key=key, reverse=reverse))

    def pretty(self, limit: int = 20) -> str:
        """Plain-text table rendering for examples and debugging."""
        header = " | ".join(f"${c}" for c in self._columns)
        lines = [header, "-" * len(header)]
        for row in self.rows[:limit]:
            lines.append(" | ".join(_cell_text(cell) for cell in row.cells))
        if self._length > limit:
            lines.append(f"... ({self._length - limit} more rows)")
        return "\n".join(lines)


class ColumnCursor:
    """A reusable Row-shaped view over one position of a columnar Tab.

    Vectorized Select/Join evaluate predicates against this cursor
    instead of materializing a Row per input position: :meth:`seek` moves
    the view, ``__getitem__``/``get``/``__contains__`` behave exactly
    like the Row they stand in for.  Optional *outer* provides the
    correlation overlay (DJoin outer bindings) consulted for columns the
    batch does not carry.
    """

    __slots__ = ("_columns", "_positions", "_cols", "_outer", "_index")

    def __init__(self, tab: Tab, outer: "Row" = None) -> None:
        self._columns, self._positions = _column_map(tab.columns)
        self._cols = tab.column_data()
        self._outer = outer
        self._index = 0

    def seek(self, index: int) -> "ColumnCursor":
        self._index = index
        return self

    def __getitem__(self, column: str) -> Cell:
        position = self._positions.get(column)
        if position is not None:
            return self._cols[position][self._index]
        if self._outer is not None and column in self._outer:
            return self._outer[column]
        raise UnknownVariableError(
            f"unknown variable ${column}; row has {list(self._columns)}"
        )

    def get(self, column: str, default: Cell = None) -> Cell:
        position = self._positions.get(column)
        if position is not None:
            return self._cols[position][self._index]
        if self._outer is not None:
            return self._outer.get(column, default)
        return default

    def __contains__(self, column: str) -> bool:
        if column in self._positions:
            return True
        return self._outer is not None and column in self._outer


def _cell_text(cell: Cell) -> str:
    if isinstance(cell, DataNode):
        if cell.is_atom_leaf:
            return f"<{cell.label}>{cell.atom}</{cell.label}>"
        return f"<{cell.label}.../> ({len(cell.children)} children)"
    if isinstance(cell, tuple):
        return "{" + ", ".join(_cell_text(item) for item in cell) + "}"
    return repr(cell)


# ---------------------------------------------------------------------------
# XML wire format (wrapper boundary)
# ---------------------------------------------------------------------------

def tab_to_element(tab: Tab) -> ET.Element:
    """Serialize a Tab to its XML wire element.

    Format::

        <tab columns="t a fields">
          <row>
            <cell var="t" type="String">Nympheas</cell>
            <cell var="a" type="String">Claude Monet</cell>
            <cell var="fields"><coll><history>...</history></coll></cell>
          </row>
          ...
        </tab>
    """
    root = ET.Element("tab")
    root.set("columns", " ".join(tab.columns))
    for row in tab.rows:
        row_el = ET.SubElement(root, "row")
        for column, cell in zip(row.columns, row.cells):
            cell_el = ET.SubElement(row_el, "cell")
            cell_el.set("var", column)
            _cell_into_element(cell, cell_el)
    return root


def _cell_into_element(cell: Cell, cell_el: ET.Element) -> None:
    if isinstance(cell, MissingValue):
        cell_el.set("missing", "true")
    elif is_atom(cell):
        cell_el.set("type", atom_type_name(cell))
        text, encoding = encode_atom_text(cell)
        if encoding is not None:
            cell_el.set("enc", encoding)
        cell_el.text = text
    elif isinstance(cell, DataNode):
        cell_el.append(tree_to_element(cell))
    elif isinstance(cell, tuple):
        # The kind attribute distinguishes the collection marker from a
        # tree cell whose root happens to be labelled "coll".
        cell_el.set("kind", "coll")
        coll = ET.SubElement(cell_el, "coll")
        for item in cell:
            item_el = ET.SubElement(coll, "item")
            _cell_into_element(item, item_el)
    else:
        raise XmlFormatError(f"cannot serialize cell: {cell!r}")


def tab_to_xml(tab: Tab) -> str:
    """Serialize a Tab to an XML string."""
    return ET.tostring(tab_to_element(tab), encoding="unicode")


def element_to_tab(root: ET.Element) -> Tab:
    """Parse a Tab wire element back into a :class:`Tab`."""
    if root.tag != "tab":
        raise XmlFormatError(f"expected <tab>, got <{root.tag}>")
    columns_attr = root.get("columns", "")
    columns = tuple(columns_attr.split()) if columns_attr else ()
    rows = []
    for row_el in root:
        if row_el.tag != "row":
            raise XmlFormatError(f"expected <row>, got <{row_el.tag}>")
        cells = {}
        for cell_el in row_el:
            var = cell_el.get("var")
            if var is None:
                raise XmlFormatError("<cell> requires a var attribute")
            cells[var] = _element_to_cell(cell_el)
        rows.append(Row(columns, tuple(cells.get(c, MISSING) for c in columns)))
    return Tab(columns, rows)


def _element_to_cell(cell_el: ET.Element) -> Cell:
    if cell_el.get("missing") == "true":
        return MISSING
    type_name = cell_el.get("type")
    if type_name is not None:
        text = decode_atom_text(cell_el.text or "", cell_el.get("enc"))
        try:
            return parse_atom(type_name, text)
        except ValueError as exc:
            raise XmlFormatError(f"bad cell atom: {exc}") from exc
    children = list(cell_el)
    if (
        len(children) == 1
        and children[0].tag == "coll"
        and cell_el.get("kind") == "coll"
    ):
        items = []
        for item_el in children[0]:
            items.append(_element_to_cell(item_el))
        return tuple(items)
    if len(children) == 1:
        return element_to_tree(children[0])
    raise XmlFormatError("cell must hold an atom, one tree, or one <coll>")


def xml_to_tab(text: str) -> Tab:
    """Parse an XML string into a :class:`Tab`."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlFormatError(f"malformed XML: {exc}") from exc
    return element_to_tab(root)


def _cell_size(tag: str, attrs: list, cell: Cell) -> int:
    """Serialized byte size of one ``<cell>``/``<item>`` element.

    Mirrors :func:`_cell_into_element` structurally, so the arithmetic
    total matches ``len(tab_to_xml(tab).encode())`` byte for byte.
    """
    if isinstance(cell, MissingValue):
        attrs.append(("missing", "true"))
        return element_size(tag, attrs, None)
    if is_atom(cell):
        attrs.append(("type", atom_type_name(cell)))
        text, encoding = encode_atom_text(cell)
        if encoding is not None:
            attrs.append(("enc", encoding))
        content = escaped_text_size(text) if text else None
        return element_size(tag, attrs, content)
    if isinstance(cell, DataNode):
        return element_size(tag, attrs, serialized_size(cell))
    if isinstance(cell, tuple):
        attrs.append(("kind", "coll"))
        items = 0
        for item in cell:
            items += _cell_size("item", [], item)
        coll = element_size("coll", (), items if cell else None)
        return element_size(tag, attrs, coll)
    raise XmlFormatError(f"cannot serialize cell: {cell!r}")


def tab_serialized_size(tab: Tab) -> int:
    """UTF-8 byte size of the Tab's XML serialization (transfer cost).

    Computed arithmetically instead of materializing the XML string —
    this runs for every pushed-fragment result, and on the paper's Q2 it
    was about half the mediator-side execution time.  Kept byte-for-byte
    consistent with ``len(tab_to_xml(tab).encode())`` (tested
    differentially).  Cached on the (immutable) Tab, so a pushed result
    served from a wrapper memo is measured once.
    """
    cached = tab._ssize
    if cached is not None:
        return cached
    size = _compute_tab_serialized_size(tab)
    tab._ssize = size
    return size


def _compute_tab_serialized_size(tab: Tab) -> int:
    rows_size = 0
    for row in tab.rows:
        cells = 0
        for column, cell in zip(row.columns, row.cells):
            cells += _cell_size("cell", [("var", column)], cell)
        rows_size += element_size("row", (), cells if row.cells else None)
    columns_value = " ".join(tab.columns)
    return element_size(
        "tab", (("columns", columns_value),), rows_size if tab.rows else None
    )
