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
* :data:`~repro.model.filters.MISSING` — an absent cell: a wire cell
  marked missing or absent (:func:`element_to_tab`), a key missing from
  :meth:`Tab.from_dicts`'s dicts, or ``Tree``'s absent-column default.

Tabs are the unit of exchange between wrappers and the mediator: a pushed
``Bind`` returns a Tab serialized in XML, and
:func:`tab_to_xml`/:func:`xml_to_tab` define that wire format.

A Tab is stored one way only: parallel per-column cell arrays.  Wrappers
build their answers as columns, every evaluator operator reads and
writes columns, and transfer accounting prices columns.  A :class:`Row`
is a view of one position, built on demand and cached, for the consumers
that read row by row: ``Tree`` construction, the XML encoder, ``Group``'s
nested cells, the ``serial()`` oracle's per-row loops and the public API.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from itertools import chain
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import AlgebraError, UnknownVariableError, XmlFormatError
from repro.model.filters import MISSING, MissingValue
from repro.model.trees import DataNode
from repro.model.values import atom_type_name, is_atom, parse_atom
from repro.model.xml_io import (
    decode_atom_text,
    element_to_tree,
    element_size,
    encode_atom_text,
    escaped_attr_size,
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
        #: order; the values are what a wrapper inlines.
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
    """A ¬1NF relation: named columns over parallel per-column cell arrays.

    The column arrays are the only storage.  :attr:`rows` is a view of
    them, one :class:`Row` per position, built on first row-wise access
    and cached; nothing on the optimized path asks for it.
    """

    __slots__ = ("_columns", "_cols", "_length", "_view", "_ssize")

    def __init__(self, columns: Sequence[str], rows: Iterable[Row] = ()) -> None:
        columns, _ = _column_map(columns)
        rows = tuple(rows)
        for row in rows:
            if row.columns is not columns and row.columns != columns:
                raise AlgebraError(
                    f"row columns {row.columns} do not match tab columns {columns}"
                )
        self._columns = columns
        self._cols = (
            tuple(zip(*(row.cells for row in rows))) if rows
            else ((),) * len(columns)
        )
        self._length = len(rows)
        # The given rows are exactly the view this Tab would build.
        self._view = rows
        # Serialized byte size, cached by ``tab_serialized_size`` — a
        # wrapper-cached pushed result is re-measured on every hit.
        self._ssize = None

    @classmethod
    def from_dicts(cls, columns: Sequence[str], dicts: Iterable[dict]) -> "Tab":
        """Build a Tab from dictionaries (missing keys become MISSING)."""
        dicts = list(dicts)
        return cls.from_columns(
            columns,
            [tuple(d.get(c, MISSING) for d in dicts) for c in columns],
            len(dicts),
        )

    @classmethod
    def from_tuples(cls, columns: Sequence[str], tuples: Sequence[tuple]) -> "Tab":
        """Build a Tab from one cell tuple per row, transposed once."""
        data = tuple(zip(*tuples)) if tuples else ((),) * len(columns)
        return cls.from_columns(columns, data, len(tuples))

    @classmethod
    def from_columns(
        cls,
        columns: Sequence[str],
        column_data: Sequence[Sequence[Cell]],
        length: int = None,
    ) -> "Tab":
        """Build a Tab from parallel per-column cell arrays.

        All columns must share one length (pass *length* explicitly for
        the zero-column edge case).
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
        tab._cols = cols
        tab._length = length
        tab._view = None
        tab._ssize = None
        return tab

    @classmethod
    def concat(cls, columns: Sequence[str], tabs: Sequence["Tab"]) -> "Tab":
        """The bag concatenation of *tabs*, each projected onto *columns*."""
        columns = tuple(columns)
        tabs = [tab if tab.columns == columns else tab.project(columns) for tab in tabs]
        if len(tabs) == 1:
            return tabs[0]
        return cls.from_columns(
            columns,
            [
                tuple(chain.from_iterable(tab._cols[i] for tab in tabs))
                for i in range(len(columns))
            ],
            sum(tab._length for tab in tabs),
        )

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._columns

    @property
    def rows(self) -> Tuple[Row, ...]:
        """The row view: one :class:`Row` per position (built once)."""
        view = self._view
        if view is None:
            columns = self._columns
            if self._cols:
                view = tuple(Row(columns, cells) for cells in zip(*self._cols))
            else:
                view = tuple(Row(columns, ()) for _ in range(self._length))
            self._view = view
        return view

    def column_data(self) -> Tuple[Tuple[Cell, ...], ...]:
        """The parallel per-column cell arrays."""
        return self._cols

    def column(self, name: str) -> Tuple[Cell, ...]:
        """One column's cells, by name."""
        index = _column_map(self._columns)[1].get(name)
        if index is None:
            raise UnknownVariableError(
                f"unknown variable ${name}; tab has {list(self._columns)}"
            )
        return self._cols[index]

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        # Row equality, column by column: ``_cell_key`` keeps 1, 1.0 and
        # True apart, which ``==`` on the arrays would not.
        if not isinstance(other, Tab):
            return NotImplemented
        return (
            self._columns == other._columns
            and self._length == other._length
            and all(
                list(map(_cell_key, mine)) == list(map(_cell_key, theirs))
                for mine, theirs in zip(self._cols, other._cols)
            )
        )

    def __repr__(self) -> str:
        return f"Tab({list(self._columns)}, {self._length} rows)"

    # -- algebra-support helpers -------------------------------------------

    def row_keys(self) -> List[tuple]:
        """One structural key per row: what :class:`Row` equality compares
        within a Tab."""
        if not self._cols:
            return [()] * self._length
        return [tuple(map(_cell_key, cells)) for cells in zip(*self._cols)]

    def take(self, positions: Sequence[int]) -> "Tab":
        """The rows at *positions*, in that order (repeats allowed)."""
        return Tab.from_columns(
            self._columns,
            [tuple(column[i] for i in positions) for column in self._cols],
            len(positions),
        )

    def project(self, columns: Sequence[str]) -> "Tab":
        """Restrict every row to *columns* (order preserved as given)."""
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

    def rename(self, mapping: dict) -> "Tab":
        """Rename columns through *mapping* (old -> new)."""
        renamed = tuple(mapping.get(c, c) for c in self._columns)
        return Tab.from_columns(renamed, self._cols, self._length)

    def distinct(self) -> "Tab":
        """Remove duplicate rows (structural value equality)."""
        seen = set()
        keep: List[int] = []
        for index, key in enumerate(self.row_keys()):
            if key not in seen:
                seen.add(key)
                keep.append(index)
        if len(keep) == self._length:
            return self
        return self.take(keep)

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
    """A reusable Row-shaped view over one position of a Tab.

    Select, Map and the joins evaluate predicates and keys against this
    cursor instead of a Row per position: :meth:`seek` moves the view,
    ``__getitem__``/``__contains__`` behave exactly like the Row they
    stand in for.  Optional *outer* provides the correlation overlay
    (DJoin outer bindings) consulted for columns the Tab does not carry.
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
    data: List[list] = [[] for _ in columns]
    length = 0
    for row_el in root:
        if row_el.tag != "row":
            raise XmlFormatError(f"expected <row>, got <{row_el.tag}>")
        cells = {}
        for cell_el in row_el:
            var = cell_el.get("var")
            if var is None:
                raise XmlFormatError("<cell> requires a var attribute")
            cells[var] = _element_to_cell(cell_el)
        for column, name in zip(data, columns):
            column.append(cells.get(name, MISSING))
        length += 1
    return Tab.from_columns(columns, data, length)


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


def _cell_tail_size(cell: Cell) -> int:
    """Bytes of one ``<cell>``/``<item>`` element after its opening
    ``<cell var="..."`` or ``<item``.

    Mirrors :func:`_cell_into_element`.  Both tags are four bytes long,
    so closing either costs ``>`` + ``</cell>``: 8 bytes plus content.
    """
    if isinstance(cell, DataNode):
        return serialized_size(cell) + 8
    if isinstance(cell, MissingValue):
        return 18  # ' missing="true" />'
    if isinstance(cell, tuple):
        items = 0
        for item in cell:
            items += 5 + _cell_tail_size(item)  # '<item' ...
        # ' kind="coll">' '<coll>' ... '</coll>' (or '<coll />') '</cell>'
        return 12 + (items + 13 if cell else 8) + 8
    if is_atom(cell):
        text, encoding = encode_atom_text(cell)
        size = 8 + len(atom_type_name(cell))  # ' type="String"'
        if encoding is not None:
            size += 10  # ' enc="b64"'
        return size + (escaped_text_size(text) + 8 if text else 3)
    raise XmlFormatError(f"cannot serialize cell: {cell!r}")


def tab_serialized_size(tab: Tab) -> int:
    """UTF-8 byte size of the Tab's XML serialization (transfer cost).

    Computed arithmetically, column by column, instead of materializing
    the XML string: each column pays its ``<cell var="...">`` prefix once
    per row, each cell its type attribute and escaped text, and a tree
    cell its cached ``serialized_size``.  No :class:`Row` is built.  Kept
    byte-for-byte consistent with ``len(tab_to_xml(tab).encode())``
    (a generated property checks the two).  Cached on the (immutable)
    Tab, so a pushed result served from a wrapper memo is measured once.
    """
    cached = tab._ssize
    if cached is not None:
        return cached
    size = _compute_tab_serialized_size(tab)
    tab._ssize = size
    return size


def _compute_tab_serialized_size(tab: Tab) -> int:
    length = len(tab)
    columns = tab.columns
    # '<row>' ... '</row>' around each row's cells; '<row />' without any.
    rows_size = length * (11 if columns else 7)
    for column, cells in zip(columns, tab.column_data()):
        rows_size += length * (12 + escaped_attr_size(column))  # '<cell var="c"'
        rows_size += sum(map(_cell_tail_size, cells))
    return element_size(
        "tab", (("columns", " ".join(columns)),), rows_size if length else None
    )
