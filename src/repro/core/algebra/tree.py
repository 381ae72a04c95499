"""The ``Tree`` operator: rebuild nested XML from a ``Tab``.

"The Tree operator is applied on Tab structures and returns a collection
of trees conforming to some input pattern" (paper, Section 3.1,
Figure 4).  It captures the restructuring semantics of the ``MAKE``
clause: grouping (the ``*($a)`` primitive), sorting, Skolem-function
identifiers and references.

Constructor vocabulary
----------------------

=====================  ======================================================
:class:`CElem`         build one element; optionally identified by a Skolem
                       function of some expressions
:class:`CLeaf`         build one atom leaf from an expression (omitted when
                       the expression evaluates to ``MISSING``)
:class:`CValue`        splice the value of an expression: a tree is inserted
                       as a child, a collection is spliced item by item,
                       an atom is wrapped in a ``<value>`` leaf
:class:`CGroup`        the grouping primitive ``*(e1, ..., en)``: partition
                       the current rows by the expressions' values and
                       build the child once per group
:class:`CIterate`      build the child once per (distinct) row, optionally
                       sorted
:class:`CRef`          build a reference node to a Skolem-identified tree
=====================  ======================================================

A full ``Tree`` application is :func:`construct`: given a Tab, a root
constructor and a :class:`~repro.core.algebra.skolem.SkolemRegistry`, it
returns the constructed tree with *object fusion* applied — constructors
that produce the same Skolem identifier are merged into one node.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import AlgebraError
from repro.core.algebra.expressions import Expr
from repro.core.algebra.skolem import SkolemRegistry
from repro.core.algebra.tab import Row, Tab, _cell_key
from repro.model.filters import MISSING, MissingValue
from repro.model.node import Node
from repro.model.trees import DataNode


class Constructor(Node):
    """Base class of ``Tree`` constructor nodes (immutable)."""

    __slots__ = ()

    def walk(self) -> Iterator["Constructor"]:
        yield self
        for child in self.parts(Constructor):
            yield from child.walk()

    def variables(self) -> Tuple[str, ...]:
        """All Tab columns read anywhere in this constructor subtree."""
        seen: List[str] = []
        for node in self.walk():
            for expr in node.parts(Expr):
                for name in expr.variables():
                    if name not in seen:
                        seen.append(name)
        return tuple(seen)


class CElem(Constructor):
    """Build an element node, optionally Skolem-identified.

    ``skolem`` is a ``(function_name, [expressions])`` pair: the
    expressions are evaluated on the current representative row and passed
    to the Skolem function to obtain the node's identifier.
    """

    __slots__ = ("label", "children", "skolem")

    def __init__(
        self,
        label: str,
        children: Sequence[Constructor] = (),
        skolem: Optional[Tuple[str, Sequence[Expr]]] = None,
    ) -> None:
        self.label = label
        self.children = tuple(children)
        self.skolem = (skolem[0], tuple(skolem[1])) if skolem else None


class CLeaf(Constructor):
    """Build a labelled field ``<label>value</label>`` from an expression.

    This is the ``label: $v`` form of a MAKE clause.  Atoms become atom
    leaves; a bound subtree is re-labelled under *label*; a bound
    collection (e.g. ``more: $fields``) becomes an element whose children
    are the collection's items; ``MISSING`` produces nothing.
    """

    __slots__ = ("label", "expr")

    def __init__(self, label: str, expr: Expr) -> None:
        self.label = label
        self.expr = expr


class CValue(Constructor):
    """Splice the expression's value into the parent's child list."""

    __slots__ = ("expr",)

    def __init__(self, expr: Expr) -> None:
        self.expr = expr


class CGroup(Constructor):
    """The grouping primitive ``*(e1, ..., en)`` of Figure 4.

    Partitions the current rows by the expression values; the child
    constructor is built once per group, over the group's rows.
    """

    __slots__ = ("by", "child")

    def __init__(self, by: Sequence[Expr], child: Constructor) -> None:
        self.by = tuple(by)
        self.child = child


class CIterate(Constructor):
    """Build the child once per row (distinct by default, optionally sorted)."""

    __slots__ = ("child", "distinct", "order_by", "descending")

    def __init__(
        self,
        child: Constructor,
        distinct: bool = True,
        order_by: Sequence[Expr] = (),
        descending: bool = False,
    ) -> None:
        self.child = child
        self.distinct = distinct
        self.order_by = tuple(order_by)
        self.descending = descending


class CNest(Constructor):
    """Build the child over the rows nested in a column.

    After a ``Group`` operator, each row holds a collection of sub-rows in
    one column; ``CNest(column, child)`` evaluates *child* over those
    sub-rows (each extended with the parent row's columns, so grouping
    keys stay visible).  This is what lets a ``Tree`` with grouping be
    decomposed into ``Group`` + a grouping-free ``Tree`` (paper,
    Section 5.2: "a Tree can be rewritten as sequence of Group, Sort and
    nested Map operations").
    """

    __slots__ = ("column", "child")

    def __init__(self, column: str, child: Constructor) -> None:
        self.column = column
        self.child = child

    def variables(self) -> Tuple[str, ...]:
        # The nested rows supply the child's variables; from the outer
        # Tab's point of view only the nested column is consumed.
        return (self.column,)


class CRef(Constructor):
    """Build a reference node ``<label ref=...>`` to a Skolem identifier."""

    __slots__ = ("label", "function", "args")

    def __init__(self, label: str, function: str, args: Sequence[Expr]) -> None:
        self.label = label
        self.function = function
        self.args = tuple(args)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

class _MutableNode:
    """Node under construction: children stay mutable until freezing."""

    __slots__ = ("label", "ident", "children")

    def __init__(self, label: str, ident: Optional[str]) -> None:
        self.label = label
        self.ident = ident
        self.children: List[object] = []  # _MutableNode | DataNode


def construct(
    tab: Tab,
    root: Constructor,
    skolems: Optional[SkolemRegistry] = None,
    functions: Optional[dict] = None,
) -> DataNode:
    """Apply ``Tree``: build the tree described by *root* over *tab*.

    Nodes sharing a Skolem identifier are fused (their children are
    concatenated, structural duplicates removed), implementing the
    object-fusion semantics of Skolem functions.
    """
    if not isinstance(root, CElem):
        raise AlgebraError("the root of a Tree constructor must be a CElem")
    skolems = skolems if skolems is not None else SkolemRegistry()
    builder = _Builder(skolems, functions or {})
    rows = list(tab.rows)
    nodes = builder.build(root, rows)
    if len(nodes) != 1:
        raise AlgebraError(
            f"root constructor produced {len(nodes)} nodes; expected exactly 1"
        )
    node = nodes[0]
    if not isinstance(node, _MutableNode):
        raise AlgebraError("root constructor must build an element")
    return builder.freeze(node)


class _Builder:
    def __init__(self, skolems: SkolemRegistry, functions: dict) -> None:
        self._skolems = skolems
        self._functions = functions
        self._by_ident: Dict[str, _MutableNode] = {}

    # -- construction --------------------------------------------------------

    def build(self, spec: Constructor, rows: List[Row]) -> List[object]:
        """Build *spec* over *rows*; returns mutable nodes and/or DataNodes."""
        if isinstance(spec, CElem):
            return self._build_elem(spec, rows)
        if isinstance(spec, CLeaf):
            return self._build_leaf(spec, rows)
        if isinstance(spec, CValue):
            return self._build_value(spec, rows)
        if isinstance(spec, CGroup):
            return self._build_group(spec, rows)
        if isinstance(spec, CIterate):
            return self._build_iterate(spec, rows)
        if isinstance(spec, CNest):
            return self._build_nest(spec, rows)
        if isinstance(spec, CRef):
            return self._build_ref(spec, rows)
        raise AlgebraError(f"unknown constructor: {spec!r}")

    def _representative(self, rows: List[Row], spec: Constructor) -> Optional[Row]:
        if rows:
            return rows[0]
        return None

    def _build_elem(self, spec: CElem, rows: List[Row]) -> List[object]:
        ident = None
        if spec.skolem is not None:
            row = self._representative(rows, spec)
            if row is None:
                return []
            name, exprs = spec.skolem
            args = tuple(expr.evaluate(row, self._functions) for expr in exprs)
            ident = self._skolems.ident(name, args)
            existing = self._by_ident.get(ident)
            if existing is not None:
                # Object fusion: contribute children to the existing node.
                for child_spec in spec.children:
                    existing.children.extend(self.build(child_spec, rows))
                return []  # already emitted elsewhere
        node = _MutableNode(spec.label, ident)
        if ident is not None:
            self._by_ident[ident] = node
        for child_spec in spec.children:
            node.children.extend(self.build(child_spec, rows))
        return [node]

    def _build_leaf(self, spec: CLeaf, rows: List[Row]) -> List[object]:
        row = self._representative(rows, spec)
        if row is None:
            return []
        value = spec.expr.evaluate(row, self._functions)
        if isinstance(value, MissingValue):
            return []
        if isinstance(value, DataNode):
            if value.is_atom_leaf:
                value = value.atom
            else:
                # A structured value under a field label: relabel the tree.
                return [DataNode(spec.label, children=value.children,
                                 collection=value.collection)]
        if isinstance(value, tuple):
            # A bound collection: its items become the field's children.
            children = [
                child
                for item in value
                for child in self._splice(item)
                if isinstance(child, DataNode)
            ]
            return [DataNode(spec.label, children=children)]
        return [DataNode(spec.label, atom=value)]

    def _build_value(self, spec: CValue, rows: List[Row]) -> List[object]:
        row = self._representative(rows, spec)
        if row is None:
            return []
        value = spec.expr.evaluate(row, self._functions)
        return list(self._splice(value))

    def _splice(self, value: object) -> Iterator[object]:
        if isinstance(value, MissingValue):
            return
        if isinstance(value, DataNode):
            yield value
            return
        if isinstance(value, tuple):
            for item in value:
                yield from self._splice(item)
            return
        yield DataNode("value", atom=value)

    def _build_group(self, spec: CGroup, rows: List[Row]) -> List[object]:
        groups: Dict[tuple, List[Row]] = {}
        order: List[tuple] = []
        for row in rows:
            key = tuple(
                _cell_key(expr.evaluate(row, self._functions)) for expr in spec.by
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(row)
        result: List[object] = []
        for key in order:
            result.extend(self.build(spec.child, groups[key]))
        return result

    def _build_iterate(self, spec: CIterate, rows: List[Row]) -> List[object]:
        selected = rows
        if spec.distinct:
            relevant = spec.child.variables()
            seen = set()
            selected = []
            for row in rows:
                key = tuple(_cell_key(row.get(name, MISSING)) for name in relevant)
                if key not in seen:
                    seen.add(key)
                    selected.append(row)
        if spec.order_by:
            def sort_key(row: Row):
                return tuple(
                    _orderable(expr.evaluate(row, self._functions))
                    for expr in spec.order_by
                )

            selected = sorted(selected, key=sort_key, reverse=spec.descending)
        result: List[object] = []
        for row in selected:
            result.extend(self.build(spec.child, [row]))
        return result

    def _build_nest(self, spec: CNest, rows: List[Row]) -> List[object]:
        result: List[object] = []
        for row in rows:
            nested = row[spec.column]
            if not isinstance(nested, tuple):
                raise AlgebraError(
                    f"CNest column ${spec.column} does not hold nested rows"
                )
            scoped: List[Row] = []
            parent_columns = tuple(
                c for c in row.columns if c != spec.column
            )
            parent_cells = tuple(row[c] for c in parent_columns)
            for sub in nested:
                if not isinstance(sub, Row):
                    raise AlgebraError(
                        f"CNest column ${spec.column} holds non-row items"
                    )
                extra_columns = tuple(
                    c for c in parent_columns if c not in sub.columns
                )
                extra_cells = tuple(
                    parent_cells[parent_columns.index(c)] for c in extra_columns
                )
                scoped.append(sub.extended(extra_columns, extra_cells))
            result.extend(self.build(spec.child, scoped))
        return result

    def _build_ref(self, spec: CRef, rows: List[Row]) -> List[object]:
        row = self._representative(rows, spec)
        if row is None:
            return []
        args = tuple(expr.evaluate(row, self._functions) for expr in spec.args)
        ident = self._skolems.ident(spec.function, args)
        return [DataNode(spec.label, ref_target=ident)]

    # -- freezing -------------------------------------------------------------

    def freeze(self, node: _MutableNode) -> DataNode:
        """Turn the mutable construction into immutable DataNodes.

        Structural duplicates among a fused node's children are removed,
        preserving first-occurrence order.
        """
        frozen_children: List[DataNode] = []
        for child in node.children:
            if isinstance(child, _MutableNode):
                frozen_children.append(self.freeze(child))
            else:
                frozen_children.append(child)
        if node.ident is not None:
            deduped: List[DataNode] = []
            seen = set()
            for child in frozen_children:
                key = child._value_key()
                if key not in seen:
                    seen.add(key)
                    deduped.append(child)
            frozen_children = deduped
        return DataNode(node.label, children=frozen_children, ident=node.ident)


def _orderable(value: object) -> object:
    if isinstance(value, DataNode) and value.is_atom_leaf:
        value = value.atom
    if isinstance(value, MissingValue):
        return (0, "")
    if isinstance(value, bool):
        return (1, value)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))
