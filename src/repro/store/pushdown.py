"""Translating Bind filters into SQL interval self-joins.

The store keeps every node's pre-order position and half-open subtree
interval ``[pre, post)``, so the structural axes of a filter are single
range predicates instead of recursive walks::

    child of s            t.parent = s.pre
    strict descendant     s.pre < t.pre AND t.pre < s.post
    descendant-or-self    s.pre <= t.pre AND t.pre < s.post

:func:`compile_pushdown` walks a filter once and emits one table alias
per structural filter node, ``AND``-ing the axis predicates together —
the classic interval self-join of the relational XML mappings.  The
result is **binding tuples**, not documents: the mediator never sees
nodes the query did not touch.

Byte-identical parity with the recursive matcher
------------------------------------------------

The compiled query must reproduce :class:`repro.core.algebra.bind
.FilterMatcher` exactly — rows, duplicates *and enumeration order* —
because the differential fuzz compares serialized answers byte for
byte.  Three observations carry the proof:

* The matcher enumerates each element's items with ``itertools.product``
  (first item slowest, last fastest) and each item's alternatives in
  child pre order, recursively.  Unfolding the recursion, bindings are
  produced in lexicographic order of the matched nodes' pre positions,
  taken in DFS order of the filter's structural nodes.  Aliases are
  created in exactly that DFS order, so ``ORDER BY a0.pre, a1.pre, ...``
  reproduces the enumeration (the order is total: two distinct rows
  differ at some alias, and pre positions are unique within a document).
* A ``**`` step under an element ``s`` pairs each child of ``s`` with
  that child's descendants-or-self; every strict descendant of ``s`` is
  reached through exactly one child, so one strict-descendant alias is
  a bijection — same rows, same duplicates.  Nested ``**`` steps are
  *not* bijective (the matcher re-reaches a node once per intermediate
  anchor); the intermediate alias stays in the join and in ``ORDER BY``
  to reproduce that multiplicity exactly.
* An element filter with one bare variable/constant item matches leaf
  *content* when the node is an atom leaf but a *child* when it is an
  element.  One alias covers both runtime shapes with
  ``(g.parent = s.pre OR (s.kind = 'atom' AND g.pre = s.pre))``.

Anything outside the provable fragment — label variables or regexes,
``FRest`` (needs the unclaimed-sibling set), numeric constants whose
REAL key is lossy — falls back to a hydrated scan through the matcher
itself: :func:`compile_pushdown` returns ``None`` for the structural
cases, and :meth:`PushdownQuery.bind_params` for a query parameter whose bound
value is lossy (the SQL text is one per filter; only its ``?`` values
come from the request).

One divergence is accepted and documented in DESIGN.md: the matcher's
cartesian-explosion guard can fire while enumerating an element whose
*later* sibling item turns out unmatched, where SQL simply returns no
rows.  The common case — more than ``max_matches`` result rows — raises
the byte-identical :class:`~repro.errors.BindError` from the bounded
fetch instead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.algebra.expressions import Param, atom_kind, bound
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    Filter,
    FRest,
    FStar,
    FVar,
)


class PushdownQuery:
    """A compiled interval self-join for one filter.

    ``sql`` selects, for every filter variable in document order, the
    four columns ``(pre, kind, vtype, value)`` of the matched node —
    enough to decode an atom binding without touching the store again,
    and to hydrate a subtree binding lazily from its ``pre``.  The first
    bind parameter is always the document name; the rest are ``params``,
    where a query parameter stands for the value each request binds
    (:meth:`bind_params`).
    """

    __slots__ = ("sql", "params", "variables")

    def __init__(
        self, sql: str, params: Tuple[object, ...], variables: Tuple[str, ...]
    ) -> None:
        self.sql = sql
        self.params = params
        self.variables = variables

    def bind_params(self, document: str) -> Optional[Tuple[object, ...]]:
        """*document* and ``params``, the active request's constants
        bound; ``None`` when a bound numeric constant's REAL key is lossy
        (the wrapper then scans)."""
        values = [document]
        for param in self.params:
            if param.__class__ is Param:
                value = bound(param)
                if param.kind is not str:
                    value = _real_key(value)
                    if value is None:
                        return None
                param = value
            values.append(param)
        return tuple(values)

    def __repr__(self) -> str:
        return f"PushdownQuery({len(self.variables)} vars: {self.sql})"


class _Abort(Exception):
    """The filter left the translatable fragment; fall back to a scan."""


class _Compiler:
    def __init__(self, table: str) -> None:
        self._table = table
        self.aliases: List[str] = []
        self.conditions: List[str] = []
        self.params: List[object] = []
        self.var_alias: dict = {}

    def alias(self) -> str:
        name = f"n{len(self.aliases)}"
        self.aliases.append(name)
        return name

    def bind(self, var: str, alias: str) -> None:
        if var in self.var_alias:
            raise _Abort()
        self.var_alias[var] = alias

    # -- filter walk (one alias per structural node, DFS order) ----------------

    def root(self, flt: Filter) -> None:
        if isinstance(flt, FElem):
            anchor = self.alias()
            self.conditions.append(f"{anchor}.doc = ?")
            self.conditions.append(f"{anchor}.pre = 0")
            self.element(anchor, flt)
        elif isinstance(flt, FDescend):
            # Descendant-or-self of the document root: every node.
            anchor = self.alias()
            self.conditions.append(f"{anchor}.doc = ?")
            self.apply(anchor, flt.child)
        else:
            raise _Abort()

    def apply(self, alias: str, flt: Filter) -> None:
        """Constrain *alias* to nodes the filter matches at that point."""
        if isinstance(flt, FElem):
            self.element(alias, flt)
        elif isinstance(flt, FVar):
            self.bind(flt.name, alias)
        elif isinstance(flt, FConst):
            self.constant(alias, flt.value)
        elif isinstance(flt, FDescend):
            self.descend(alias, flt, strict=False)
        else:
            raise _Abort()

    def element(self, alias: str, flt: FElem) -> None:
        if not isinstance(flt.label, str):
            raise _Abort()  # label variables/regexes stay mediator-side
        self.conditions.append(f"{alias}.name = ?")
        self.params.append(flt.label)
        if flt.var is not None:
            self.bind(flt.var, alias)
        items = flt.children
        if not items:
            return
        if len(items) == 1 and isinstance(items[0], (FVar, FConst)):
            self.leaf_or_child(alias, items[0])
            return
        for item in items:
            if isinstance(item, FRest):
                raise _Abort()  # needs the unclaimed-sibling set
            target = item.child if isinstance(item, FStar) else item
            self.item(alias, target)

    def leaf_or_child(self, alias: str, item: Filter) -> None:
        """One bare variable/constant item: leaf content *or* a child.

        Atom leaves have no child rows, so the parent disjunct is vacuous
        for them and the self disjunct is vacuous for elements — exactly
        one disjunct fires per runtime shape, like the matcher's
        ``_match_leaf_content`` / ``_match_children`` split.

        The disjunction itself is unindexable, so both disjuncts' implied
        subtree bounds (``pre >= parent.pre AND pre < parent.post``) are
        stated explicitly: sqlite then drives the join through the
        ``(doc, pre)`` primary key — an interval probe — and applies the
        disjunction as a residual filter over that tiny range.
        """
        item_alias = self.alias()
        self.conditions.append(f"{item_alias}.doc = {alias}.doc")
        self.conditions.append(f"{item_alias}.pre >= {alias}.pre")
        self.conditions.append(f"{item_alias}.pre < {alias}.post")
        self.conditions.append(
            f"({item_alias}.parent = {alias}.pre"
            f" OR ({alias}.kind = 'atom' AND {item_alias}.pre = {alias}.pre))"
        )
        if isinstance(item, FVar):
            self.bind(item.name, item_alias)
        else:
            self.constant(item_alias, item.value)

    def item(self, alias: str, target: Filter) -> None:
        if isinstance(target, FDescend):
            self.descend(alias, target, strict=True)
            return
        item_alias = self.alias()
        self.conditions.append(f"{item_alias}.doc = {alias}.doc")
        # The implied interval bound gives the planner an indexable
        # alternative to the parent-equality join (same rows: children
        # are strict descendants).
        self.conditions.append(f"{item_alias}.pre > {alias}.pre")
        self.conditions.append(f"{item_alias}.pre < {alias}.post")
        self.conditions.append(f"{item_alias}.parent = {alias}.pre")
        if isinstance(target, FElem):
            self.element(item_alias, target)
        elif isinstance(target, FVar):
            self.bind(target.name, item_alias)
        elif isinstance(target, FConst):
            self.constant(item_alias, target.value)
        else:
            raise _Abort()

    def descend(self, scope: str, flt: FDescend, strict: bool) -> None:
        descendant = self.alias()
        self.conditions.append(f"{descendant}.doc = {scope}.doc")
        comparison = ">" if strict else ">="
        self.conditions.append(f"{descendant}.pre {comparison} {scope}.pre")
        self.conditions.append(f"{descendant}.pre < {scope}.post")
        self.apply(descendant, flt.child)

    def constant(self, alias: str, value: object) -> None:
        self.conditions.append(f"{alias}.kind = 'atom'")
        if atom_kind(value) is str:
            # String equality never crosses types; match on the stored text.
            self.conditions.append(f"{alias}.vtype = 'String'")
            self.conditions.append(f"{alias}.value = ?")
        else:
            # Numerics compare through the REAL key, which the store only
            # populates for exactly-representable values; a constant whose
            # own key is lossy cannot be matched faithfully in SQL.  A
            # query parameter's key is taken when a request binds it.
            self.conditions.append(f"{alias}.num = ?")
            if value.__class__ is not Param:
                value = _real_key(value)
                if value is None:
                    raise _Abort()
        self.params.append(value)


def _real_key(value) -> Optional[float]:
    """The store's REAL key of a numeric constant, ``None`` if lossy."""
    try:
        key = float(value)
    except OverflowError:
        return None
    if key != key or key != value:
        return None
    return key


def compile_pushdown(flt: Filter, table: str = "nodes") -> Optional[PushdownQuery]:
    """Compile *flt* into an interval self-join, or ``None`` to scan."""
    variables = tuple(flt.variables())
    if len(set(variables)) != len(variables):
        return None
    compiler = _Compiler(table)
    try:
        compiler.root(flt)
    except _Abort:
        return None
    if set(compiler.var_alias) != set(variables):
        return None
    select = []
    for var in variables:
        alias = compiler.var_alias[var]
        select.extend(
            (f"{alias}.pre", f"{alias}.kind", f"{alias}.vtype", f"{alias}.value")
        )
    if not select:  # variable-free filter: row count still matters
        select.append(f"{compiler.aliases[0]}.pre")
    sql = (
        "SELECT "
        + ", ".join(select)
        + " FROM "
        + ", ".join(f"{table} {alias}" for alias in compiler.aliases)
        + " WHERE "
        + " AND ".join(compiler.conditions)
        + " ORDER BY "
        + ", ".join(f"{alias}.pre" for alias in compiler.aliases)
    )
    return PushdownQuery(sql, tuple(compiler.params), variables)
