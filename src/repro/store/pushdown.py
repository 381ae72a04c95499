"""Printing a Bind filter's lowering as one SQL interval self-join.

The store keeps every node's pre-order position and half-open subtree
interval ``[pre, post)``.  :func:`compile_pushdown` prints one table
alias ``n<i>`` per step of :func:`~repro.core.algebra.lowering.lower`
and each step's axis as range predicates on its anchor's alias —
``ORDER BY`` every alias's ``pre`` then reproduces the matcher's rows
and enumeration order (the argument is in the lowering's docstring).
The result is **binding tuples**: the mediator never sees nodes the
query did not touch.  A refused lowering, or a query parameter whose
bound value has a lossy REAL key (:meth:`PushdownQuery.bind_params`),
falls back to a hydrated scan.

Every axis states its implied subtree bounds ``s.pre <(=) t.pre <
s.post``, so sqlite drives each join through the ``(doc, pre)`` primary
key — an interval probe — and applies the parent equality or the
leaf-or-child disjunction, unindexable on its own, as a residual filter
over that tiny range.

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
from repro.core.algebra.lowering import (
    CHILD,
    CONSTANT,
    DESCENDANT,
    DESCENDANT_OR_SELF,
    ELEMENT,
    LEAF_OR_CHILD,
    ROOT,
    lower,
    real_key,
)
from repro.model.filters import Filter


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
                    value = real_key(value)
                    if value is None:
                        return None
                param = value
            values.append(param)
        return tuple(values)

    def __repr__(self) -> str:
        return f"PushdownQuery({len(self.variables)} vars: {self.sql})"


#: ``axis -> (lower pre bound, residual predicate)`` of step ``t``
#: anchored at ``s``.  Atom leaves have no child rows, so exactly one
#: leaf-or-child disjunct fires per runtime shape.
_AXES = {
    CHILD: (">", "{t}.parent = {s}.pre"),
    DESCENDANT: (">", None),
    DESCENDANT_OR_SELF: (">=", None),
    LEAF_OR_CHILD: (
        ">=", "({t}.parent = {s}.pre OR ({s}.kind = 'atom' AND {t}.pre = {s}.pre))"
    ),
}


def compile_pushdown(flt: Filter, table: str = "nodes") -> Optional[PushdownQuery]:
    """Print *flt*'s lowering as an interval self-join, or ``None`` to scan."""
    lowering = lower(flt)
    if lowering.refusal is not None:
        return None
    conditions: List[str] = []
    params: List[object] = []
    binder = {}
    for step in lowering.steps:
        alias = f"n{step.index}"
        if step.anchor is None:
            conditions.append(f"{alias}.doc = ?")
            if step.axis == ROOT:
                conditions.append(f"{alias}.pre = 0")
        else:
            anchor = f"n{step.anchor}"
            bound_op, extra = _AXES[step.axis]
            conditions.append(f"{alias}.doc = {anchor}.doc")
            conditions.append(f"{alias}.pre {bound_op} {anchor}.pre")
            conditions.append(f"{alias}.pre < {anchor}.post")
            if extra is not None:
                conditions.append(extra.format(s=anchor, t=alias))
        value = step.value
        if step.test == ELEMENT:
            conditions.append(f"{alias}.name = ?")
            params.append(value)
        elif step.test == CONSTANT:
            conditions.append(f"{alias}.kind = 'atom'")
            if atom_kind(value) is str:
                # String equality never crosses types; match the stored text.
                conditions.append(f"{alias}.vtype = 'String'")
                conditions.append(f"{alias}.value = ?")
            else:
                # Numerics compare through the REAL key, which the store
                # only populates for exactly-representable values.
                conditions.append(f"{alias}.num = ?")
                if value.__class__ is not Param:
                    value = real_key(value)
            params.append(value)
        if step.var is not None:
            binder[step.var] = alias
    variables = flt.variables()
    select = [
        f"{binder[var]}.{column}"
        for var in variables
        for column in ("pre", "kind", "vtype", "value")
    ] or ["n0.pre"]  # variable-free filter: row count still matters
    aliases = [f"n{step.index}" for step in lowering.steps]
    sql = (
        "SELECT "
        + ", ".join(select)
        + " FROM "
        + ", ".join(f"{table} {alias}" for alias in aliases)
        + " WHERE "
        + " AND ".join(conditions)
        + " ORDER BY "
        + ", ".join(f"{alias}.pre" for alias in aliases)
    )
    return PushdownQuery(sql, tuple(params), variables)
