"""Constant-lifting normalization of parsed YAT_L queries.

The mediator's plan cache (``Mediator.plan_cache``) wants two queries
that differ only in their literal constants — ``WHERE $s = "Impressionist"``
vs ``WHERE $s = "Cubist"`` — to share one optimized plan, the way SQL's
``?`` and ODMG OQL's ``$1`` let one prepared statement serve every
binding.  This module computes, for a parsed
:class:`~repro.yatl.ast.YatlQuery`:

* a **parametric query**: a copy in which each lifted constant is a
  typed :class:`~repro.core.algebra.expressions.Param` slot instead of
  the atom.  Planning sees the slot and its kind, never the value, and
  every consumer reads the value from the request at execution time
  (:func:`~repro.core.algebra.expressions.bound`).  Two equal literals
  in different positions keep distinct slots;
* a **structural key**: the parametric query's own structure — a
  parameter keys by kind and slot, so ``5`` and ``5.0`` never share a
  plan;
* a **value vector**: the lifted constants in slot order (MATCH clauses
  left to right, filters pre-order, then the WHERE predicate) — the
  request's parameters.

Only MATCH-filter constants (:class:`~repro.model.filters.FConst`) and
WHERE constants (:class:`~repro.core.algebra.expressions.Const`) are
lifted.  MAKE-clause constants are left alone: they flow verbatim into
answer documents.  Booleans are never lifted (``True == 1`` would blur
an int slot's kind).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.algebra.expressions import Const, Expr, Param
from repro.model.filters import FConst, Filter
from repro.yatl.ast import MatchClause, YatlQuery

__all__ = ["NormalizedQuery", "normalize_query"]

#: Atom types lifted into parameters (``bool`` is an ``int`` subclass and
#: is checked for exactly, not with ``isinstance``).
_LIFTED = (str, int, float)


def _lift(value: object, values: List[object]):
    """A fresh :class:`Param` for *value* (appended to *values*), or
    ``None`` when the atom stays inline."""
    if type(value) not in _LIFTED:
        return None
    values.append(value)
    return Param(len(values) - 1, type(value))


def _lifted(node, family: type, values: List[object]):
    """*node* with its constants lifted; appends their values in order."""
    if node.__class__ is Const or node.__class__ is FConst:
        param = _lift(node.value, values)
        return node if param is None else node.__class__(param)
    return node.remade(family, lambda part: _lifted(part, family, values))


class NormalizedQuery:
    """A query's structural key, lifted constants, and parametric form."""

    __slots__ = ("key", "values", "query")

    def __init__(
        self, key: tuple, values: Tuple[object, ...], query: YatlQuery
    ) -> None:
        self.key = key
        self.values = values
        self.query = query

    def __repr__(self) -> str:
        return f"NormalizedQuery({len(self.values)} parameters)"


def normalize_query(query: YatlQuery) -> NormalizedQuery:
    """Lift MATCH/WHERE constants of *query* into ordered parameters."""
    values: List[object] = []
    matches = [
        MatchClause(clause.document, _lifted(clause.filter, Filter, values))
        for clause in query.matches
    ]
    where = (
        _lifted(query.where, Expr, values) if query.where is not None else None
    )
    key = (
        "yatl",
        query.make._key(),
        tuple((clause.document, clause.filter._key()) for clause in matches),
        where._key() if where is not None else None,
    )
    return NormalizedQuery(
        key, tuple(values), YatlQuery(query.make, matches, where)
    )
