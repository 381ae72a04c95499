"""Abstract syntax of YAT_L queries.

A program is a list of named rules; each rule is a query with the three
clauses of Section 2:

* ``MAKE`` — a construction specification, parsed directly into the
  algebra's :class:`~repro.core.algebra.tree.Constructor` vocabulary;
* ``MATCH`` — one ``document WITH filter`` binding per input, parsed
  into :class:`~repro.model.filters.Filter` trees;
* ``WHERE`` — a predicate over the bound variables, parsed into the
  algebra's :class:`~repro.core.algebra.expressions.Expr` vocabulary.

Because filters, constructors and expressions *are* the algebra's own
types, translation (Section 3.2) only has to arrange operators — there is
no second intermediate representation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.algebra.expressions import Expr
from repro.core.algebra.tree import Constructor
from repro.model.filters import Filter


class MatchClause:
    """One ``document WITH filter`` item of a MATCH clause."""

    __slots__ = ("document", "filter")

    def __init__(self, document: str, filter: Filter) -> None:
        self.document = document
        self.filter = filter

    def __repr__(self) -> str:
        return f"MatchClause({self.document!r})"


class YatlQuery:
    """One parsed query: MAKE + MATCH* + optional WHERE."""

    __slots__ = ("make", "matches", "where")

    def __init__(
        self,
        make: Constructor,
        matches: Sequence[MatchClause],
        where: Optional[Expr] = None,
    ) -> None:
        self.make = make
        self.matches = tuple(matches)
        self.where = where

    def __repr__(self) -> str:
        documents = [m.document for m in self.matches]
        return f"YatlQuery(matches={documents})"


class YatlRule:
    """A named rule: ``name() := query``."""

    __slots__ = ("name", "query")

    def __init__(self, name: str, query: YatlQuery) -> None:
        self.name = name
        self.query = query

    def __repr__(self) -> str:
        return f"YatlRule({self.name!r})"


class YatlProgram:
    """A sequence of rules (an integration program such as ``view1.yat``)."""

    __slots__ = ("rules",)

    def __init__(self, rules: Sequence[YatlRule]) -> None:
        self.rules = tuple(rules)

    def __repr__(self) -> str:
        return f"YatlProgram({[r.name for r in self.rules]})"
