"""Recursive-descent parser for the OQL subset.

Grammar::

    query        := select_query | ident
    select_query := SELECT [DISTINCT] projections FROM ranges [WHERE predicate]
    projections  := projection ("," projection)*
    projection   := ident ":" scalar
    ranges       := range ("," range)*
    range        := ident IN scalar
    predicate    := disjunct (OR disjunct)*
    disjunct     := conjunct (AND conjunct)*
    conjunct     := NOT conjunct | "(" predicate ")" | comparison
    comparison   := scalar op scalar
    scalar       := literal | path ["." method "(" [scalar ("," scalar)*] ")"]
    path         := ident ("." ident)*
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import OqlSyntaxError
from repro.sources.objectdb.oql.ast import (
    OqlAnd,
    OqlCompare,
    OqlExtent,
    OqlLiteral,
    OqlMethodCall,
    OqlNode,
    OqlNot,
    OqlOr,
    OqlPath,
    OqlProjection,
    OqlRange,
    OqlSelect,
)
from repro.sources.objectdb.oql.lexer import Token, tokenize

_COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


def parse_oql(text: str) -> OqlNode:
    """Parse an OQL query string into its AST."""
    return _Parser(text).parse_query()


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens: List[Token] = list(tokenize(text))
        self._position = 0

    # -- token plumbing --------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind != "eof":
            self._position += 1
        return token

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            wanted = value or kind
            raise OqlSyntaxError(
                f"expected {wanted!r}, got {token.value!r} at offset {token.position}"
            )
        return self._advance()

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token.kind == kind and (value is None or token.value == value):
            return self._advance()
        return None

    # -- grammar -----------------------------------------------------------------

    def parse_query(self) -> OqlNode:
        if self._peek().kind == "kw" and self._peek().value == "select":
            query = self._select_query()
        else:
            name = self._expect("ident").value
            query = OqlExtent(name)
        self._expect("eof")
        return query

    def _select_query(self) -> OqlSelect:
        self._expect("kw", "select")
        distinct = self._accept("kw", "distinct") is not None
        projections = [self._projection()]
        while self._accept("punct", ","):
            projections.append(self._projection())
        self._expect("kw", "from")
        ranges = [self._range()]
        while self._accept("punct", ","):
            ranges.append(self._range())
        where = None
        if self._accept("kw", "where"):
            where = self._predicate()
        return OqlSelect(projections, ranges, where, distinct)

    def _projection(self) -> OqlProjection:
        alias = self._expect("ident").value
        self._expect("punct", ":")
        return OqlProjection(alias, self._scalar())

    def _range(self) -> OqlRange:
        variable = self._expect("ident").value
        self._expect("kw", "in")
        return OqlRange(variable, self._scalar())

    def _predicate(self) -> OqlNode:
        operands = [self._disjunct()]
        while self._accept("kw", "or"):
            operands.append(self._disjunct())
        if len(operands) == 1:
            return operands[0]
        return OqlOr(operands)

    def _disjunct(self) -> OqlNode:
        operands = [self._conjunct()]
        while self._accept("kw", "and"):
            operands.append(self._conjunct())
        if len(operands) == 1:
            return operands[0]
        return OqlAnd(operands)

    def _conjunct(self) -> OqlNode:
        if self._accept("kw", "not"):
            return OqlNot(self._conjunct())
        if self._peek().kind == "punct" and self._peek().value == "(":
            self._advance()
            inner = self._predicate()
            self._expect("punct", ")")
            return inner
        return self._comparison()

    def _comparison(self) -> OqlNode:
        left = self._scalar()
        token = self._peek()
        if token.kind == "op" and token.value in _COMPARISON_OPS:
            self._advance()
            right = self._scalar()
            return OqlCompare(token.value, left, right)
        return left  # a bare boolean scalar (e.g. a Bool method call)

    def _scalar(self) -> OqlNode:
        token = self._peek()
        if token.kind == "int":
            self._advance()
            return OqlLiteral(int(token.value))
        if token.kind == "float":
            self._advance()
            return OqlLiteral(float(token.value))
        if token.kind == "string":
            self._advance()
            body = token.value[1:-1]
            return OqlLiteral(body.replace('\\"', '"').replace("\\'", "'"))
        if token.kind == "kw" and token.value in ("true", "false"):
            self._advance()
            return OqlLiteral(token.value == "true")
        return self._path_or_call()

    def _path_or_call(self) -> OqlNode:
        root = self._expect("ident").value
        steps: List[str] = []
        while self._accept("punct", "."):
            steps.append(self._expect("ident").value)
            if self._peek().kind == "punct" and self._peek().value == "(":
                method = steps.pop()
                self._advance()
                args: List[OqlNode] = []
                if not (self._peek().kind == "punct" and self._peek().value == ")"):
                    args.append(self._scalar())
                    while self._accept("punct", ","):
                        args.append(self._scalar())
                self._expect("punct", ")")
                return OqlMethodCall(OqlPath(root, steps), method, args)
        return OqlPath(root, steps)
