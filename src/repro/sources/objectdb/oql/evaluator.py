"""Evaluation of the OQL subset over an :class:`ObjectDatabase`.

``from`` ranges build nested loops — a range over a path expression
depends on the variables bound by earlier ranges, which gives OQL its
dependent-join flavour (the algebra's ``DJoin``, paper Section 5.1).
References are dereferenced transparently while navigating paths, so
``O.name`` works when ``O`` ranges over ``A.owners`` (a list of
references).

Results are lists of ``{alias: python value}`` dictionaries; the O2
wrapper converts them to Tab rows.  ``select distinct`` keeps the first
of each group of equal rows (:func:`distinct_rows`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from repro.errors import OqlError
from repro.sources.objectdb.database import ObjectDatabase, OdmgObject, Oid
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
    OqlSelect,
)
from repro.sources.objectdb.oql.parser import parse_oql

Bindings = Dict[str, object]


def distinct_rows(rows: Sequence[Bindings]) -> List[Bindings]:
    """*rows* without the later copies of equal rows, in order.

    Equality is at least as fine as the mediator's cell equality
    (``_cell_key``) on the cells the wrapper makes of these values, so a
    dropped row is one the mediator would also call a duplicate: atoms
    compare by type and value (``1``, ``1.0`` and ``true`` stay apart,
    as do ``2**53`` and ``2**53 + 1``), objects and references by oid.
    """
    seen = set()
    kept: List[Bindings] = []
    for row in rows:
        key = tuple(_distinct_key(value) for value in row.values())
        if key not in seen:
            seen.add(key)
            kept.append(row)
    return kept


def _distinct_key(value: object) -> tuple:
    if isinstance(value, OdmgObject):
        return ("object", value.oid)
    if isinstance(value, Oid):
        return ("object", value.value)
    if isinstance(value, list):
        return ("list",) + tuple(_distinct_key(item) for item in value)
    if isinstance(value, dict):
        return ("tuple",) + tuple(
            (name, _distinct_key(item)) for name, item in value.items()
        )
    return ("atom", type(value).__name__, value)


def evaluate_oql(query: object, database: ObjectDatabase) -> List[Bindings]:
    """Evaluate *query* (AST or text) against *database*.

    A ``select`` returns one dictionary per result row.  A bare extent
    returns one ``{"object": OdmgObject}`` dictionary per member.
    """
    if isinstance(query, str):
        query = parse_oql(query)
    engine = _Engine(database)
    if isinstance(query, OqlExtent):
        return [
            {"object": database.get(oid)} for oid in database.extent(query.name)
        ]
    if isinstance(query, OqlSelect):
        return engine.run_select(query)
    raise OqlError(f"cannot evaluate query node {query!r}")


class _Engine:
    def __init__(self, database: ObjectDatabase) -> None:
        self._db = database

    def run_select(self, query: OqlSelect) -> List[Bindings]:
        results: List[Bindings] = []
        for bindings in self._loop(query.ranges, 0, {}):
            if query.where is not None and not self._truth(query.where, bindings):
                continue
            row = {
                projection.alias: self._scalar(projection.expr, bindings)
                for projection in query.projections
            }
            results.append(row)
        return distinct_rows(results) if query.distinct else results

    # -- range loops -------------------------------------------------------------

    def _loop(self, ranges, index: int, bindings: Bindings) -> Iterator[Bindings]:
        if index == len(ranges):
            yield dict(bindings)
            return
        rng = ranges[index]
        for value in self._collection(rng.collection, bindings):
            bindings[rng.variable] = value
            yield from self._loop(ranges, index + 1, bindings)
        bindings.pop(rng.variable, None)

    def _collection(self, expr: OqlNode, bindings: Bindings) -> List[object]:
        if isinstance(expr, OqlPath) and not expr.steps and expr.root not in bindings:
            # A bare identifier that is not a bound variable names an extent.
            return [self._db.get(oid) for oid in self._db.extent(expr.root)]
        value = self._scalar(expr, bindings)
        if isinstance(value, list):
            return [self._deref_if_ref(item) for item in value]
        raise OqlError(f"range expression {expr.text()} is not a collection")

    def _deref_if_ref(self, value: object) -> object:
        if isinstance(value, Oid):
            return self._db.get(value.value)
        return value

    # -- scalars --------------------------------------------------------------------

    def _scalar(self, expr: OqlNode, bindings: Bindings) -> object:
        if isinstance(expr, OqlLiteral):
            return expr.value
        if isinstance(expr, OqlPath):
            return self._path(expr, bindings)
        if isinstance(expr, OqlMethodCall):
            return self._method(expr, bindings)
        raise OqlError(f"not a scalar expression: {expr.text()}")

    def _path(self, expr: OqlPath, bindings: Bindings) -> object:
        if expr.root not in bindings:
            raise OqlError(f"unbound variable {expr.root!r} in {expr.text()}")
        value: object = bindings[expr.root]
        for step in expr.steps:
            value = self._step(value, step, expr)
        return value

    def _step(self, value: object, step: str, expr: OqlPath) -> object:
        if isinstance(value, Oid):
            value = self._db.get(value.value)
        if isinstance(value, OdmgObject):
            value = value.values
        if isinstance(value, dict):
            if step not in value:
                raise OqlError(f"no attribute {step!r} along {expr.text()}")
            return value[step]
        raise OqlError(
            f"cannot navigate {step!r} from a {type(value).__name__} in {expr.text()}"
        )

    def _method(self, expr: OqlMethodCall, bindings: Bindings) -> object:
        receiver = self._path_receiver(expr.receiver, bindings)
        method = self._db.schema.methods.get(expr.method)
        if method is None:
            raise OqlError(f"unknown method {expr.method!r}")
        if receiver.class_name != method.class_name:
            raise OqlError(
                f"method {expr.method!r} is declared on {method.class_name!r}, "
                f"not {receiver.class_name!r}"
            )
        args = [self._scalar(arg, bindings) for arg in expr.args]
        return method.implementation(self._db, receiver.oid, *args)

    def _path_receiver(self, path: OqlPath, bindings: Bindings) -> OdmgObject:
        value = self._path(path, bindings)
        if isinstance(value, Oid):
            value = self._db.get(value.value)
        if not isinstance(value, OdmgObject):
            raise OqlError(f"method receiver {path.text()} is not an object")
        return value

    # -- predicates ----------------------------------------------------------------

    def _truth(self, expr: OqlNode, bindings: Bindings) -> bool:
        if isinstance(expr, OqlAnd):
            return all(self._truth(op, bindings) for op in expr.operands)
        if isinstance(expr, OqlOr):
            return any(self._truth(op, bindings) for op in expr.operands)
        if isinstance(expr, OqlNot):
            return not self._truth(expr.operand, bindings)
        if isinstance(expr, OqlCompare):
            left = self._scalar(expr.left, bindings)
            right = self._scalar(expr.right, bindings)
            try:
                if expr.op == "=":
                    return left == right
                if expr.op == "!=":
                    return left != right
                if expr.op == "<":
                    return left < right
                if expr.op == "<=":
                    return left <= right
                if expr.op == ">":
                    return left > right
                return left >= right
            except TypeError as exc:
                raise OqlError(
                    f"cannot compare {left!r} {expr.op} {right!r}"
                ) from exc
        value = self._scalar(expr, bindings)
        if isinstance(value, bool):
            return value
        raise OqlError(f"predicate {expr.text()} did not evaluate to a boolean")
