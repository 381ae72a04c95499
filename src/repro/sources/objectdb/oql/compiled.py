"""Compiled evaluation of OQL selects: one closure chain per AST.

The interpretive :class:`~repro.sources.objectdb.oql.evaluator._Engine`
re-dispatches on AST node types for every object of every range.
:func:`compile_select` walks the AST once and returns a
:class:`CompiledSelect` of nested closures: paths become
attribute-chasing loops, predicates become boolean closures, ranges
become loop drivers — and the key disjunction of a set-valued
information-passing call becomes one hash probe per candidate.

Differential contract (enforced by ``tests/test_oql_compiled.py``): the
compiled form produces the same rows in the same order as the
interpretive engine, and raises :class:`~repro.errors.OqlError` with the
same message on the same inputs.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import OqlError
from repro.sources.objectdb.database import ObjectDatabase, OdmgObject, Oid
from repro.sources.objectdb.oql.ast import (
    OqlAnd,
    OqlCompare,
    OqlLiteral,
    OqlMethodCall,
    OqlNode,
    OqlNot,
    OqlOr,
    OqlPath,
    OqlSelect,
)
from repro.sources.objectdb.oql.evaluator import distinct_rows

# Mirrors the interpretive comparison ladder, including its fallthrough:
# any operator outside the first five evaluates as ``>=``.
_COMPARE_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
}

Scalar = Callable[[ObjectDatabase, Dict[str, object]], object]
Truth = Callable[[ObjectDatabase, Dict[str, object]], bool]


class CompiledSelect:
    """Executable form of one ``OqlSelect``; run with :meth:`run`.

    Holds no database reference: the closures read whatever database is
    passed to :meth:`run`, so a compiled select stays valid across
    updates to the store (it compiles the *query*, never the data).

    ``ranges`` carries each loop's guard conjuncts: the compiler hoists
    every ``where`` conjunct to the shallowest range that binds all of
    its variables, so a failing predicate on an outer range prunes the
    inner loops instead of being re-tested per combination — the loop
    structure the interpretive engine would need a query rewrite for.
    """

    __slots__ = ("_ranges", "_pre_guards", "_projections", "_distinct")

    def __init__(
        self,
        ranges: Tuple[Tuple[str, Scalar, Tuple[Truth, ...]], ...],
        pre_guards: Tuple[Truth, ...],
        projections: Tuple[Tuple[str, Scalar], ...],
        distinct: bool,
    ) -> None:
        self._ranges = ranges
        self._pre_guards = pre_guards
        self._projections = projections
        self._distinct = distinct

    def run(self, db: ObjectDatabase) -> List[Dict[str, object]]:
        results: List[Dict[str, object]] = []
        env: Dict[str, object] = {}
        ranges = self._ranges
        projections = self._projections
        depth = len(ranges)
        for guard in self._pre_guards:  # non-empty only for range-free selects
            if not guard(db, env):
                return results

        def loop(index: int) -> None:
            if index == depth:
                results.append(
                    {alias: scalar(db, env) for alias, scalar in projections}
                )
                return
            variable, collection, guards = ranges[index]
            for value in collection(db, env):
                env[variable] = value
                for guard in guards:
                    if not guard(db, env):
                        break
                else:
                    loop(index + 1)
            # The interpretive loop pops its variable on exhaustion, so a
            # sibling range never observes a stale binding; mirror that.
            env.pop(variable, None)

        loop(0)
        return distinct_rows(results) if self._distinct else results


def compile_select(query: OqlSelect) -> CompiledSelect:
    """Compile *query* into closures; see the module docstring."""
    bound: set = set()
    compiled_ranges: List[Tuple[str, Scalar]] = []
    for rng in query.ranges:
        compiled_ranges.append(
            (rng.variable, _compile_collection(rng.collection, bound))
        )
        bound.add(rng.variable)
    guards: List[List[Truth]] = [[] for _ in range(len(query.ranges) + 1)]
    if query.where is not None:
        conjuncts = (
            query.where.operands
            if isinstance(query.where, OqlAnd)
            else (query.where,)
        )
        positions = {
            rng.variable: index + 1 for index, rng in enumerate(query.ranges)
        }
        for conjunct in conjuncts:
            guards[_guard_depth(conjunct, positions, len(query.ranges))].append(
                _compile_truth(conjunct)
            )
    ranges = tuple(
        (variable, collection, tuple(guards[index + 1]))
        for index, (variable, collection) in enumerate(compiled_ranges)
    )
    projections = tuple(
        (item.alias, _compile_scalar(item.expr)) for item in query.projections
    )
    return CompiledSelect(ranges, tuple(guards[0]), projections, query.distinct)


def _guard_depth(conjunct: OqlNode, positions: Dict[str, int], depth: int) -> int:
    """The shallowest loop depth at which *conjunct* is decidable.

    A conjunct mentioning no range variable at all stays at the innermost
    depth (or depth 0 when the select has no ranges): the interpretive
    engine only ever evaluates it under a full binding, and hoisting it
    past an empty extent would surface evaluation errors the interpreter
    never reaches.
    """
    roots: List[str] = []
    _collect_roots(conjunct, roots)
    if not roots or not positions:
        return depth
    deepest = 0
    for root in roots:
        position = positions.get(root)
        if position is None:
            return depth  # unbound root: keep the interpreter's error point
        if position > deepest:
            deepest = position
    return deepest


def _collect_roots(expr: OqlNode, roots: List[str]) -> None:
    if isinstance(expr, OqlPath):
        roots.append(expr.root)
    elif isinstance(expr, OqlCompare):
        _collect_roots(expr.left, roots)
        _collect_roots(expr.right, roots)
    elif isinstance(expr, (OqlAnd, OqlOr)):
        for operand in expr.operands:
            _collect_roots(operand, roots)
    elif isinstance(expr, OqlNot):
        _collect_roots(expr.operand, roots)
    elif isinstance(expr, OqlMethodCall):
        _collect_roots(expr.receiver, roots)
        for argument in expr.args:
            _collect_roots(argument, roots)


# ---------------------------------------------------------------------------
# Ranges
# ---------------------------------------------------------------------------

def _compile_collection(expr: OqlNode, bound: set) -> Scalar:
    # The interpretive engine decides extent-vs-path per evaluation by
    # probing the live bindings; at compile time the bound set at each
    # range position is exactly the variables of the earlier ranges, so
    # the decision is static.
    if isinstance(expr, OqlPath) and not expr.steps and expr.root not in bound:
        root = expr.root

        def extent_scan(db, env):
            return [db.get(oid) for oid in db.extent(root)]

        return extent_scan
    scalar = _compile_scalar(expr)
    text = expr.text()

    def dependent(db, env):
        value = scalar(db, env)
        if isinstance(value, list):
            return [
                db.get(item.value) if isinstance(item, Oid) else item
                for item in value
            ]
        raise OqlError(f"range expression {text} is not a collection")

    return dependent


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

def _compile_scalar(expr: OqlNode) -> Scalar:
    if isinstance(expr, OqlLiteral):
        value = expr.value

        def literal(db, env):
            return value

        return literal
    if isinstance(expr, OqlPath):
        return _compile_path(expr)
    if isinstance(expr, OqlMethodCall):
        return _compile_method(expr)
    text = expr.text()

    def reject(db, env):
        raise OqlError(f"not a scalar expression: {text}")

    return reject


def _compile_path(expr: OqlPath) -> Scalar:
    root = expr.root
    steps = expr.steps
    text = expr.text()
    if not steps:

        def variable(db, env):
            if root not in env:
                raise OqlError(f"unbound variable {root!r} in {text}")
            return env[root]

        return variable

    def path(db, env):
        if root not in env:
            raise OqlError(f"unbound variable {root!r} in {text}")
        value = env[root]
        for step in steps:
            if isinstance(value, Oid):
                value = db.get(value.value)
            if isinstance(value, OdmgObject):
                value = value.values
            if isinstance(value, dict):
                if step not in value:
                    raise OqlError(f"no attribute {step!r} along {text}")
                value = value[step]
            else:
                raise OqlError(
                    f"cannot navigate {step!r} from a "
                    f"{type(value).__name__} in {text}"
                )
        return value

    return path


def _compile_method(expr: OqlMethodCall) -> Scalar:
    receiver_scalar = _compile_path(expr.receiver)
    receiver_text = expr.receiver.text()
    name = expr.method
    arg_scalars = tuple(_compile_scalar(arg) for arg in expr.args)

    def method(db, env):
        receiver = receiver_scalar(db, env)
        if isinstance(receiver, Oid):
            receiver = db.get(receiver.value)
        if not isinstance(receiver, OdmgObject):
            raise OqlError(f"method receiver {receiver_text} is not an object")
        declared = db.schema.methods.get(name)
        if declared is None:
            raise OqlError(f"unknown method {name!r}")
        if receiver.class_name != declared.class_name:
            raise OqlError(
                f"method {name!r} is declared on {declared.class_name!r}, "
                f"not {receiver.class_name!r}"
            )
        args = [scalar(db, env) for scalar in arg_scalars]
        return declared.implementation(db, receiver.oid, *args)

    return method


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def _compile_key_probe(expr: OqlOr) -> Optional[Truth]:
    """One hash probe per candidate for ``(e1 = k11 and e2 = k12) or
    (e1 = k21 and e2 = k22) or ...`` — the where clause of a set-valued
    information-passing call — instead of one comparison per key.

    The literals are laid out as a trie, one level per compared
    expression, and a candidate walks it with its own values.  This is
    the interpretive evaluation exactly: ``e2`` is evaluated only once
    some key matched on ``e1`` (so the same expressions raise the same
    errors), and a dict lookup agrees with ``=`` on every hashable value
    (``1 = 1.0 = true``); an unhashable value is compared key by key.
    ``None`` when *expr* does not have that shape.
    """
    compared: Optional[List[str]] = None
    scalars: Tuple[Scalar, ...] = ()
    trie: Dict[object, dict] = {}
    for alternative in expr.operands:
        equalities = (
            alternative.operands if isinstance(alternative, OqlAnd) else (alternative,)
        )
        for equality in equalities:
            if not (
                isinstance(equality, OqlCompare)
                and equality.op == "="
                and isinstance(equality.right, OqlLiteral)
                and not isinstance(equality.left, OqlLiteral)
            ):
                return None
        texts = [equality.left.text() for equality in equalities]
        if compared is None:
            compared = texts
            scalars = tuple(_compile_scalar(eq.left) for eq in equalities)
        elif texts != compared:
            return None
        level = trie
        for equality in equalities:
            level = level.setdefault(equality.right.value, {})

    def probe(db, env):
        level = trie
        for scalar in scalars:
            value = scalar(db, env)
            try:
                level = level.get(value)
            except TypeError:
                level = next(
                    (below for key, below in level.items() if value == key), None
                )
            if level is None:
                return False
        return True

    return probe


def _compile_truth(expr: OqlNode) -> Truth:
    if isinstance(expr, OqlAnd):
        operands = tuple(_compile_truth(op) for op in expr.operands)

        def conjunction(db, env):
            for operand in operands:
                if not operand(db, env):
                    return False
            return True

        return conjunction
    if isinstance(expr, OqlOr):
        probe = _compile_key_probe(expr)
        if probe is not None:
            return probe
        operands = tuple(_compile_truth(op) for op in expr.operands)

        def disjunction(db, env):
            for operand in operands:
                if operand(db, env):
                    return True
            return False

        return disjunction
    if isinstance(expr, OqlNot):
        operand = _compile_truth(expr.operand)

        def negation(db, env):
            return not operand(db, env)

        return negation
    if isinstance(expr, OqlCompare):
        left_scalar = _compile_scalar(expr.left)
        right_scalar = _compile_scalar(expr.right)
        op = expr.op
        compare = _COMPARE_OPS.get(op, operator.ge)

        def comparison(db, env):
            left = left_scalar(db, env)
            right = right_scalar(db, env)
            try:
                return compare(left, right)
            except TypeError as exc:
                raise OqlError(
                    f"cannot compare {left!r} {op} {right!r}"
                ) from exc

        return comparison
    scalar = _compile_scalar(expr)
    text = expr.text()

    def boolean_scalar(db, env):
        value = scalar(db, env)
        if isinstance(value, bool):
            return value
        raise OqlError(f"predicate {text} did not evaluate to a boolean")

    return boolean_scalar
