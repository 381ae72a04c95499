"""Scalar expressions and predicates over Tab rows.

Expressions appear in ``Select`` and ``Join`` predicates, in ``Map``
bindings and in ``Tree`` constructors.  The vocabulary is deliberately
small — variables, constants, comparisons, boolean connectives and named
function calls — because the paper extends it through *declared source
operations* (Section 4): a method like ``current_price`` or a predicate
like ``contains`` is a :class:`FunCall` whose implementation is looked up
in the evaluation context's function registry.

A :class:`Const` holds either a literal atom or a :class:`Param`: a query
constant the plan cache lifted out of the text, whose value each request
supplies in its parameter vector.  :func:`bound` is how everything that
reads a constant's value at execution time — operators, kernels,
wrappers — gets it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.model.filters import MissingValue
from repro.model.node import Node
from repro.model.trees import DataNode
from repro.model.values import Atom
from repro.observability.context import current_context

#: Comparison operators understood by :class:`Cmp`.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


class Param(Node):
    """A lifted query constant: slot *slot* of the request's parameter vector.

    ``kind`` is the lifted atom's type (``str``, ``int`` or ``float``) —
    the only thing about the constant planning may read, so one plan
    serves every vector of the same kinds.  The value is read at
    execution time from the active
    :class:`~repro.observability.context.RequestContext` (:func:`bound`);
    no plan node ever holds it.  Rendered, a parameter shows its bound
    value inside a request and ``:p<slot>`` outside one.
    """

    __slots__ = ("slot", "kind")

    def __init__(self, slot: int, kind: type) -> None:
        self.slot = slot
        self.kind = kind

    def __repr__(self) -> str:
        context = current_context()
        if context is not None and self.slot < len(context.params):
            return repr(context.params[self.slot])
        return f":p{self.slot}"


def bound(value):
    """*value*, or the active request's value for a :class:`Param`."""
    if value.__class__ is not Param:
        return value
    context = current_context()
    if context is None or value.slot >= len(context.params):
        raise EvaluationError(
            f"query parameter :p{value.slot} has no bound value; execute "
            "a cached plan through Mediator.query or with its request's "
            "parameters"
        )
    return context.params[value.slot]


def atom_kind(value) -> type:
    """The type of a constant's atom, without reading a parameter's value."""
    return value.kind if value.__class__ is Param else type(value)


class Expr(Node):
    """Base class of expression nodes (immutable).

    The compiled evaluator of a node is kept on it (``_kernel_memo``,
    :func:`~repro.core.algebra.compiled.compiled_predicate`).
    """

    __slots__ = ("_kernel_memo",)

    def variables(self) -> Tuple[str, ...]:
        """Names of the Tab columns this expression reads."""
        seen: list = []
        for node in self.walk():
            if isinstance(node, Var) and node.name not in seen:
                seen.append(node.name)
        return tuple(seen)

    def functions(self) -> Tuple[str, ...]:
        """Names of the external functions this expression calls."""
        seen: list = []
        for node in self.walk():
            if isinstance(node, FunCall) and node.name not in seen:
                seen.append(node.name)
        return tuple(seen)

    def walk(self) -> Iterator["Expr"]:
        yield self
        for child in self.parts(Expr):
            yield from child.walk()

    def evaluate(self, row, functions: Optional[Dict[str, Callable]] = None):
        """Evaluate against a :class:`~repro.core.algebra.tab.Row`."""
        raise NotImplementedError

    def substitute(self, mapping: Dict[str, "Expr"]) -> "Expr":
        """Return a copy with variables replaced per *mapping*."""
        return self.remade(Expr, lambda part: part.substitute(mapping))

    def rename(self, mapping: Dict[str, str]) -> "Expr":
        """Return a copy with variables renamed (old name -> new name)."""
        return self.substitute({old: Var(new) for old, new in mapping.items()})

    def __repr__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Concrete-syntax rendering (used in plan pretty-printing)."""
        raise NotImplementedError


class Var(Expr):
    """Reference to a Tab column, e.g. ``$y``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def evaluate(self, row, functions=None):
        return row[self.name]

    def substitute(self, mapping):
        return mapping.get(self.name, self)

    def text(self):
        return f"${self.name}"


class Const(Expr):
    """A literal atom, or a :class:`Param` bound per request."""

    __slots__ = ("value",)

    def __init__(self, value: Atom) -> None:
        self.value = value

    def evaluate(self, row, functions=None):
        return bound(self.value)

    def text(self):
        return repr(self.value)


class Cmp(Expr):
    """A comparison: ``left op right`` with op in ``=,!=,<,<=,>,>=``.

    Comparisons involving :data:`MISSING` are false (三-valued logic
    collapsed to two values, as in SQL's ``WHERE``).  DataNode operands
    that are atom leaves compare by their atom value, so ``$t = $t'``
    works whether the variables bound atoms or leaf nodes.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in COMPARISON_OPS:
            raise EvaluationError(f"unknown comparison operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, row, functions=None):
        left = _comparable(self.left.evaluate(row, functions))
        right = _comparable(self.right.evaluate(row, functions))
        if isinstance(left, MissingValue) or isinstance(right, MissingValue):
            return False
        if self.op == "=":
            return left == right
        if self.op == "!=":
            return left != right
        try:
            if self.op == "<":
                return left < right
            if self.op == "<=":
                return left <= right
            if self.op == ">":
                return left > right
            return left >= right
        except TypeError as exc:
            raise EvaluationError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from exc

    def text(self):
        return f"{self.left.text()} {self.op} {self.right.text()}"


class BoolAnd(Expr):
    """Conjunction of predicates."""

    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[Expr]) -> None:
        self.operands = tuple(operands)

    def evaluate(self, row, functions=None):
        return all(bool(op.evaluate(row, functions)) for op in self.operands)

    def text(self):
        return " AND ".join(f"({op.text()})" for op in self.operands)


class BoolOr(Expr):
    """Disjunction of predicates."""

    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[Expr]) -> None:
        self.operands = tuple(operands)

    def evaluate(self, row, functions=None):
        return any(bool(op.evaluate(row, functions)) for op in self.operands)

    def text(self):
        return " OR ".join(f"({op.text()})" for op in self.operands)


class BoolNot(Expr):
    """Negation of a predicate."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def evaluate(self, row, functions=None):
        return not bool(self.operand.evaluate(row, functions))

    def text(self):
        return f"NOT ({self.operand.text()})"


class FunCall(Expr):
    """A call to a named external function (declared source operation).

    The implementation is resolved at evaluation time in the function
    registry: ``contains``, ``current_price``, etc.  The mediator provides
    registry entries for operations it can evaluate itself; operations it
    cannot evaluate must be pushed to the source that declared them.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Sequence[Expr]) -> None:
        self.name = name
        self.args = tuple(args)

    def evaluate(self, row, functions=None):
        if not functions or self.name not in functions:
            raise EvaluationError(
                f"no implementation for function {self.name!r} at the mediator; "
                "it must be pushed to the source that declared it"
            )
        values = [arg.evaluate(row, functions) for arg in self.args]
        return functions[self.name](*values)

    def text(self):
        return f"{self.name}({', '.join(arg.text() for arg in self.args)})"


def _comparable(value):
    """Unwrap atom leaves so comparisons act on values, not nodes."""
    if isinstance(value, DataNode) and value.is_atom_leaf:
        return value.atom
    return value


def conjuncts(predicate: Expr) -> Tuple[Expr, ...]:
    """Flatten nested conjunctions into a tuple of conjuncts."""
    if isinstance(predicate, BoolAnd):
        result: list = []
        for operand in predicate.operands:
            result.extend(conjuncts(operand))
        return tuple(result)
    return (predicate,)


def conjunction(predicates: Sequence[Expr]) -> Expr:
    """Inverse of :func:`conjuncts`: build a single predicate."""
    predicates = tuple(predicates)
    if not predicates:
        return Const(True)
    if len(predicates) == 1:
        return predicates[0]
    return BoolAnd(predicates)


def eq(left: Expr, right: Expr) -> Cmp:
    """Shorthand for an equality comparison."""
    return Cmp("=", left, right)
