"""Abstract syntax of the OQL subset evaluated by the mini-O2 engine.

The subset covers what the paper's wrapper generates (Section 4.1):
``select [distinct]``/``from``/``where`` with named projections, dependent ranges
(``O in A.owners``), path expressions, method calls, comparisons and
boolean connectives — plus bare extent queries.

A select *template* holds an :class:`OqlSlot` for each value a call
supplies and one :class:`OqlKeySet` for its passed keys;
:meth:`OqlNode.bind` writes one call's values in.
"""

from __future__ import annotations

from typing import Optional, Sequence


class OqlNode:
    """Base class of OQL AST nodes."""

    __slots__ = ()

    def text(self) -> str:
        raise NotImplementedError

    def bind(self, slots: Sequence[object], keys: Sequence[tuple]) -> "OqlNode":
        """This node with *slots* and *keys* written in as literals (its
        ``__slots__`` are its constructor's parameters, in order)."""
        def bound(part):
            if isinstance(part, OqlNode):
                return part.bind(slots, keys)
            return tuple(map(bound, part)) if isinstance(part, tuple) else part

        return type(self)(*(bound(getattr(self, name)) for name in self.__slots__))

    def __repr__(self) -> str:
        return f"<oql {self.text()}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OqlNode):
            return NotImplemented
        return self.text() == other.text()

    def __hash__(self) -> int:
        return hash(self.text())


class OqlLiteral(OqlNode):
    """An int/float/string/bool literal."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def text(self) -> str:
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            escaped = self.value.replace('"', '\\"')
            return f'"{escaped}"'
        return str(self.value)


class OqlSlot(OqlNode):
    """Position *index* of a call's slot vector, in a template."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def text(self) -> str:
        return f":{self.index}"

    def bind(self, slots, keys) -> OqlNode:
        return OqlLiteral(slots[self.index])


class OqlPath(OqlNode):
    """A path expression ``A.owners.name`` rooted at a range variable."""

    __slots__ = ("root", "steps")

    def __init__(self, root: str, steps: Sequence[str] = ()) -> None:
        self.root = root
        self.steps = tuple(steps)

    def text(self) -> str:
        return ".".join((self.root,) + self.steps)


class OqlMethodCall(OqlNode):
    """A method call at the end of a path: ``A.current_price()``."""

    __slots__ = ("receiver", "method", "args")

    def __init__(self, receiver: OqlPath, method: str, args: Sequence[OqlNode] = ()) -> None:
        self.receiver = receiver
        self.method = method
        self.args = tuple(args)

    def text(self) -> str:
        args = ", ".join(arg.text() for arg in self.args)
        return f"{self.receiver.text()}.{self.method}({args})"


class OqlCompare(OqlNode):
    """A comparison between two scalar expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: OqlNode, right: OqlNode) -> None:
        self.op = op
        self.left = left
        self.right = right

    def text(self) -> str:
        return f"{self.left.text()} {self.op} {self.right.text()}"


class OqlAnd(OqlNode):
    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[OqlNode]) -> None:
        self.operands = tuple(operands)

    def text(self) -> str:
        return " and ".join(f"({op.text()})" for op in self.operands)


class OqlOr(OqlNode):
    __slots__ = ("operands",)

    def __init__(self, operands: Sequence[OqlNode]) -> None:
        self.operands = tuple(operands)

    def text(self) -> str:
        return " or ".join(f"({op.text()})" for op in self.operands)


class OqlNot(OqlNode):
    __slots__ = ("operand",)

    def __init__(self, operand: OqlNode) -> None:
        self.operand = operand

    def text(self) -> str:
        return f"not ({self.operand.text()})"


class OqlKeySet(OqlNode):
    """A template's passed keys, compared with *compared*.  Bound, it is
    ``(e1 = k11 and e2 = k12) or ...``, one alternative per key tuple; a
    lone equality or alternative stands unwrapped."""

    __slots__ = ("compared",)

    def __init__(self, compared: Sequence[OqlNode]) -> None:
        self.compared = tuple(compared)

    def text(self) -> str:
        return f"({', '.join(expr.text() for expr in self.compared)}) in :keys"

    def bind(self, slots, keys) -> OqlNode:
        def alone_or(cls, nodes):
            return nodes[0] if len(nodes) == 1 else cls(nodes)

        return alone_or(OqlOr, [
            alone_or(OqlAnd, [
                OqlCompare("=", expr, OqlLiteral(value))
                for expr, value in zip(self.compared, key)
            ])
            for key in keys
        ])


class OqlRange(OqlNode):
    """One ``from`` item: ``variable in <extent or path>``."""

    __slots__ = ("variable", "collection")

    def __init__(self, variable: str, collection: OqlNode) -> None:
        self.variable = variable
        self.collection = collection

    def text(self) -> str:
        return f"{self.variable} in {self.collection.text()}"


class OqlProjection(OqlNode):
    """One ``select`` item: ``alias: expression``."""

    __slots__ = ("alias", "expr")

    def __init__(self, alias: str, expr: OqlNode) -> None:
        self.alias = alias
        self.expr = expr

    def text(self) -> str:
        return f"{self.alias}: {self.expr.text()}"


class OqlSelect(OqlNode):
    """A ``select [distinct] ... from ... where ...`` query.

    ``distinct`` keeps the first of each group of equal result rows, in
    order (ODMG ``select distinct``); see
    :func:`~repro.sources.objectdb.oql.evaluator.distinct_rows` for what
    "equal" means.
    """

    __slots__ = ("projections", "ranges", "where", "distinct")

    def __init__(
        self,
        projections: Sequence[OqlProjection],
        ranges: Sequence[OqlRange],
        where: Optional[OqlNode] = None,
        distinct: bool = False,
    ) -> None:
        self.projections = tuple(projections)
        self.ranges = tuple(ranges)
        self.where = where
        self.distinct = distinct

    def text(self) -> str:
        projections = ", ".join(p.text() for p in self.projections)
        ranges = ", ".join(r.text() for r in self.ranges)
        where = f" where {self.where.text()}" if self.where is not None else ""
        select = "select distinct" if self.distinct else "select"
        return f"{select} {projections} from {ranges}{where}"


class OqlExtent(OqlNode):
    """A bare extent query: the whole named collection."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def text(self) -> str:
        return self.name
