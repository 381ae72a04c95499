"""Logical plan operators of the YAT XML algebra (paper, Section 3.1).

A plan is an immutable DAG of operator nodes.  ``Bind`` and ``Tree`` are
the two XML-specific frontier operators; between them live the classical
relational/object operators (``Select``, ``Project``, ``Join``, ``DJoin``,
``Union``, ``Intersect``, ``Group``, ``Sort``, ``Map``), all defined over
``Tab`` structures.  ``Source`` nodes are the named-document inputs, and
``Pushed`` marks a fragment delegated to a wrapper (the outcome of
capability-based rewriting, Section 5.3).

Rewrites never mutate plans: :meth:`Plan.with_children` produces modified
copies, and plans compare structurally so the optimizer can detect
fixpoints.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from repro.errors import AlgebraError
from repro.core.algebra.expressions import Const, Expr, bound
from repro.core.algebra.tree import Constructor
from repro.model.filters import Filter


class Plan:
    """Base class of plan operators.

    Operators are immutable after construction (rewrites build new
    nodes), so derived values — the canonical key, the outer-parameter
    set — are memoized on the instance in the two base slots.
    """

    __slots__ = ("_key_memo", "_params_memo")

    def children(self) -> Tuple["Plan", ...]:
        """Input plans of this operator."""
        return ()

    def with_children(self, children: Sequence["Plan"]) -> "Plan":
        """A copy of this operator with new input plans."""
        if children:
            raise AlgebraError(f"{type(self).__name__} takes no inputs")
        return self

    def walk(self) -> Iterator["Plan"]:
        """This node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def output_columns(self) -> Tuple[str, ...]:
        """Names of the Tab columns this operator produces."""
        raise NotImplementedError

    def sources(self) -> Tuple[str, ...]:
        """Names of the sources this plan touches (document order)."""
        seen: list = []
        for node in self.walk():
            name = getattr(node, "source", None)
            if name is not None and name not in seen:
                seen.append(name)
        return tuple(seen)

    def _key(self) -> tuple:
        raise NotImplementedError

    def cached_key(self) -> tuple:
        """``self._key()``, computed once per instance."""
        try:
            return self._key_memo
        except AttributeError:
            key = self._key_memo = self._key()
            return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Plan):
            return NotImplemented
        return self.cached_key() == other.cached_key()

    def __hash__(self) -> int:
        return hash(self.cached_key())

    def operator_name(self) -> str:
        """Short name used in plan renderings (``Bind``, ``Select``...)."""
        return type(self).__name__.removesuffix("Op")

    def describe(self) -> str:
        """One-line description of this operator (no inputs)."""
        return self.operator_name()

    def pretty(self, indent: int = 0) -> str:
        """Indented multi-line plan rendering (root at top)."""
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<{self.describe()}>"


class SourceOp(Plan):
    """A named document exported by a source: the plan's input leaf.

    Evaluating a ``Source`` transfers the *whole* document from the
    wrapper to the mediator — exactly the cost capability-based pushdown
    exists to avoid.
    """

    __slots__ = ("source", "document")

    def __init__(self, source: str, document: str) -> None:
        self.source = source
        self.document = document

    def output_columns(self):
        return (self.document,)

    def _key(self):
        return ("source", self.source, self.document)

    def describe(self):
        return f"Source({self.source}.{self.document})"


class LiteralOp(Plan):
    """A constant Tab as a plan input.

    Used by tests and benchmarks to feed operators directly; never
    produced by translation or rewriting.
    """

    __slots__ = ("tab",)

    def __init__(self, tab) -> None:
        self.tab = tab

    def output_columns(self):
        return self.tab.columns

    def _key(self):
        return ("literal", self.tab.columns, tuple(self.tab.row_keys()))

    def describe(self):
        return f"Literal({len(self.tab)} rows)"


class UnitOp(Plan):
    """The unit input: a Tab with one empty row and no columns.

    Used as the input of a Bind standing on the right of a DJoin: the
    Bind's target column comes from the *outer* row, so the inner plan
    needs an input that contributes exactly one row and nothing else.
    """

    __slots__ = ()

    def output_columns(self):
        return ()

    def _key(self):
        return ("unit",)

    def describe(self):
        return "Unit"


class BindOp(Plan):
    """Pattern-match a filter against the trees bound in column ``on``.

    The output contains the input columns (minus ``on``, unless
    ``keep_on``) extended with the filter's variables; each way the filter
    matches contributes one output row.
    """

    __slots__ = ("input", "filter", "on", "keep_on")

    def __init__(self, input: Plan, filter: Filter, on: str, keep_on: bool = False) -> None:
        self.input = input
        self.filter = filter
        self.on = on
        self.keep_on = keep_on

    def children(self):
        return (self.input,)

    def with_children(self, children):
        (child,) = children
        return BindOp(child, self.filter, self.on, self.keep_on)

    def output_columns(self):
        base = [
            c for c in self.input.output_columns() if self.keep_on or c != self.on
        ]
        return tuple(base) + self.filter.variables()

    def _key(self):
        return ("bind", self.input._key(), self.filter._key(), self.on, self.keep_on)

    def describe(self):
        vars_text = ", ".join(f"${v}" for v in self.filter.variables())
        return f"Bind(on=${self.on} -> [{vars_text}])"


class SelectOp(Plan):
    """Keep rows satisfying the predicate."""

    __slots__ = ("input", "predicate")

    def __init__(self, input: Plan, predicate: Expr) -> None:
        self.input = input
        self.predicate = predicate

    def children(self):
        return (self.input,)

    def with_children(self, children):
        (child,) = children
        return SelectOp(child, self.predicate)

    def output_columns(self):
        return self.input.output_columns()

    def _key(self):
        return ("select", self.input._key(), self.predicate._key())

    def describe(self):
        return f"Select({self.predicate.text()})"


class ProjectOp(Plan):
    """Projection with renaming: keep ``(column, alias)`` pairs."""

    __slots__ = ("input", "items")

    def __init__(self, input: Plan, items: Sequence[Tuple[str, str]]) -> None:
        self.input = input
        self.items = tuple(items)

    @classmethod
    def keep(cls, input: Plan, columns: Sequence[str]) -> "ProjectOp":
        """Projection without renaming."""
        return cls(input, [(c, c) for c in columns])

    def children(self):
        return (self.input,)

    def with_children(self, children):
        (child,) = children
        return ProjectOp(child, self.items)

    def output_columns(self):
        return tuple(alias for _column, alias in self.items)

    def _key(self):
        return ("project", self.input._key(), self.items)

    def describe(self):
        parts = [
            f"${c}" if c == a else f"${c} as ${a}" for c, a in self.items
        ]
        return f"Project({', '.join(parts)})"


class JoinOp(Plan):
    """Independent join: both inputs are evaluated once."""

    __slots__ = ("left", "right", "predicate")

    def __init__(self, left: Plan, right: Plan, predicate: Expr) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return JoinOp(left, right, self.predicate)

    def output_columns(self):
        return self.left.output_columns() + self.right.output_columns()

    def _key(self):
        return ("join", self.left._key(), self.right._key(), self.predicate._key())

    def describe(self):
        return f"Join({self.predicate.text()})"


class DJoinOp(Plan):
    """Dependency join: the right input is re-evaluated per left row.

    Columns of the current left row are visible as an *outer environment*
    inside the right plan (``Bind`` targets, predicate variables, pushed
    query parameters) — this is the "information passing" of Section 5.3.
    ``_passed_memo`` memoizes whether the bindings may be passed as one
    set (:func:`~repro.core.algebra.scheduling.passed_pairs`).
    """

    __slots__ = ("left", "right", "_passed_memo")

    def __init__(self, left: Plan, right: Plan) -> None:
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return DJoinOp(left, right)

    def output_columns(self):
        return self.left.output_columns() + self.right.output_columns()

    def _key(self):
        return ("djoin", self.left._key(), self.right._key())

    def describe(self):
        return "DJoin"


class UnionOp(Plan):
    """Set union of two compatible Tabs."""

    __slots__ = ("left", "right")

    def __init__(self, left: Plan, right: Plan) -> None:
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return UnionOp(left, right)

    def output_columns(self):
        return self.left.output_columns()

    def _key(self):
        return ("union", self.left._key(), self.right._key())


class IntersectOp(Plan):
    """Set intersection of two compatible Tabs."""

    __slots__ = ("left", "right")

    def __init__(self, left: Plan, right: Plan) -> None:
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def with_children(self, children):
        left, right = children
        return IntersectOp(left, right)

    def output_columns(self):
        return self.left.output_columns()

    def _key(self):
        return ("intersect", self.left._key(), self.right._key())


class DistinctOp(Plan):
    """Remove duplicate rows (set semantics)."""

    __slots__ = ("input",)

    def __init__(self, input: Plan) -> None:
        self.input = input

    def children(self):
        return (self.input,)

    def with_children(self, children):
        (child,) = children
        return DistinctOp(child)

    def output_columns(self):
        return self.input.output_columns()

    def _key(self):
        return ("distinct", self.input._key())


class GroupOp(Plan):
    """Group rows by some columns, nesting the rest as a collection.

    The output has the ``by`` columns plus one column ``into`` whose cells
    are tuples of sub-rows over the remaining columns.
    """

    __slots__ = ("input", "by", "into")

    def __init__(self, input: Plan, by: Sequence[str], into: str) -> None:
        self.input = input
        self.by = tuple(by)
        self.into = into

    def children(self):
        return (self.input,)

    def with_children(self, children):
        (child,) = children
        return GroupOp(child, self.by, self.into)

    def output_columns(self):
        return self.by + (self.into,)

    def _key(self):
        return ("group", self.input._key(), self.by, self.into)

    def describe(self):
        return f"Group(by={[f'${c}' for c in self.by]}, into=${self.into})"


class SortOp(Plan):
    """Sort rows by some columns."""

    __slots__ = ("input", "by", "descending")

    def __init__(self, input: Plan, by: Sequence[str], descending: bool = False) -> None:
        self.input = input
        self.by = tuple(by)
        self.descending = descending

    def children(self):
        return (self.input,)

    def with_children(self, children):
        (child,) = children
        return SortOp(child, self.by, self.descending)

    def output_columns(self):
        return self.input.output_columns()

    def _key(self):
        return ("sort", self.input._key(), self.by, self.descending)

    def describe(self):
        direction = " desc" if self.descending else ""
        return f"Sort({[f'${c}' for c in self.by]}{direction})"


class MapOp(Plan):
    """Extend every row with computed columns ``(name, expression)``."""

    __slots__ = ("input", "bindings")

    def __init__(self, input: Plan, bindings: Sequence[Tuple[str, Expr]]) -> None:
        self.input = input
        self.bindings = tuple(bindings)

    def children(self):
        return (self.input,)

    def with_children(self, children):
        (child,) = children
        return MapOp(child, self.bindings)

    def output_columns(self):
        return self.input.output_columns() + tuple(n for n, _e in self.bindings)

    def _key(self):
        return (
            "map",
            self.input._key(),
            tuple((n, e._key()) for n, e in self.bindings),
        )

    def describe(self):
        parts = ", ".join(f"${n} := {e.text()}" for n, e in self.bindings)
        return f"Map({parts})"


class TreeOp(Plan):
    """Build a nested document from the input Tab (the ``MAKE`` clause)."""

    __slots__ = ("input", "constructor", "document")

    def __init__(self, input: Plan, constructor: Constructor, document: str) -> None:
        self.input = input
        self.constructor = constructor
        self.document = document

    def children(self):
        return (self.input,)

    def with_children(self, children):
        (child,) = children
        return TreeOp(child, self.constructor, self.document)

    def output_columns(self):
        return (self.document,)

    def _key(self):
        return ("tree", self.input._key(), self.constructor._key(), self.document)

    def describe(self):
        return f"Tree(-> {self.document})"


class FuseOp(Plan):
    """Fuse the documents built by several rules into one (object fusion).

    Integration programs are "composed of a sequence of rules, whose
    partial results are connected together through Skolem functions"
    (paper, Section 2).  Each input plan builds a document; evaluation
    shares one Skolem registry across them (same arguments, same
    identifier) and merges the root's children by identifier — two rules
    contributing to ``artwork($t)`` produce one fused element.
    """

    __slots__ = ("inputs", "document")

    def __init__(self, inputs: Sequence[Plan], document: str) -> None:
        if not inputs:
            raise AlgebraError("Fuse requires at least one input")
        self.inputs = tuple(inputs)
        self.document = document

    def children(self):
        return self.inputs

    def with_children(self, children):
        return FuseOp(children, self.document)

    def output_columns(self):
        return (self.document,)

    def _key(self):
        return ("fuse", tuple(i._key() for i in self.inputs), self.document)

    def describe(self):
        return f"Fuse({len(self.inputs)} rules -> {self.document})"


class ScatterOp(Plan):
    """Scatter-gather over the shards of one partitioned logical source.

    Produced by the shard-expansion rewrite: branch ``i`` is the original
    ``[Project?][Select*]Bind(Source)`` chain re-targeted at shard ``i``
    of the logical source, one branch per shard.  Evaluation concatenates
    the branch Tabs in shard order — *bag* semantics, no ``distinct``:
    the partitioning function places every document on exactly one shard,
    so branches are disjoint by construction and the concatenation equals
    the logical source's shard-major document order.

    The logical source's name is deliberately held in ``logical`` rather
    than ``source``: :meth:`Plan.sources` (and therefore the result
    cache's version vector) discovers sources through the ``source``
    attribute, and a scatter plan's freshness depends only on the shards
    its surviving branches actually read.

    Which branches survive is decided per execution by :meth:`shards`,
    never at planning time: ``restrictions`` are the constants the rule
    found equated with the partition key — query constants, whose values
    the request binds — and ``prune_param``, when set, names
    an outer column equated with the key (information-passing pruning
    under a DJoin).
    """

    __slots__ = ("branches", "logical", "partition", "restrictions",
                 "prune_param")

    def __init__(
        self,
        branches: Sequence[Plan],
        logical: str,
        partition,
        restrictions: Sequence[Const] = (),
        prune_param: Optional[str] = None,
    ) -> None:
        if not branches:
            raise AlgebraError("Scatter requires at least one branch")
        self.branches = tuple(branches)
        self.logical = logical
        self.partition = partition
        self.restrictions = tuple(restrictions)
        self.prune_param = prune_param

    def shards(self, outer=None) -> Tuple[int, ...]:
        """The shards one execution reads, in shard order.

        Each restriction keeps the shard :meth:`prune` admits for its
        bound value; an *outer* row supplying ``prune_param`` keeps only
        the owner of that row's key.  Placement and pruning share the
        partition's functions, so no shard holding a match is dropped —
        and contradictory restrictions keep none.
        """
        kept = range(len(self.branches))
        for constant in self.restrictions:
            allowed = self.partition.prune(bound(constant.value))
            if allowed is not None:
                kept = [shard for shard in kept if shard in allowed]
        param = self.prune_param
        if param is not None and outer is not None and param in outer:
            owner = self.partition.shard_of(outer[param])
            kept = [shard for shard in kept if shard == owner]
        return tuple(kept)

    def children(self):
        return self.branches

    def with_children(self, children):
        return ScatterOp(
            children, self.logical, self.partition, self.restrictions,
            self.prune_param,
        )

    def output_columns(self):
        return self.branches[0].output_columns()

    def _key(self):
        return (
            "scatter",
            self.logical,
            self.partition.spec_key(),
            tuple(constant._key() for constant in self.restrictions),
            self.prune_param,
            tuple(b._key() for b in self.branches),
        )

    def describe(self):
        keys = "".join(
            f", {self.partition.key} = {constant.text()}"
            for constant in self.restrictions
        )
        param = f", prune=${self.prune_param}" if self.prune_param else ""
        return (
            f"Scatter({self.logical}, {len(self.branches)} shards"
            f"{keys}{param})"
        )


class PushedOp(Plan):
    """A plan fragment delegated to a wrapper.

    ``plan`` is the algebraic fragment the wrapper agreed to evaluate;
    ``native`` records the native query text the wrapper generated for it
    (OQL, a Wais request, SQL) for display and auditing.  Evaluation asks
    the wrapper and transfers only the resulting Tab.

    ``keyed`` is set by information passing (Section 5.3): pairs
    ``(fragment column, outer variable)`` whose equalities the fragment's
    top selection states and whose disjunction over many outer bindings
    the source declared pushable — a DJoin may then ship all its distinct
    outer bindings in one call (a :class:`~repro.core.algebra.tab.BindingSet`).
    """

    __slots__ = ("source", "plan", "native", "keyed")

    def __init__(
        self,
        source: str,
        plan: Plan,
        native: Optional[str] = None,
        keyed: Sequence[Tuple[str, str]] = (),
    ) -> None:
        self.source = source
        self.plan = plan
        self.native = native
        self.keyed = tuple(keyed)

    def children(self):
        # The inner plan is intentionally *not* a rewriting child: the
        # fragment now belongs to the wrapper and mediator rules must not
        # rewrite inside it.
        return ()

    def with_children(self, children):
        if children:
            raise AlgebraError("PushedOp has no rewritable children")
        return self

    def output_columns(self):
        return self.plan.output_columns()

    def _key(self):
        return ("pushed", self.source, self.plan._key(), self.native, self.keyed)

    def describe(self):
        native = f" [{self.native}]" if self.native else ""
        return f"Pushed@{self.source}{native}"

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}{self.describe()}"]
        lines.append(self.plan.pretty(indent + 1))
        return "\n".join(lines)
