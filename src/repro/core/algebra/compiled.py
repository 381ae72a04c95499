"""Compiled Bind-filter and predicate kernels.

The interpretive :class:`~repro.core.algebra.bind.FilterMatcher` walks
the filter tree for *every* candidate node, re-deciding at each step
what kind of filter it is looking at, re-reading labels, and scanning
every child of every element linearly.  On the serving path the filter
is fixed per plan node while the data varies, so this module compiles a
:class:`~repro.model.filters.Filter` once into a chain of specialized
closures:

* per-node dispatch (``FElem`` vs ``FConst`` vs ...) is resolved at
  compile time — matching executes no ``isinstance`` on filters;
* label comparison is specialized per label kind (string / variable /
  regex) instead of re-dispatching per node;
* when an element filter has two or more children with concrete string
  labels, matching builds a per-node **label index** over the data
  node's children, replacing the items × children linear scan with a
  dict lookup (document order within a label is preserved, so the
  produced bindings are ordered exactly as the interpreter's);
* star / rest handling is pre-decided: the rest variable's name and the
  per-item target filters are fixed in the closure environment.

``Select`` / ``Join`` predicate :class:`~repro.core.algebra.expressions.Expr`
trees get the same treatment via :func:`compile_predicate`.

Compiled kernels are memoized per plan node — predicates here
(:func:`compiled_predicate`), filter kernels inside the per-filter
engine of :mod:`repro.core.algebra.engine`, which is the only caller of
:func:`compile_filter` — so a cached plan that is executed again, or a
DJoin branch evaluated once per outer row, compiles nothing.  The
interpretive ``FilterMatcher`` remains in place as the differential
oracle: ``ExecutionPolicy.serial()`` disables kernels, and the fuzz
suite checks byte-identical answers between the two.  Semantics match
the interpreter exactly, including error messages, binding order, and
the cartesian-explosion guard.
"""

from __future__ import annotations

import operator as _operator
from itertools import product
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    Expr,
    FunCall,
    Var,
)
from repro.core.algebra.bind import MAX_MATCHES
from repro.errors import BindError, EvaluationError
from repro.memo import Memo
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    Filter,
    FRest,
    FStar,
    FVar,
    LabelRegex,
    LabelVar,
    MissingValue,
)
from repro.model.trees import DataNode

__all__ = [
    "CompiledFilter",
    "compile_filter",
    "compile_predicate",
    "compiled_predicate",
    "predicate_cache_stats",
]

#: ``deref`` for matching without an ident index (no reference chasing).
def identity_deref(node: DataNode) -> DataNode:
    return node


# A match function takes (node, deref) and returns a list of bindings.
_MatchFn = Callable[[DataNode, Callable], List[dict]]


def _compile(flt: Filter) -> _MatchFn:
    if isinstance(flt, FElem):
        return _compile_elem(flt)
    if isinstance(flt, FVar):
        name = flt.name

        def match_var(node, deref):
            atom = node.atom
            if atom is not None:
                return [{name: atom}]
            return [{name: node}]

        return match_var
    if isinstance(flt, FConst):
        value = flt.value

        def match_const(node, deref):
            node = deref(node)
            atom = node.atom
            if atom is not None and atom == value:
                return [{}]
            return []

        return match_const
    if isinstance(flt, FDescend):
        inner = _compile(flt.child)

        def match_descend(node, deref):
            node = deref(node)
            out: List[dict] = []
            for descendant in node.descendants():
                out.extend(inner(descendant, deref))
            return out

        return match_descend
    if isinstance(flt, (FStar, FRest)):
        message = (
            f"{type(flt).__name__} is only meaningful as a child of an "
            "element filter"
        )

        def match_invalid(node, deref):
            raise BindError(message)

        return match_invalid

    def match_unknown(node, deref, _flt=flt):
        raise BindError(f"unknown filter kind: {_flt!r}")

    return match_unknown


def _compile_leaf_content(children) -> Optional[Callable[[DataNode], list]]:
    """Matcher for an atom leaf's content, or ``None`` when it can't match.

    Mirrors ``FilterMatcher._match_leaf_content``: an atom leaf satisfies
    an element filter only when the filter has exactly one child that is
    a variable (binds the atom) or a constant (compares the atom).
    """
    if len(children) != 1:
        return None
    only = children[0]
    if isinstance(only, FVar):
        name = only.name

        def leaf_var(node):
            return [{name: node.atom}]

        return leaf_var
    if isinstance(only, FConst):
        value = only.value

        def leaf_const(node):
            if node.atom == value:
                return [{}]
            return []

        return leaf_const
    return None


def _compile_elem(flt: FElem) -> _MatchFn:
    label = flt.label
    var = flt.var
    # Specialize the label test once instead of per candidate node.
    if isinstance(label, str):
        literal = label
        label_var_name = None
        regex = None
    elif isinstance(label, LabelVar):
        literal = None
        label_var_name = label.name
        regex = None
    elif isinstance(label, LabelRegex):
        literal = None
        label_var_name = None
        regex = label.matches
    else:  # pragma: no cover - Filter validates labels at construction
        literal = None
        label_var_name = None
        regex = None

    leaf_fn = _compile_leaf_content(flt.children)

    # Pre-split the children into the rest capture and the item matchers.
    # A star item matches its inner filter against each child; mandatory
    # items match themselves — the loop below treats both identically
    # (one alternative list per item, element fails on an empty list),
    # which is exactly the interpreter's behavior.
    rest_name: Optional[str] = None
    item_specs: List[Tuple[_MatchFn, Optional[str]]] = []
    indexable = 0
    for item in flt.children:
        if isinstance(item, FRest):
            rest_name = item.name
            continue
        target = item.child if isinstance(item, FStar) else item
        lookup: Optional[str] = None
        if isinstance(target, FElem) and isinstance(target.label, str):
            lookup = target.label
            indexable += 1
        item_specs.append((_compile(target), lookup))
    # A label index pays off once two or more items can use it; with a
    # single item the dict build costs as much as the scan it replaces.
    use_index = indexable >= 2
    has_children_filter = bool(flt.children)

    def match_elem(node, deref):
        node = deref(node)
        node_label = node.label
        if literal is not None:
            if node_label != literal:
                return []
        elif regex is not None:
            if not regex(node_label):
                return []
        own: dict = {}
        if label_var_name is not None:
            own[label_var_name] = node_label
        if var is not None:
            atom = node.atom
            own[var] = atom if atom is not None else node
        if not has_children_filter:
            return [own]
        if node.atom is not None:
            if leaf_fn is None:
                return []
            out = []
            for binding in leaf_fn(node):
                merged = dict(own)
                merged.update(binding)
                out.append(merged)
            return out
        kids = node.children
        by_label: Optional[Dict[str, List[DataNode]]] = None
        if use_index and kids:
            by_label = {}
            for child in kids:
                by_label.setdefault(deref(child).label, []).append(child)
        claimed: set = set()
        alternatives: List[List[dict]] = []
        for item_fn, lookup in item_specs:
            if lookup is not None and by_label is not None:
                candidates = by_label.get(lookup, ())
            else:
                candidates = kids
            alts: List[dict] = []
            for child in candidates:
                bindings = item_fn(child, deref)
                if bindings:
                    claimed.add(id(child))
                    alts.extend(bindings)
            if not alts:
                return []
            alternatives.append(alts)
        rest_value: Optional[tuple] = None
        if rest_name is not None:
            rest_value = tuple(
                child for child in kids if id(child) not in claimed
            )
        # The explosion guard runs after every item matched — a failing
        # later item must return [] rather than raise, like the
        # interpreter.
        total = 1
        for alts in alternatives:
            total *= len(alts)
            if total > MAX_MATCHES:
                raise BindError(
                    f"filter produces more than {MAX_MATCHES} bindings "
                    f"for one tree; refusing the cartesian explosion"
                )
        results: List[dict] = []
        for combo in product(*alternatives):
            merged = dict(own)
            if rest_name is not None:
                merged[rest_name] = rest_value
            for binding in combo:
                merged.update(binding)
            results.append(merged)
        return results

    return match_elem


class CompiledFilter:
    """A filter compiled to closures, with its output schema precomputed."""

    __slots__ = ("filter", "variables", "_match")

    def __init__(self, flt: Filter) -> None:
        self.filter = flt
        #: Variables the filter binds, in declaration order (this also
        #: validates that no variable is bound twice, like the
        #: interpretive path does before matching).
        self.variables = flt.variables()
        self._match = _compile(flt)

    def match(self, node: DataNode, deref=identity_deref) -> List[dict]:
        return self._match(node, deref)

    def __repr__(self) -> str:
        return f"CompiledFilter({self.filter!r})"


def compile_filter(flt: Filter) -> CompiledFilter:
    """Compile *flt* to a scan kernel (unmemoized; the engine memoizes)."""
    return CompiledFilter(flt)


_ORDERING_OPS = {
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


def _compile_expr(expr: Expr) -> Callable[..., object]:
    """Compile a predicate into ``fn(row, functions) -> value``."""
    if isinstance(expr, Var):
        name = expr.name

        def eval_var(row, functions):
            return row[name]

        return eval_var
    if isinstance(expr, Const):
        value = expr.value

        def eval_const(row, functions):
            return value

        return eval_const
    if isinstance(expr, Cmp):
        left = _compile_expr(expr.left)
        right = _compile_expr(expr.right)
        op = expr.op
        if op in ("=", "!="):
            want_equal = op == "="

            def eval_eq(row, functions):
                lhs = left(row, functions)
                if isinstance(lhs, DataNode) and lhs.atom is not None:
                    lhs = lhs.atom
                rhs = right(row, functions)
                if isinstance(rhs, DataNode) and rhs.atom is not None:
                    rhs = rhs.atom
                if isinstance(lhs, MissingValue) or isinstance(rhs, MissingValue):
                    return False
                return (lhs == rhs) if want_equal else (lhs != rhs)

            return eval_eq
        compare = _ORDERING_OPS[op]

        def eval_cmp(row, functions):
            lhs = left(row, functions)
            if isinstance(lhs, DataNode) and lhs.atom is not None:
                lhs = lhs.atom
            rhs = right(row, functions)
            if isinstance(rhs, DataNode) and rhs.atom is not None:
                rhs = rhs.atom
            if isinstance(lhs, MissingValue) or isinstance(rhs, MissingValue):
                return False
            try:
                return compare(lhs, rhs)
            except TypeError:
                raise EvaluationError(
                    f"cannot compare {lhs!r} {op} {rhs!r}"
                ) from None

        return eval_cmp
    if isinstance(expr, BoolAnd):
        operands = [_compile_expr(operand) for operand in expr.operands]

        def eval_and(row, functions):
            return all(bool(fn(row, functions)) for fn in operands)

        return eval_and
    if isinstance(expr, BoolOr):
        operands = [_compile_expr(operand) for operand in expr.operands]

        def eval_or(row, functions):
            return any(bool(fn(row, functions)) for fn in operands)

        return eval_or
    if isinstance(expr, BoolNot):
        inner = _compile_expr(expr.operand)

        def eval_not(row, functions):
            return not bool(inner(row, functions))

        return eval_not
    if isinstance(expr, FunCall):
        name = expr.name
        arg_fns = [_compile_expr(arg) for arg in expr.args]

        def eval_fun(row, functions):
            if not functions or name not in functions:
                raise EvaluationError(
                    f"no implementation for function {name!r} at the "
                    "mediator; it must be pushed to the source that "
                    "declared it"
                )
            values = [fn(row, functions) for fn in arg_fns]
            return functions[name](*values)

        return eval_fun
    # Unknown expression kinds stay interpretive.
    return expr.evaluate


def compile_predicate(expr: Expr) -> Callable[..., object]:
    """Compile *expr* without memoization (tests, one-off evaluation)."""
    return _compile_expr(expr)


#: ``id(expr) -> compiled evaluator``, anchored on the expression.  Plans
#: are immutable, so compiling per object identity is sound; the bound
#: exists only to keep long-lived servers flat.
_PREDICATE_KERNELS = Memo(4096)


def compiled_predicate(expr: Expr) -> Callable[..., object]:
    """The memoized compiled evaluator for *expr*."""
    return _PREDICATE_KERNELS.get_or_build(id(expr), _compile_expr, expr, anchor=expr)


def predicate_cache_stats() -> Dict[str, int]:
    """Counters of the predicate-kernel memo (see :meth:`Memo.stats`)."""
    return _PREDICATE_KERNELS.stats()
