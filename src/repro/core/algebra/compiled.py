"""Compiled Bind-filter and predicate kernels.

The scan kernel, the one Bind executor behind
:class:`~repro.core.algebra.engine.BindEngine`, compiles a filter once
into a chain of specialized closures built from its steps
(:func:`~repro.core.algebra.lowering.lower` — the same steps the store
prints as SQL).  Where the interpretive
:class:`~repro.core.algebra.bind.FilterMatcher` re-decides at every
candidate node what each filter node is, here the dispatch and the label
test (string / variable / regex) are resolved at compile time:

* an element matches in **one walk** over its direct children: each
  child is dereferenced once and dispatched by label to pre-resolved
  ``(slot, kind, own, value)`` records.  Simple field accesses
  (``title``, ``title $t``, ``title [$t]``, ``style ['Cubist']``) are
  matched inline; every other item is a compiled sub-matcher tried on
  the children its label admits;
* bindings are fixed-width tuples in the filter's declaration order
  (:meth:`Filter.variables`) — an element's own cells, then each item's
  cells, the rest capture at its declared position — so Bind zips them
  straight into columns, with no per-binding dicts.

``Select`` / ``Join`` predicates get the same treatment via
:func:`compile_predicate`.  Kernels are memoized per plan node —
predicates here (:func:`compiled_predicate`), filter kernels in
:mod:`repro.core.algebra.engine`, the only caller of
:func:`compile_filter` — so a cached plan compiles nothing again.  A
lifted query constant (:class:`~repro.core.algebra.expressions.Param`)
compiles to a read of the request's parameter vector, so one kernel
serves every vector.  ``FilterMatcher`` stays the differential oracle
(``ExecutionPolicy.serial()``): semantics match it exactly, including
error messages, binding order, rest claiming and the explosion guard.
"""

from __future__ import annotations

import operator as _operator
from itertools import product
from typing import Callable, Dict, List, Optional

from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    Expr,
    FunCall,
    Param,
    Var,
    bound,
)
from repro.core.algebra.bind import MAX_MATCHES
from repro.core.algebra.lowering import (
    CHILD,
    CONSTANT,
    DESCENDING,
    ELEMENT,
    NONE,
    VARIABLE,
    Step,
    lower,
)
from repro.errors import BindError, EvaluationError
from repro.memo import Memo
from repro.model.filters import Filter, LabelRegex, LabelVar, MissingValue
from repro.model.trees import DataNode

__all__ = [
    "compile_filter",
    "compile_predicate",
    "compiled_predicate",
    "identity_deref",
    "predicate_cache_stats",
]

#: ``deref`` for matching without an ident index (no reference chasing).
def identity_deref(node: DataNode) -> DataNode:
    return node


# A match function takes (node, deref) and returns a list of binding
# tuples in its filter's declaration order.
_MatchFn = Callable[[DataNode, Callable], List[tuple]]

# Item kinds of the element matcher's child dispatch.
_BARE = 0        # childless element, no variable: binds nothing
_NODE = 1        # childless element binding the child (or its atom)
_LEAF_VAR = 2    # element whose single child is a variable
_LEAF_CONST = 3  # element whose single child is a constant
_SUB = 4         # anything else: a compiled sub-matcher


def compile_filter(flt: Filter) -> _MatchFn:
    """Compile *flt* to a scan kernel (unmemoized; the engine memoizes)."""
    return _compile_step(lower(flt).steps[0])


def _compile_step(step: Step) -> _MatchFn:
    """The matcher of *step* at its anchor point (a ``**`` axis walks
    the point's descendants-or-self)."""
    inner = _compile_test(step)
    if step.axis not in DESCENDING:
        return inner

    def match_descend(node, deref):
        out: List[tuple] = []
        for descendant in deref(node).descendants():
            out.extend(inner(descendant, deref))
        return out

    return match_descend


def _compile_test(step: Step) -> _MatchFn:
    test = step.test
    if test == ELEMENT:
        return _compile_elem(step)
    if test == VARIABLE:

        def match_var(node, deref):
            atom = node.atom
            return [(atom if atom is not None else node,)]

        return match_var
    if test == CONSTANT:
        value = step.value

        def match_const(node, deref):
            atom = deref(node).atom
            if atom is not None and atom == bound(value):
                return [()]
            return []

        return match_const
    if test == NONE:
        return _compile_step(step.items[0])
    message = step.value

    def match_invalid(node, deref):
        raise BindError(message)

    return match_invalid


def _item_record(step: Step, slot: int):
    """``(dispatch label, record)``; a ``None`` label tries every child."""
    label = step.value
    if step.axis != CHILD or step.test != ELEMENT or not isinstance(label, str):
        return None, (slot, _SUB, False, _compile_step(step))
    own = step.var is not None
    if not step.items and step.rest is None:
        return label, (slot, _NODE if own else _BARE, own, None)
    leaf = step.leaf()
    if leaf is not None and leaf.test == VARIABLE:
        return label, (slot, _LEAF_VAR, own, None)
    if leaf is not None and leaf.test == CONSTANT:
        return label, (slot, _LEAF_CONST, own, leaf.value)
    return label, (slot, _SUB, False, _compile_step(step))


def _compile_elem(step: Step) -> _MatchFn:
    label = step.value
    var = step.var
    literal = label if isinstance(label, str) else None
    binds_label = isinstance(label, LabelVar)
    regex = label.matches if isinstance(label, LabelRegex) else None
    has_items = bool(step.items) or step.rest is not None

    # An atom leaf satisfies an element filter only when its single
    # child is a variable (binds the atom) or a constant (compares it).
    leaf = step.leaf()
    leaf_var = leaf is not None and leaf.test == VARIABLE
    leaf_const = leaf is not None and leaf.test == CONSTANT
    leaf_value = leaf.value if leaf_const else None

    # Dispatch table: child label -> records of the items that label
    # admits, followed by the items every child is tried against.
    labeled: Dict[str, list] = {}
    anywhere: list = []
    for slot, item in enumerate(step.items):
        key, record = _item_record(item, slot)
        if key is None:
            anywhere.append(record)
        else:
            labeled.setdefault(key, []).append(record)
    rest_at = step.rest
    n_items = len(step.items)
    unlabeled = tuple(anywhere)
    table = {key: tuple(records) + unlabeled for key, records in labeled.items()}

    def match_elem(node, deref):
        if node.ref_target is not None:
            node = deref(node)
        node_label = node.label
        if literal is not None:
            if node_label != literal:
                return []
        elif regex is not None and not regex(node_label):
            return []
        atom = node.atom
        own: tuple = (node_label,) if binds_label else ()
        if var is not None:
            own += (atom if atom is not None else node,)
        if not has_items:
            return [own]
        if atom is not None:
            if leaf_var:
                return [own + (atom,)]
            if leaf_const and atom == bound(leaf_value):
                return [own]
            return []

        alternatives: List[list] = [[] for _ in range(n_items)]
        rest: Optional[list] = [] if rest_at is not None else None
        errors: Optional[dict] = None
        for child in node.children:
            found = child if child.ref_target is None else deref(child)
            matched = False
            for islot, kind, own_var, value in table.get(found.label, unlabeled):
                alts = alternatives[islot]
                if kind == _LEAF_VAR:
                    catom = found.atom
                    if catom is not None:
                        alts.append((catom, catom) if own_var else (catom,))
                        matched = True
                    else:
                        for grandchild in found.children:
                            cell = grandchild.atom
                            if cell is None:
                                cell = grandchild
                            alts.append((found, cell) if own_var else (cell,))
                            matched = True
                elif kind == _BARE:
                    alts.append(())
                    matched = True
                elif kind == _NODE:
                    catom = found.atom
                    alts.append((catom if catom is not None else found,))
                    matched = True
                elif kind == _LEAF_CONST:
                    if value.__class__ is Param:
                        value = bound(value)
                    catom = found.atom
                    if catom is not None:
                        if catom == value:
                            alts.append((catom,) if own_var else ())
                            matched = True
                    else:
                        for grandchild in found.children:
                            if grandchild.ref_target is not None:
                                grandchild = deref(grandchild)
                            cell = grandchild.atom
                            if cell is not None and cell == value:
                                alts.append((found,) if own_var else ())
                                matched = True
                else:
                    # A sub-matcher may raise; the oracle would only see
                    # the error if every earlier item matched, so it is
                    # held until the items are checked in order below.
                    try:
                        bindings = value(child, deref)
                    except BindError as error:
                        if errors is None:
                            errors = {}
                        errors.setdefault(islot, error)
                        continue
                    if bindings:
                        alts.extend(bindings)
                        matched = True
            if not matched and rest is not None:
                rest.append(child)

        # The explosion guard runs after every item matched — a failing
        # later item returns [] rather than raising, like the oracle.
        total = 1
        for islot, alts in enumerate(alternatives):
            if errors is not None and islot in errors:
                raise errors[islot]
            if not alts:
                return []
            total *= len(alts)
        if total > MAX_MATCHES:
            raise BindError(
                f"filter produces more than {MAX_MATCHES} bindings "
                f"for one tree; refusing the cartesian explosion"
            )
        if rest is not None:
            alternatives.insert(rest_at, [(tuple(rest),)])
        if total == 1:
            row = own
            for alts in alternatives:
                row += alts[0]
            return [row]
        if len(alternatives) == 1:
            return [own + part for part in alternatives[0]]
        results: List[tuple] = []
        for combo in product(*alternatives):
            row = own
            for part in combo:
                row += part
            results.append(row)
        return results

    return match_elem


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
        if value.__class__ is Param:

            def eval_param(row, functions):
                return bound(value)

            return eval_param

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
