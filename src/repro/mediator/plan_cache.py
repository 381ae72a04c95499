"""The mediator's compile-once plan cache.

Planning a YAT_L query is expensive relative to executing it on the
paper's workloads: the text is lexed and parsed, views are composed,
and three optimizer rounds run.  The
:class:`PlanCache` amortizes all of that across repeated queries the way
a prepared-statement cache does:

* queries are keyed by their *normalized* form
  (:func:`repro.yatl.normalize.normalize_query`), so queries differing
  only in constants share an entry;
* the mediator's **catalog epoch** (bumped by ``connect`` /
  ``load_program`` / ``declare_containment``) is part of the key, so a
  stale plan can never serve;
* on a hit whose constants differ from the cached ones, the cached plan
  is **rebound**: a structural walk replaces every parameter-tagged
  constant with the fresh value, sharing all untouched subtrees (which
  keeps the compiled-kernel memo warm for unchanged Bind filters).

The cache is a bounded :class:`~repro.memo.Memo` and counts hits /
misses / invalidations / rebinds for the ``yat_*`` metrics and
``EXPLAIN`` output.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    Expr,
    FunCall,
)
from repro.core.algebra.operators import (
    BindOp,
    JoinOp,
    MapOp,
    Plan,
    PushedOp,
    SelectOp,
)
from repro.memo import Memo
from repro.model.filters import FConst, FDescend, FElem, Filter, FStar
from repro.yatl.normalize import NormalizedQuery, param_slot

__all__ = ["CachedPlan", "PlanCache", "rebind_plan"]


def _rebind_filter(
    flt: Filter, values: Tuple[object, ...]
) -> Tuple[Filter, bool]:
    if isinstance(flt, FConst):
        slot = param_slot(flt.value)
        if slot is not None:
            return FConst(values[slot]), True
        return flt, False
    if isinstance(flt, FElem):
        rebuilt = [_rebind_filter(child, values) for child in flt.children]
        if any(changed for _child, changed in rebuilt):
            children = [child for child, _changed in rebuilt]
            return FElem(flt.label, children, var=flt.var), True
        return flt, False
    if isinstance(flt, FStar):
        inner, changed = _rebind_filter(flt.child, values)
        return (FStar(inner), True) if changed else (flt, False)
    if isinstance(flt, FDescend):
        inner, changed = _rebind_filter(flt.child, values)
        return (FDescend(inner), True) if changed else (flt, False)
    return flt, False


def _rebind_expr(expr: Expr, values: Tuple[object, ...]) -> Tuple[Expr, bool]:
    if isinstance(expr, Const):
        slot = param_slot(expr.value)
        if slot is not None:
            return Const(values[slot]), True
        return expr, False
    if isinstance(expr, Cmp):
        left, lc = _rebind_expr(expr.left, values)
        right, rc = _rebind_expr(expr.right, values)
        if lc or rc:
            return Cmp(expr.op, left, right), True
        return expr, False
    if isinstance(expr, (BoolAnd, BoolOr)):
        rebuilt = [_rebind_expr(operand, values) for operand in expr.operands]
        if any(changed for _operand, changed in rebuilt):
            return type(expr)([operand for operand, _c in rebuilt]), True
        return expr, False
    if isinstance(expr, BoolNot):
        inner, changed = _rebind_expr(expr.operand, values)
        return (BoolNot(inner), True) if changed else (expr, False)
    if isinstance(expr, FunCall):
        rebuilt = [_rebind_expr(arg, values) for arg in expr.args]
        if any(changed for _arg, changed in rebuilt):
            return FunCall(expr.name, [arg for arg, _c in rebuilt]), True
        return expr, False
    return expr, False


def _rebind_plan(plan: Plan, values: Tuple[object, ...]) -> Tuple[Plan, bool]:
    if isinstance(plan, BindOp):
        inner, input_changed = _rebind_plan(plan.input, values)
        flt, filter_changed = _rebind_filter(plan.filter, values)
        if input_changed or filter_changed:
            return BindOp(inner, flt, plan.on, keep_on=plan.keep_on), True
        return plan, False
    if isinstance(plan, SelectOp):
        inner, input_changed = _rebind_plan(plan.input, values)
        predicate, predicate_changed = _rebind_expr(plan.predicate, values)
        if input_changed or predicate_changed:
            return SelectOp(inner, predicate), True
        return plan, False
    if isinstance(plan, JoinOp):
        left, lc = _rebind_plan(plan.left, values)
        right, rc = _rebind_plan(plan.right, values)
        predicate, pc = _rebind_expr(plan.predicate, values)
        if lc or rc or pc:
            return JoinOp(left, right, predicate), True
        return plan, False
    if isinstance(plan, MapOp):
        inner, input_changed = _rebind_plan(plan.input, values)
        rebuilt = [
            (name, _rebind_expr(expr, values)) for name, expr in plan.bindings
        ]
        if input_changed or any(c for _n, (_e, c) in rebuilt):
            bindings = [(name, expr) for name, (expr, _c) in rebuilt]
            return MapOp(inner, bindings), True
        return plan, False
    if isinstance(plan, PushedOp):
        # The pushed fragment is opaque to ``children()``; recurse into it
        # explicitly.  Any pre-rendered native text would embed the old
        # constants, so a changed fragment drops it (wrappers regenerate
        # native text at call time anyway).
        inner, changed = _rebind_plan(plan.plan, values)
        if changed:
            return PushedOp(plan.source, inner, keyed=plan.keyed), True
        return plan, False
    children = plan.children()
    if not children:
        return plan, False
    rebuilt = [_rebind_plan(child, values) for child in children]
    if any(changed for _child, changed in rebuilt):
        return plan.with_children([child for child, _c in rebuilt]), True
    return plan, False


def rebind_plan(plan: Plan, values: Tuple[object, ...]) -> Plan:
    """*plan* with every parameter-tagged constant replaced from *values*.

    Untouched subtrees are returned by identity, so per-plan-node memos
    (compiled kernels) stay warm for the parts that did not change.
    """
    rebound, _changed = _rebind_plan(plan, values)
    return rebound


class CachedPlan:
    """One cache entry: the plans as built for a specific value vector."""

    __slots__ = ("naive", "plan", "trace", "values")

    def __init__(
        self, naive: Plan, plan: Plan, trace, values: Tuple[object, ...]
    ) -> None:
        self.naive = naive
        self.plan = plan
        self.trace = trace
        self.values = values


class PlanCache:
    """LRU cache of optimized plans keyed by normalized query shape.

    Also memoizes *parsing*: :meth:`normalized` maps raw query text to
    its :class:`~repro.yatl.normalize.NormalizedQuery`, so a repeated
    ``Mediator.query(text)`` skips the lexer entirely.  Both tables are
    :class:`~repro.memo.Memo` tables; the catalog epoch and statistics
    version are part of the plan key, and :meth:`invalidate` clears both.
    """

    __slots__ = ("capacity", "rebinds", "_entries", "_texts", "_lock")

    def __init__(self, capacity: int = 128, text_capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self.rebinds = 0
        self._entries = Memo(capacity)
        self._texts = Memo(max(text_capacity, capacity))
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def normalized(self, text: str) -> Optional[NormalizedQuery]:
        """The memoized normalization of *text*, or ``None`` if unseen."""
        return self._texts.get(text)

    def remember_text(self, text: str, normalized: NormalizedQuery) -> None:
        self._texts.put(text, normalized)

    def lookup(self, key: tuple) -> Optional[CachedPlan]:
        return self._entries.get(key)

    def record_rebind(self) -> None:
        """Count one constant-rebinding hit (under a lock, so concurrent
        sessions never lose increments)."""
        with self._lock:
            self.rebinds += 1

    def store(self, key: tuple, entry: CachedPlan) -> None:
        self._entries.put(key, entry)

    def invalidate(self) -> None:
        """Drop every entry (catalog changed; keys would be stale)."""
        self._entries.clear()
        self._texts.clear()

    def stats(self) -> Dict[str, int]:
        """The plan memo's counters plus ``invalidations`` (its ``stale``)
        and ``rebinds``."""
        stats = self._entries.stats()
        stats["invalidations"] = stats["stale"]
        stats["rebinds"] = self.rebinds
        return stats

    def memo_stats(self) -> Dict[str, Dict[str, int]]:
        """``{memo name: Memo.stats()}`` for the two tables."""
        return {
            "plan_cache": self._entries.stats(),
            "plan_texts": self._texts.stats(),
        }

    def __repr__(self) -> str:
        return f"PlanCache({self.stats()!r})"
