"""The mediator's compile-once plan cache.

Planning a YAT_L query is expensive relative to executing it on the
paper's workloads: the text is lexed and parsed, views are composed,
and three optimizer rounds run.  The
:class:`PlanCache` amortizes all of that across repeated queries the way
a prepared-statement cache does:

* queries are keyed by their *normalized* form
  (:func:`repro.yatl.normalize.normalize_query`), whose constants are
  typed :class:`~repro.core.algebra.expressions.Param` slots — so queries
  differing only in constants share an entry;
* the mediator's **catalog epoch** (bumped by ``connect`` /
  ``load_program`` / ``declare_containment``) is part of the key, so a
  stale plan can never serve;
* a cached plan is **parametric**: it holds parameter slots, never
  values, and each request brings its vector in its
  :class:`~repro.observability.context.RequestContext`.  A hit is lookup,
  bind, execute — the very plan objects serve every vector, so what
  execution compiles and keeps on a plan node (Bind engines, predicate
  kernels, wrapper fragments, store pushdowns) serves every constant.

The cache is a bounded :class:`~repro.memo.Memo` and counts hits /
misses / invalidations for the ``yat_*`` metrics and ``EXPLAIN`` output.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.algebra.operators import Plan
from repro.memo import Memo
from repro.yatl.normalize import NormalizedQuery

__all__ = ["BoundPlan", "CachedPlan", "PlanCache"]


class CachedPlan:
    """One cache entry: the parametric plans of one query shape."""

    __slots__ = ("naive", "plan", "trace")

    def __init__(self, naive: Plan, plan: Plan, trace) -> None:
        self.naive = naive
        self.plan = plan
        self.trace = trace


class BoundPlan(Plan):
    """A parametric plan with one request's parameter vector.

    What :meth:`~repro.mediator.mediator.Mediator.plan_query` hands out,
    so the staged ``plan_query`` → ``execute`` path runs a cached plan
    without a new argument.  Built per request and never cached: the one
    plan node that holds bound values.
    """

    __slots__ = ("plan", "params")

    def __init__(self, plan: Plan, params: Tuple[object, ...]) -> None:
        self.plan = plan
        self.params = params

    def output_columns(self):
        return self.plan.output_columns()

    def describe(self):
        return f"Bound({', '.join(map(repr, self.params))})"


class PlanCache:
    """LRU cache of optimized plans keyed by normalized query shape.

    Also memoizes *parsing*: :meth:`normalized` maps raw query text to
    its :class:`~repro.yatl.normalize.NormalizedQuery`, so a repeated
    ``Mediator.query(text)`` skips the lexer entirely.  Both tables are
    :class:`~repro.memo.Memo` tables; the catalog epoch is part of the
    plan key, and :meth:`invalidate` clears both.
    """

    __slots__ = ("capacity", "_entries", "_texts")

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("plan cache capacity must be at least 1")
        self.capacity = capacity
        self._entries = Memo(capacity)
        # Many texts share one shape, so the parse memo holds more texts
        # than the plan memo holds shapes.
        self._texts = Memo(max(512, capacity))

    def __len__(self) -> int:
        return len(self._entries)

    def normalized(self, text: str) -> Optional[NormalizedQuery]:
        """The memoized normalization of *text*, or ``None`` if unseen."""
        return self._texts.get(text)

    def remember_text(self, text: str, normalized: NormalizedQuery) -> None:
        self._texts.put(text, normalized)

    def lookup(self, key: tuple) -> Optional[CachedPlan]:
        return self._entries.get(key)

    def store(self, key: tuple, entry: CachedPlan) -> None:
        self._entries.put(key, entry)

    def invalidate(self) -> None:
        """Drop every entry (catalog changed; keys would be stale)."""
        self._entries.clear()
        self._texts.clear()

    def stats(self) -> Dict[str, int]:
        """The plan memo's counters plus ``invalidations`` (its ``stale``)."""
        stats = self._entries.stats()
        stats["invalidations"] = stats["stale"]
        return stats

    def memo_stats(self) -> Dict[str, Dict[str, int]]:
        """``{memo name: Memo.stats()}`` for the two tables."""
        return {
            "plan_cache": self._entries.stats(),
            "plan_texts": self._texts.stats(),
        }

    def __repr__(self) -> str:
        return f"PlanCache({self.stats()!r})"
