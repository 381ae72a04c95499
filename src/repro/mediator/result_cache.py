"""The mediator's result cache: answers served without re-execution.

The plan cache (:mod:`repro.mediator.plan_cache`) makes *compilation*
free for repeated queries; on a portal workload the dominant cost left
is re-*executing* the same federated plan against sources that did not
change.  The :class:`ResultCache` closes that gap:

* entries are keyed by the query's **normalized shape** plus its
  **constant vector** (:func:`repro.yatl.normalize.normalize_query`),
  the planning knobs that select the plan, and the execution-policy
  knobs that could conceivably change the produced bytes — two queries
  share an entry only when a fresh execution would be byte-identical;
* every entry is **tagged** with the version vector — ``(source,
  data_version())`` for every source the plan touches, read before the
  execution that produced it — so a source update invalidates precisely
  the entries that read that source;
* the bound is **byte size** (the serialized size of the stored Tab),
  not entry count — one huge answer cannot pin a thousand small ones;
* concurrent misses on one key are **single-flight**, so a thundering
  herd on a cold hot-query costs one execution, not N.

The tag rule (and why a racing write is safe), the bound, eviction and
single-flight are :class:`repro.memo.Memo`'s.

Degraded (partial) answers are never stored — a later hit could not
tell them from the full answer.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.algebra.tab import Tab, tab_serialized_size
from repro.memo import Memo

__all__ = ["ResultCache"]

#: Version vector: ``((source, data_version), ...)`` sorted by source.
VersionVector = Tuple[Tuple[str, int], ...]


class ResultCache:
    """Byte-bounded memo of query answers tagged with version vectors.

    A :class:`~repro.memo.Memo` weighed by serialized Tab size; what
    this class adds is the vocabulary (``invalidations`` is the memo's
    ``stale``) and :meth:`serve`, the single-flight entry point.
    """

    __slots__ = ("max_bytes", "_memo")

    def __init__(self, max_bytes: int = 32 << 20) -> None:
        if max_bytes < 1:
            raise ValueError("result cache bound must be at least 1 byte")
        self.max_bytes = max_bytes
        self._memo = Memo(max_bytes, weigh=tab_serialized_size)

    def __len__(self) -> int:
        return len(self._memo)

    def peek(self, key: tuple, versions: VersionVector) -> bool:
        """Would :meth:`serve` hit right now?  Mutates nothing (EXPLAIN)."""
        return self._memo.peek(key, tag=versions)

    def store(self, key: tuple, tab: Tab, versions: VersionVector) -> None:
        """Cache *tab* for *key* as computed at *versions*."""
        self._memo.put(key, tab, tag=versions)

    def serve(
        self,
        key: tuple,
        live_versions: Callable[[], VersionVector],
        execute: Callable[[VersionVector], object],
    ) -> Tuple[bool, object]:
        """``(True, tab)`` on a hit, else ``(False, execute(versions))``.

        Single-flight (:meth:`Memo.single_flight`): one caller executes,
        the rest wait and re-check.  *execute* stores what is cacheable
        under the vector it is handed, read before it ran.
        """
        return self._memo.single_flight(key, live_versions, execute)

    def invalidate(self) -> None:
        """Drop every entry (catalog epoch moved; keys would be stale)."""
        self._memo.clear()

    def stats(self) -> Dict[str, int]:
        """The memo's counters under this cache's names (``bytes`` is its
        ``weight``, ``invalidations`` its ``stale``)."""
        stats = self._memo.stats()
        stats["bytes"] = stats.pop("weight")
        stats["invalidations"] = stats["stale"]
        stats["flight_waits"] = self._memo.flight_waits
        return stats

    def __repr__(self) -> str:
        return f"ResultCache({self.stats()!r})"
