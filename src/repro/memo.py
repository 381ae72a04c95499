"""The one bounded memo under every cache in this package.

The paper's mediator holds no data (Section 2): every cache here is an
extension whose whole correctness contract is *freshness*.  This module
makes the four decisions that contract needs once, so no cache argues
them again:

**Eviction** — least-recently-used, one entry at a time.  The bound is
an entry count, or the summed ``weigh(value)`` when a weigher is given
(the mediator's result cache weighs answers in serialized bytes); a
value heavier than the whole bound is not stored, and its key's older
value goes.  ``capacity`` is a plain attribute: an owner whose table has
a natural size it learns late (one slot per exported document, per
declared view) assigns it instead of guessing a constant.

**Staleness** — an entry may carry a ``tag``: the data version (or
version vector) of what the value was computed from, read by the caller
**before** it computes the value.  A lookup presents the *live* tag; an
entry holding any other tag is dropped, counted an ``invalidation``,
and the lookup misses.  Because the tag is captured first, a write racing the
computation can only make the entry *look* stale — an old value is never
served under a new tag.  :meth:`Memo.clear` is the same rule applied to
everything at once (the catalog epoch moved under every entry).  A
writer that holds the new value itself may :meth:`Memo.replace` a
resident entry under the new tag; it never inserts one.

**Races** — :meth:`Memo.get_or_build` builds outside the lock; when two
builders race on one key and tag, the incumbent is kept and
returned to both, so every caller sees one stable object (trees cache
their value keys and sizes on the instance).  :meth:`Memo.single_flight`
additionally elects one leader per key while the others wait and
re-look-up; a leader that raises still releases its waiters.

**Counters** — :meth:`Memo.stats` returns the same keys for every memo:
``entries``, ``capacity``, ``hits``, ``misses``, ``invalidations``,
``evictions``, ``flight_waits`` (plus ``weight`` when weighed).  A cache
is a plain ``Memo`` held by its owner (the mediator's plan and result
caches among them); nothing wraps one to rename these.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

__all__ = ["Memo"]

_MISSING = object()

#: A waiter re-checks after this long even if the leader never released
#: it (it always does, in a ``finally``); the bound only matters if the
#: leader's thread is killed outright.
_FLIGHT_WAIT_SECONDS = 5.0


class Memo:
    """A locked, recency-ordered table bounded by count or weight."""

    __slots__ = (
        "capacity", "_weigh", "_lock", "_entries", "_weight", "_inflight",
        "hits", "misses", "invalidations", "evictions", "flight_waits",
    )

    def __init__(
        self, capacity: int, weigh: Optional[Callable[[object], int]] = None
    ) -> None:
        self.capacity = capacity
        self._weigh = weigh
        self._lock = threading.Lock()
        #: ``key -> (value, tag, weight)``, least recently used first.
        self._entries: "OrderedDict[object, tuple]" = OrderedDict()
        self._weight = 0
        #: Single-flight: ``key -> Event`` set when the leader is done.
        self._inflight: Dict[object, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        #: Entries dropped because their tag no longer matched,
        #: or by :meth:`clear`.
        self.invalidations = 0
        #: Entries dropped to stay under the bound.
        self.evictions = 0
        #: Times a caller waited on another caller's single-flight build.
        self.flight_waits = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup / store -----------------------------------------------------------

    def _lookup(self, key, tag):
        """The resident value or ``_MISSING``; caller holds the lock."""
        entry = self._entries.get(key)
        if entry is not None:
            if entry[1] == tag:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry[0]
            del self._entries[key]
            self._weight -= entry[2]
            self.invalidations += 1
        self.misses += 1
        return _MISSING

    def _store(self, key, value, tag, weight: int) -> None:
        """Insert or replace *key*, then evict; caller holds the lock."""
        previous = self._entries.pop(key, None)
        if previous is not None:
            self._weight -= previous[2]
        if weight > self.capacity:
            return
        self._entries[key] = (value, tag, weight)
        self._weight += weight
        while self._weight > self.capacity:
            _key, evicted = self._entries.popitem(last=False)
            self._weight -= evicted[2]
            self.evictions += 1

    def _weigh_value(self, value) -> int:
        return 1 if self._weigh is None else self._weigh(value)

    def get(self, key, tag=None):
        """The value stored for *key* under the live *tag*, or ``None``."""
        with self._lock:
            value = self._lookup(key, tag)
        return None if value is _MISSING else value

    def peek(self, key, tag=None) -> bool:
        """Would :meth:`get` hit right now?  Mutates nothing (EXPLAIN)."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry[1] == tag

    def put(self, key, value, tag=None) -> None:
        """Store *value* for *key*, replacing any resident entry."""
        weight = self._weigh_value(value)
        with self._lock:
            self._store(key, value, tag, weight)

    def replace(self, key, value, tag=None) -> None:
        """Store *value* under *tag* only if *key* is resident.

        For a writer that holds what a rebuild would compute: the entry
        moves to the new tag instead of dying stale, and nothing absent
        is inserted.  A racing builder may overwrite it under its older
        tag, which only makes the next lookup rebuild.
        """
        weight = self._weigh_value(value)
        with self._lock:
            if key in self._entries:
                self._store(key, value, tag, weight)

    def get_or_build(self, key, build: Callable, *args, tag=None):
        """The value for *key* at *tag*, calling ``build(*args)`` on a miss.

        The build runs outside the lock.  If a racing builder stored the
        same key and tag first, its value is kept and returned.
        Passing *args* here spares hot callers a closure per probe.
        """
        with self._lock:
            value = self._lookup(key, tag)
        if value is not _MISSING:
            return value
        value = build(*args)
        weight = self._weigh_value(value)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[1] == tag:
                return entry[0]
            self._store(key, value, tag, weight)
        return value

    def single_flight(
        self, key, live_tag: Callable[[], object],
        lead: Callable[[object], object],
    ) -> Tuple[bool, object]:
        """Serve *key* at its live tag, or run ``lead(tag)`` as the one leader.

        Returns ``(True, value)`` on a hit.  On a miss the first caller
        becomes the leader and gets ``(False, lead(tag))`` — *lead*
        decides what (if anything) to :meth:`put`, under the tag it was
        handed, which was read before it ran.  Concurrent callers wait
        for the leader, then read the live tag again and re-look-up.
        """
        while True:
            tag = live_tag()
            with self._lock:
                value = self._lookup(key, tag)
                if value is not _MISSING:
                    return True, value
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    break
                self.flight_waits += 1
            event.wait(_FLIGHT_WAIT_SECONDS)
        try:
            return False, lead(tag)
        finally:
            with self._lock:
                event = self._inflight.pop(key)
            event.set()

    def clear(self) -> None:
        """Drop every entry as invalid (what they were keyed on moved)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()
            self._weight = 0

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats = {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "flight_waits": self.flight_waits,
            }
            if self._weigh is not None:
                stats["weight"] = self._weight
        return stats
