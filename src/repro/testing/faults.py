"""Deterministic fault injection for federated execution.

The paper's Figure 2 architecture assumes every wrapped source answers
every fetch and every pushed fragment; real mediation stacks treat
source unavailability as the common case.  This module makes failure a
*first-class, reproducible* input: a :class:`FaultSchedule` decides, per
source operation and per call index, whether to inject a transient
error, a permanent error, or artificial latency, and
:class:`FaultyAdapter` / :class:`FaultyWrapper` apply that schedule in
front of any :class:`~repro.core.algebra.evaluator.SourceAdapter` or
:class:`~repro.wrappers.base.Wrapper`.

Determinism rules:

* scripted schedules (``fail`` / ``fail_forever`` / ``delay``) depend
  only on the per-operation call count;
* seeded schedules draw every decision from a hash of
  ``(seed, operation, call index)``, so the same seed always produces
  the same failure sequence regardless of wall-clock time or the order
  in which *other* operations are called.

Time is injectable: pass a :class:`VirtualClock`'s ``sleep`` so latency
faults and deadline tests run instantly and deterministically.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import SourceError
from repro.core.algebra.evaluator import SourceAdapter
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import Row, Tab
from repro.model.trees import DataNode
from repro.wrappers.base import Wrapper

#: Source operations a schedule can target.
OPERATIONS = ("document", "ident_index", "execute_pushed")

TRANSIENT = "transient"
PERMANENT = "permanent"
LATENCY = "latency"


class InjectedFaultError(SourceError):
    """An error injected by a :class:`FaultSchedule` (never raised by real
    sources).  ``kind`` is ``"transient"`` or ``"permanent"``; the
    distinction is descriptive — a resilience policy cannot tell them
    apart, exactly as a mediator cannot tell a crashed source from a
    slow one."""

    def __init__(self, source: str, operation: str, index: int, kind: str) -> None:
        super().__init__(
            f"injected {kind} fault: {source}.{operation} (call #{index})"
        )
        self.source = source
        self.operation = operation
        self.index = index
        self.kind = kind


class Fault:
    """One scheduled fault: an error kind and/or added latency."""

    __slots__ = ("kind", "latency")

    def __init__(self, kind: str, latency: float = 0.0) -> None:
        if kind not in (TRANSIENT, PERMANENT, LATENCY):
            raise ValueError(f"unknown fault kind {kind!r}")
        self.kind = kind
        self.latency = latency

    def __repr__(self) -> str:
        if self.latency:
            return f"Fault({self.kind!r}, latency={self.latency})"
        return f"Fault({self.kind!r})"


class VirtualClock:
    """A manually-advanced clock, so latency and deadlines are testable
    without real sleeping.  ``time``/``sleep`` mirror the :mod:`time`
    functions a :class:`~repro.mediator.resilience.ResiliencePolicy`
    takes."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)

    def time(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(0.0, float(seconds))

    advance = sleep


class FaultSchedule:
    """Per-operation fault plan, scripted and/or seeded.

    Scripted entries are consumed by per-operation call count; a seeded
    component (from :meth:`seeded`) adds hash-derived faults on top.
    The builder methods return ``self`` so schedules chain::

        FaultSchedule().fail("document", times=2).delay("execute_pushed", 0.5)
    """

    def __init__(self) -> None:
        #: operation -> list of (first_index, last_index or None, Fault)
        self._windows: Dict[str, List[Tuple[int, Optional[int], Fault]]] = {}
        self._seed: Optional[int] = None
        self._fault_rate = 0.0
        self._permanent_rate = 0.0
        self._max_latency = 0.0
        self._seeded_operations: Tuple[str, ...] = OPERATIONS

    # -- builders -----------------------------------------------------------------

    def fail(
        self, operation: str = "document", times: int = 1, latency: float = 0.0
    ) -> "FaultSchedule":
        """Fail the next *times* calls to *operation* transiently, then
        let every later call through (a recover-after-*times* source)."""
        self._windows.setdefault(operation, []).append(
            (0, times - 1, Fault(TRANSIENT, latency))
        )
        return self

    def fail_forever(
        self, operation: str = "document", after: int = 0
    ) -> "FaultSchedule":
        """Fail every call to *operation* from call index *after* on —
        a permanently dead operation."""
        self._windows.setdefault(operation, []).append(
            (after, None, Fault(PERMANENT))
        )
        return self

    def delay(
        self, operation: str = "document", seconds: float = 0.1,
        times: Optional[int] = None,
    ) -> "FaultSchedule":
        """Add *seconds* of latency to calls to *operation* (the first
        *times* calls, or all of them when ``times`` is ``None``)."""
        last = None if times is None else times - 1
        self._windows.setdefault(operation, []).append(
            (0, last, Fault(LATENCY, seconds))
        )
        return self

    def dead_source(self) -> "FaultSchedule":
        """Every operation fails permanently — the source is down."""
        for operation in OPERATIONS:
            self.fail_forever(operation)
        return self

    @classmethod
    def seeded(
        cls,
        seed: int,
        fault_rate: float = 0.3,
        permanent_rate: float = 0.0,
        max_latency: float = 0.0,
        operations: Tuple[str, ...] = OPERATIONS,
    ) -> "FaultSchedule":
        """A pseudo-random schedule fully determined by *seed*.

        Each ``(operation, call index)`` pair independently draws: with
        probability *fault_rate* a fault, which is permanent with
        probability *permanent_rate*, else transient; latency (when
        *max_latency* > 0) is a deterministic fraction of it.
        """
        schedule = cls()
        schedule._seed = seed
        schedule._fault_rate = fault_rate
        schedule._permanent_rate = permanent_rate
        schedule._max_latency = max_latency
        schedule._seeded_operations = tuple(operations)
        return schedule

    # -- decisions ----------------------------------------------------------------

    @staticmethod
    def _draw(seed: int, operation: str, index: int, what: str) -> float:
        """Deterministic uniform [0, 1) from a hash — no global RNG state."""
        digest = hashlib.sha256(
            f"{seed}:{operation}:{index}:{what}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def fault_for(self, operation: str, index: int) -> Optional[Fault]:
        """The fault to inject on call *index* of *operation*, if any.
        Scripted windows win over the seeded component."""
        for first, last, fault in self._windows.get(operation, ()):
            if index >= first and (last is None or index <= last):
                return fault
        if self._seed is not None and operation in self._seeded_operations:
            if self._draw(self._seed, operation, index, "fault") < self._fault_rate:
                permanent = (
                    self._draw(self._seed, operation, index, "kind")
                    < self._permanent_rate
                )
                latency = (
                    self._draw(self._seed, operation, index, "latency")
                    * self._max_latency
                )
                return Fault(PERMANENT if permanent else TRANSIENT, latency)
            if self._max_latency and self._draw(
                self._seed, operation, index, "slow"
            ) < self._fault_rate:
                return Fault(
                    LATENCY,
                    self._draw(self._seed, operation, index, "latency")
                    * self._max_latency,
                )
        return None


class FaultInjector:
    """Applies a :class:`FaultSchedule` call by call, keeping a log.

    ``injected`` records ``(operation, index, kind)`` for every fault
    actually applied — tests assert reproducibility against it.
    """

    def __init__(
        self,
        source: str,
        schedule: FaultSchedule,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.source = source
        self.schedule = schedule
        self._lock = threading.Lock()
        self.call_counts: Counter = Counter()
        self.injected: List[Tuple[str, int, str]] = []
        self._sleep = sleep if sleep is not None else time.sleep

    def before(self, operation: str) -> None:
        """Consume one call slot for *operation*; sleep and/or raise.

        Call-slot allocation and the injection log are guarded by a lock
        (parallel branches may hit one injector concurrently); the
        latency sleep happens outside it so injected delays overlap the
        way real source latency does.
        """
        with self._lock:
            index = self.call_counts[operation]
            self.call_counts[operation] += 1
            fault = self.schedule.fault_for(operation, index)
            if fault is not None:
                self.injected.append((operation, index, fault.kind))
        if fault is None:
            return
        if fault.latency:
            self._sleep(fault.latency)
        if fault.kind != LATENCY:
            raise InjectedFaultError(self.source, operation, index, fault.kind)


class FaultyAdapter(SourceAdapter):
    """Wrap any :class:`SourceAdapter`, injecting scheduled faults.

    ``document_names`` is treated as catalog metadata and never faulted —
    the failure modes of interest are the data-plane calls the paper's
    mediator makes mid-query.
    """

    def __init__(
        self,
        inner: SourceAdapter,
        schedule: FaultSchedule,
        name: Optional[str] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.inner = inner
        self.name = name or getattr(inner, "name", "source")
        self.injector = FaultInjector(self.name, schedule, sleep)

    @property
    def injected(self) -> List[Tuple[str, int, str]]:
        return self.injector.injected

    def document_names(self) -> Tuple[str, ...]:
        return self.inner.document_names()

    def document_name_set(self) -> frozenset:
        return self.inner.document_name_set()

    def document(self, name: str) -> DataNode:
        self.injector.before("document")
        return self.inner.document(name)

    def ident_index(self) -> Dict[str, DataNode]:
        self.injector.before("ident_index")
        return self.inner.ident_index()

    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        self.injector.before("execute_pushed")
        return self.inner.execute_pushed(plan, outer)


class FaultyWrapper(Wrapper):
    """A faulty :class:`Wrapper`: connectable to a mediator.

    Planning-time surfaces (interface export, document names, data
    version) pass through un-faulted; the execution-time calls —
    ``document``, ``ident_index``, ``execute_pushed`` — go through the
    same :class:`FaultInjector` as :class:`FaultyAdapter`.
    """

    def __init__(
        self,
        inner: Wrapper,
        schedule: FaultSchedule,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        super().__init__(inner.name)
        self.inner = inner
        self.injector = FaultInjector(inner.name, schedule, sleep)

    @property
    def injected(self) -> List[Tuple[str, int, str]]:
        return self.injector.injected

    # -- planning-time passthrough ------------------------------------------------

    def build_interface(self):
        return self.inner.interface()

    def document_names(self) -> Tuple[str, ...]:
        return self.inner.document_names()

    def data_version(self) -> int:
        # Forwarded un-faulted: the result cache's version vector must
        # see the real source move even through an injected fault.
        return self.inner.data_version()

    def memo_stats(self):
        # The inner wrapper's memos do the work; this proxy's own are
        # never used and would export as all-zero rows.
        return self.inner.memo_stats()

    # -- execution-time fault injection --------------------------------------------

    def build_document(self, name: str) -> DataNode:
        # Unreachable through the faulted ``document`` override below;
        # defined so this class satisfies the Wrapper ABC.
        return self.inner.document(name)

    def document(self, name: str) -> DataNode:
        self.injector.before("document")
        return self.inner.document(name)

    def ident_index(self) -> Dict[str, DataNode]:
        self.injector.before("ident_index")
        return self.inner.ident_index()

    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        self.injector.before("execute_pushed")
        return self.inner.execute_pushed(plan, outer)

    def run_fragment(self, fragment, plan, outer):
        return self.inner.run_fragment(fragment, plan, outer)
