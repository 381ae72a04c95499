"""Federated execution scheduling: policy, thread pool, source-call cache.

The paper's mediator minimizes its *own* work by shipping fragments to
wrapped sources, but the seed evaluator still talks to those sources one
call at a time: Union branches over disjoint sources evaluate serially,
and the paper's DJoin issues one pushed round trip per outer row.  This
module holds the machinery the evaluator uses
to remove that serialization without changing any answer:

* :class:`ExecutionPolicy` — ``parallelism``, the one setting, plus the
  ``serial()`` reference mode.  The default keeps ``parallelism=1``, so
  evaluation order — and therefore every side effect visible to a
  single-threaded run — is unchanged;
* :class:`PlanScheduler` — a bounded thread pool for concurrent branch
  evaluation that cannot deadlock under nesting: a waiting thread
  reclaims any task the pool has not started yet and runs it inline;
* :class:`SourceCallCache` — a per-execution memo of wrapper round trips
  keyed by ``(operation, source, canonical plan key, outer constants)``;
* :func:`plan_parameters` — the outer columns a plan can observe, which
  is both the DJoin batching key and the pushed-call cache key — and
  :func:`passed_pairs`, whether a DJoin may pass its bindings as one set.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    FuseOp,
    IntersectOp,
    JoinOp,
    LiteralOp,
    MapOp,
    Plan,
    PushedOp,
    SelectOp,
    SourceOp,
    UnionOp,
    UnitOp,
)
from repro.core.algebra.tab import BindingSet, Row
from repro.model.filters import MissingValue
from repro.model.trees import DataNode


class ExecutionPolicy:
    """Immutable configuration of one plan execution.

    ``parallelism`` bounds the number of plan branches evaluated
    concurrently; ``1`` (the default) keeps the seed's strictly serial
    evaluation order.  It is the only setting.  Everything else the
    engine does to save mediator work — the per-execution source-call
    cache, set-valued DJoin information passing, compiled Bind and
    predicate kernels, twig joins over indexed documents, columnar Tab
    batches, prepared OQL in the O2 wrapper — is always on, because none
    of it can change a produced Tab.

    :meth:`serial` builds the one other mode: the *reference* engine
    every optimization is tested against.  ``reference`` is read-only
    and set nowhere else.
    """

    __slots__ = ("_parallelism", "_reference")

    def __init__(self, parallelism: int = 1) -> None:
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self._parallelism = parallelism
        self._reference = False

    @classmethod
    def serial(cls) -> "ExecutionPolicy":
        """The seed behavior, byte for byte (the differential oracle):
        interpretive matcher and predicates, row-at-a-time Tabs, one
        right-branch evaluation per DJoin row, no source-call cache,
        interpretive OQL in the O2 wrapper, no pool."""
        policy = cls(parallelism=1)
        policy._reference = True
        return policy

    @classmethod
    def parallel(cls, parallelism: int = 4) -> "ExecutionPolicy":
        """Concurrent dispatch over *parallelism* pool threads."""
        return cls(parallelism=parallelism)

    @property
    def parallelism(self) -> int:
        return self._parallelism

    @property
    def reference(self) -> bool:
        """Whether this is the :meth:`serial` reference engine."""
        return self._reference

    @property
    def concurrent(self) -> bool:
        return self._parallelism > 1

    def __repr__(self) -> str:
        if self._reference:
            return "ExecutionPolicy.serial()"
        return f"ExecutionPolicy(parallelism={self._parallelism})"


class PlanScheduler:
    """Bounded thread pool for concurrent plan-branch evaluation.

    Deadlock freedom under nesting (a parallel Union inside a parallel
    Join, say) relies on one rule: :meth:`run` submits every thunk to the
    pool, then — instead of blocking on a queued task — *reclaims* it.
    ``Future.cancel`` succeeds exactly when the pool has not started the
    task, in which case the waiting thread runs the thunk inline.  A
    thread therefore only ever blocks on tasks actually running on some
    other thread, and those terminate; a saturated pool degrades to
    inline (serial) evaluation instead of deadlocking.
    """

    def __init__(self, parallelism: int) -> None:
        if parallelism < 2:
            raise ValueError("a scheduler needs parallelism >= 2")
        self.parallelism = parallelism
        self._executor = ThreadPoolExecutor(
            max_workers=parallelism, thread_name_prefix="yat-exec"
        )

    def run(
        self, thunks: Sequence[Callable[[], object]], tracer=None, context=None
    ) -> List[tuple]:
        """Evaluate *thunks*, returning ``(value, error)`` pairs in order.

        Exactly one of the pair is ``None``; errors are captured rather
        than raised so the caller can apply its own propagation order
        (the evaluator prefers the leftmost branch's error, matching
        serial semantics).

        When *tracer* is given, each thunk is bound to the dispatching
        thread's open span (:meth:`~repro.observability.tracer.Tracer.bind`),
        so spans created on pool threads — or inline on the reclaim
        path — parent exactly as they would under serial evaluation.

        When *context* is given, each thunk additionally runs under that
        :class:`~repro.observability.context.RequestContext` — bound
        *outermost*, so the request's reference flag and call cache are
        already active when the tracer binding installs its span parent.
        One scheduler pool may serve many concurrent requests; the
        binding is what keeps each thunk inside its own request.
        """
        if tracer is None and context is not None:
            tracer = context.tracer
        if tracer is not None:
            thunks = [tracer.bind(thunk) for thunk in thunks]
        if context is not None:
            thunks = [context.bind(thunk) for thunk in thunks]
        futures = [self._executor.submit(_capture, thunk) for thunk in thunks]
        results: List[tuple] = []
        for future, thunk in zip(futures, thunks):
            if future.cancel():
                results.append(_capture(thunk))
            else:
                results.append(future.result())
        return results

    def shutdown(self) -> None:
        self._executor.shutdown(wait=True)


def _capture(thunk: Callable[[], object]) -> tuple:
    try:
        return (thunk(), None)
    except BaseException as error:  # re-raised by the caller, in branch order
        return (None, error)


class SourceCallCache:
    """Per-execution memo of wrapper round trips.

    Entries are keyed by ``(operation, source, canonical plan key, outer
    constants)`` — everything a deterministic source call can depend on.
    Sources are read-only for the duration of one execution (the paper's
    setting), so a repeated call is pure waste; the evaluator consults
    the cache before crossing the wrapper boundary and records a
    ``cache_hits`` stat instead of a call on a hit.

    The table is guarded by one lock, but misses run *outside* it: a slow
    source never serializes unrelated calls.  Two threads missing on the
    same key may both call the source — results are deterministic, so
    either write is correct.

    Deliberately a bare dict, not a :class:`repro.memo.Memo`: its lifetime
    is one request and it is unbounded on purpose, so there is nothing to
    evict and nothing to tag.
    """

    __slots__ = ("_lock", "_entries")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[tuple, object] = {}

    def lookup(self, key: tuple) -> Tuple[bool, object]:
        with self._lock:
            if key in self._entries:
                return True, self._entries[key]
        return False, None

    def store(self, key: tuple, value: object) -> None:
        with self._lock:
            self._entries[key] = value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


# ---------------------------------------------------------------------------
# Outer-parameter analysis
# ---------------------------------------------------------------------------

def plan_parameters(plan: Plan) -> frozenset:
    """Outer columns *plan* can observe during evaluation.

    A column is a parameter when some operator resolves it against the
    outer environment rather than its own input: a ``Bind`` whose target
    is not an input column, a predicate/Map variable no input provides,
    or a pushed fragment inlining an outer constant (information
    passing).  Two outer rows that agree on these columns — compared by
    :func:`identity_cell_key` — make the plan evaluate identically,
    which is exactly what DJoin batching and the pushed-call cache key
    on.

    Memoized on the (immutable) plan instance at every level of the
    recursion: a DJoin recomputes its right fragment's parameters once
    per outer row, and the pushed-call cache once per round trip.
    """
    try:
        return plan._params_memo
    except AttributeError:
        parameters = plan._params_memo = _plan_parameters(plan)
        return parameters


def _plan_parameters(plan: Plan) -> frozenset:
    if isinstance(plan, (UnitOp, LiteralOp, SourceOp)):
        return frozenset()
    if isinstance(plan, PushedOp):
        return plan_parameters(plan.plan)
    if isinstance(plan, BindOp):
        free = set(plan_parameters(plan.input))
        if plan.on not in plan.input.output_columns():
            free.add(plan.on)
        return frozenset(free)
    if isinstance(plan, SelectOp):
        local = set(plan.input.output_columns())
        return plan_parameters(plan.input) | (
            set(plan.predicate.variables()) - local
        )
    if isinstance(plan, MapOp):
        local = set(plan.input.output_columns())
        free = set(plan_parameters(plan.input))
        for _name, expr in plan.bindings:
            free |= set(expr.variables()) - local
        return frozenset(free)
    if isinstance(plan, JoinOp):
        local = set(plan.left.output_columns()) | set(plan.right.output_columns())
        return (
            plan_parameters(plan.left)
            | plan_parameters(plan.right)
            | (set(plan.predicate.variables()) - local)
        )
    if isinstance(plan, DJoinOp):
        return plan_parameters(plan.left) | (
            plan_parameters(plan.right) - set(plan.left.output_columns())
        )
    if isinstance(plan, (UnionOp, IntersectOp)):
        return plan_parameters(plan.left) | plan_parameters(plan.right)
    if isinstance(plan, FuseOp):
        free: frozenset = frozenset()
        for input_plan in plan.inputs:
            free |= plan_parameters(input_plan)
        return free
    # Distinct, Project, Group, Sort, Tree: column references resolve
    # against the input Tab only, never the outer environment.
    result: frozenset = frozenset()
    for child in plan.children():
        result |= plan_parameters(child)
    return result


def passed_pairs(plan: DJoinOp) -> Tuple[Tuple[str, str], ...]:
    """``(fragment column, left column)`` pairs under which *plan* may
    pass its distinct left bindings to its right input as one set (a
    :class:`BindingSet`); ``()`` when it must evaluate it per binding.

    The right input has to be a ``[Select*] Pushed`` chain whose fragment
    the planner keyed on left columns (``PushedOp.keyed``: the source
    accepts the disjunction of the passed equalities), which still
    returns the keyed columns (the re-expansion partitions on them) and
    observes nothing else of the left row, under selections that do not
    read the left row at all.  All of it is plan shape, so — like
    :func:`plan_parameters` — it is decided once per (immutable) DJoin.
    """
    try:
        return plan._passed_memo
    except AttributeError:
        pairs = plan._passed_memo = _passed_pairs(plan)
        return pairs


def _passed_pairs(plan: DJoinOp) -> Tuple[Tuple[str, str], ...]:
    local = set(plan.left.output_columns())
    pushed = plan.right
    while isinstance(pushed, SelectOp):
        free = set(pushed.predicate.variables()) - set(pushed.input.output_columns())
        if free & local:
            return ()
        pushed = pushed.input
    if not isinstance(pushed, PushedOp) or not pushed.keyed:
        return ()
    produced = pushed.output_columns()
    if (
        any(column not in produced for column, _variable in pushed.keyed)
        or plan_parameters(pushed.plan) & local
        != {variable for _column, variable in pushed.keyed}
    ):
        return ()
    return pushed.keyed


#: Marker for a parameter column absent from the outer row (the plan
#: will fail to resolve it the same way every time, so keying on the
#: absence is sound).
ABSENT = ("absent",)


def identity_cell_key(cell: object) -> tuple:
    """Hashable key under which equal cells evaluate identically.

    Stricter than structural ``Row`` equality: node identifiers are
    *included* (``_value_key`` excludes them), because ``ref_is`` joins
    and reference dereferencing distinguish structurally equal nodes
    with different identities.
    """
    if isinstance(cell, DataNode):
        return (
            "node",
            cell.label,
            cell.collection,
            cell.ident,
            cell.atom if cell.is_atom_leaf else None,
            cell.ref_target if cell.is_reference else None,
            tuple(identity_cell_key(child) for child in cell.children),
        )
    if isinstance(cell, tuple):
        return ("coll",) + tuple(identity_cell_key(item) for item in cell)
    if isinstance(cell, MissingValue):
        return ("missing",)
    if isinstance(cell, Row):
        return (
            "row",
            cell.columns,
            tuple(identity_cell_key(c) for c in cell.cells),
        )
    return ("atom", type(cell).__name__, cell)


def outer_binding_key(
    outer: Optional[Row], parameters: frozenset
) -> tuple:
    """The projection of *outer* onto *parameters*, as a hashable key.

    A :class:`BindingSet` contributes its equality keys: two set-valued
    calls return the same Tab exactly when they pass the same set.
    """
    if not parameters:
        return ()
    parts = []
    if isinstance(outer, BindingSet):
        parts.append((outer.pairs, tuple(outer.keys)))
    for column in sorted(parameters):
        if outer is not None and column in outer:
            parts.append((column, identity_cell_key(outer[column])))
        else:
            parts.append((column, ABSENT))
    return tuple(parts)
