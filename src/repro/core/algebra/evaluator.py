"""Plan evaluation at the mediator.

The evaluator walks a plan DAG bottom-up and produces a
:class:`~repro.core.algebra.tab.Tab`.  It is deliberately a *naive*
iterator-style engine: the paper's point is not a fast mediator but the
amount of work the algebraic rewritings remove, which the evaluator
measures faithfully through :class:`~repro.core.algebra.stats.ExecutionStats`:

* evaluating a ``Source`` pulls the whole named document through the
  wrapper's XML boundary (rows=1, bytes=document size);
* evaluating a ``Pushed`` fragment asks the wrapper to run it natively
  and transfers only the result Tab;
* a ``DJoin`` evaluates its right input under the left rows as outer
  environment (information passing, Section 5.3) — once per left row in
  the paper, here once for *all* distinct outer bindings when the right
  input is a pushed fragment keyed on them (``PushedOp.keyed``).

Federated scheduling (:mod:`repro.core.algebra.scheduling`) layers two
optimizations over that baseline, neither of which changes any answer:
Union branches and independent Join inputs evaluate concurrently on a
bounded pool when ``ExecutionPolicy.parallelism > 1``; and a DJoin passes
its distinct outer bindings as one set (or, failing that, evaluates its
right input once per distinct binding).  Bind runs through the per-filter
engine of :mod:`repro.core.algebra.engine` and emits columnar Tabs,
which the downstream operators keep columnar.
``ExecutionPolicy.serial()`` — ``policy.reference`` — restores the
naive engine byte for byte: recursive matcher, interpreted predicates,
row-at-a-time Tabs, one right-branch evaluation per DJoin row.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import (
    EvaluationError,
    PartialResultError,
    SourceUnavailableError,
    UnknownDocumentError,
    UnknownSourceError,
    UnknownVariableError,
)
from repro.core.algebra.bind import FilterMatcher
from repro.core.algebra.compiled import compiled_predicate
from repro.core.algebra.engine import bind_engine
from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    DistinctOp,
    FuseOp,
    GroupOp,
    LiteralOp,
    IntersectOp,
    JoinOp,
    MapOp,
    Plan,
    ProjectOp,
    PushedOp,
    ScatterOp,
    SelectOp,
    SortOp,
    SourceOp,
    TreeOp,
    UnionOp,
    UnitOp,
)
from repro.core.algebra.scheduling import (
    ExecutionPolicy,
    PlanScheduler,
    outer_binding_key,
    passed_pairs,
    plan_parameters,
)
from repro.core.algebra.skolem import SkolemRegistry
from repro.observability.context import RequestContext
from repro.core.algebra.stats import ExecutionStats
from repro.core.algebra.tab import (
    BindingSet,
    ColumnCursor,
    Row,
    Tab,
    _cell_key,
    tab_serialized_size,
)
from repro.core.algebra.tree import _orderable, construct
from repro.model.filters import MissingValue
from repro.model.trees import DataNode
from repro.model.xml_io import serialized_size


class SourceAdapter(ABC):
    """What the evaluator needs from a wrapped source.

    Implemented by the wrappers in :mod:`repro.wrappers`; tests may supply
    lightweight fakes.
    """

    @abstractmethod
    def document_names(self) -> Tuple[str, ...]:
        """Names of the documents this source exports."""

    def document_name_set(self) -> frozenset:
        """Exported document names as a set (membership tests).

        The default rebuilds the set on each call; adapters with a
        stable catalog (every wrapper) override this with a cached
        frozenset so per-SourceOp membership checks are O(1).
        """
        return frozenset(self.document_names())

    @abstractmethod
    def document(self, name: str) -> DataNode:
        """The full tree of the named document (an expensive transfer)."""

    @abstractmethod
    def ident_index(self) -> Dict[str, DataNode]:
        """Identifier index used to dereference references during Bind."""

    @abstractmethod
    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        """Evaluate *plan* natively; returns the result Tab and the native text.

        *outer* may be a :class:`~repro.core.algebra.tab.BindingSet` when
        the plan came from a ``PushedOp`` with ``keyed`` columns: the
        answer is then the rows matching any of the set's keys, each
        once, in the source's own order.
        """


class Environment:
    """Everything a plan evaluation needs: sources, functions, counters."""

    def __init__(
        self,
        sources: Dict[str, SourceAdapter],
        functions: Optional[Dict[str, Callable]] = None,
        stats: Optional[ExecutionStats] = None,
        skolems: Optional[SkolemRegistry] = None,
        resilience=None,
        policy: Optional[ExecutionPolicy] = None,
        tracer=None,
        context=None,
    ) -> None:
        self.sources = dict(sources)
        self.functions = dict(functions or {})
        self.stats = stats if stats is not None else ExecutionStats()
        self.skolems = skolems if skolems is not None else SkolemRegistry()
        #: Optional :class:`~repro.mediator.resilience.PolicyRuntime`;
        #: when set and permitting partial results, Union branches and
        #: ident indexes of unavailable sources degrade instead of failing.
        self.resilience = resilience
        #: Execution policy; the default keeps evaluation strictly serial
        #: (parallelism=1) on the optimized engine.
        self.policy = policy if policy is not None else ExecutionPolicy()
        #: ``True`` under ``ExecutionPolicy.serial()``: every operator
        #: takes its naive form (the differential oracle).
        self.reference = self.policy.reference
        #: The :class:`~repro.observability.context.RequestContext` this
        #: evaluation runs under.  The environment *finalizes* it: the
        #: reference flag always follows the execution policy, and an
        #: explicit ``tracer=`` argument wins over the context's.  Callers
        #: that pass no context get a fresh anonymous one, so evaluation
        #: never falls back to globals.
        if context is None:
            context = RequestContext(tracer=tracer)
        elif tracer is None:
            tracer = context.tracer
        context.tracer = tracer
        context.reference = self.reference
        self.context = context
        #: Optional :class:`~repro.observability.tracer.Tracer`.  ``None``
        #: (the default) keeps the untraced fast path: every hook in this
        #: module is a single attribute read plus an ``is None`` test.
        self.tracer = tracer
        self._scheduler: Optional[PlanScheduler] = None
        self._ident_index: Optional[Dict[str, DataNode]] = None
        self._ident_lock = threading.Lock()
        self._deref: Optional[Callable[[DataNode], DataNode]] = None

    def source(self, name: str) -> SourceAdapter:
        try:
            return self.sources[name]
        except KeyError:
            raise UnknownSourceError(f"source {name!r} is not connected") from None

    def scheduler(self) -> Optional[PlanScheduler]:
        """The shared thread pool, or ``None`` under a serial policy.

        Created lazily on the first concurrent dispatch; callers that
        own the environment should :meth:`shutdown` when done (``run_plan``
        does).
        """
        if not self.policy.concurrent:
            return None
        if self._scheduler is None:
            self._scheduler = PlanScheduler(self.policy.parallelism)
        return self._scheduler

    def shutdown(self) -> None:
        """Release the thread pool, if one was created."""
        if self._scheduler is not None:
            self._scheduler.shutdown()
            self._scheduler = None

    def deref(self) -> Callable[[DataNode], DataNode]:
        """Reference-chasing closure over the merged ident index.

        Follows reference chains exactly like ``FilterMatcher._deref``;
        built once per execution for the Bind engine's scan kernels.
        """
        fn = self._deref
        if fn is None:
            index = self.ident_index()
            if index:

                def fn(node, _index=index):
                    target = node.ref_target
                    while target is not None:
                        found = _index.get(target)
                        if found is None:
                            break
                        node = found
                        target = node.ref_target
                    return node

            else:

                def fn(node):
                    return node

            self._deref = fn
        return fn

    def ident_index(self) -> Dict[str, DataNode]:
        """Merged identifier index across all connected sources (cached).

        The merge runs once per execution, however many Bind evaluations
        (including DJoin-driven re-evaluations) ask for it; the lock
        keeps the one-shot guarantee under concurrent branches.  Under a
        degradation-enabled resilience policy, a source whose index is
        unavailable is skipped (its references simply stop
        dereferencing) and recorded as dropped; otherwise the error
        propagates as before.
        """
        with self._ident_lock:
            if self._ident_index is None:
                merged: Dict[str, DataNode] = {}
                for name, adapter in self.sources.items():
                    try:
                        merged.update(adapter.ident_index())
                    except SourceUnavailableError as error:
                        if self.resilience is None or not self.resilience.allow_partial:
                            raise
                        self.resilience.record_dropped(
                            name, f"ident index unavailable: {error}"
                        )
                self._ident_index = merged
            return self._ident_index


def evaluate(plan: Plan, env: Environment, outer: Optional[Row] = None) -> Tab:
    """Evaluate *plan* to a Tab under *env* (and an optional outer row)."""
    tab = _evaluate(plan, env, outer)
    return tab


def _evaluate(plan: Plan, env: Environment, outer: Optional[Row]) -> Tab:
    tracer = env.tracer
    if tracer is None:
        return _dispatch(plan, env, outer)
    # One span per operator evaluation.  ``node`` keys per-node actuals
    # for EXPLAIN ANALYZE (the plan object outlives the execution);
    # ``_eval_source`` / ``_eval_pushed`` annotate the open span with
    # transfer details while it is current on this thread.
    with tracer.start(
        plan.describe(),
        kind="operator",
        operator=plan.operator_name(),
        node=id(plan),
    ) as span:
        tab = _dispatch(plan, env, outer)
        span.annotate(rows=len(tab))
        return tab


def _dispatch(plan: Plan, env: Environment, outer: Optional[Row]) -> Tab:
    if isinstance(plan, UnitOp):
        return Tab((), [Row((), ())])
    if isinstance(plan, LiteralOp):
        return plan.tab
    if isinstance(plan, SourceOp):
        return _eval_source(plan, env)
    if isinstance(plan, BindOp):
        return _eval_bind(plan, env, outer)
    if isinstance(plan, SelectOp):
        return _eval_select(plan, env, outer)
    if isinstance(plan, DistinctOp):
        source = _evaluate(plan.input, env, outer)
        tab = source.distinct()
        env.stats.record_operator("Distinct", len(tab))
        if source.is_columnar:
            env.stats.record_batch(len(tab))
        return tab
    if isinstance(plan, ProjectOp):
        return _eval_project(plan, env, outer)
    if isinstance(plan, JoinOp):
        return _eval_join(plan, env, outer)
    if isinstance(plan, DJoinOp):
        return _eval_djoin(plan, env, outer)
    if isinstance(plan, UnionOp):
        return _eval_union(plan, env, outer)
    if isinstance(plan, ScatterOp):
        return _eval_scatter(plan, env, outer)
    if isinstance(plan, IntersectOp):
        return _eval_intersect(plan, env, outer)
    if isinstance(plan, GroupOp):
        return _eval_group(plan, env, outer)
    if isinstance(plan, SortOp):
        return _eval_sort(plan, env, outer)
    if isinstance(plan, MapOp):
        return _eval_map(plan, env, outer)
    if isinstance(plan, TreeOp):
        return _eval_tree(plan, env, outer)
    if isinstance(plan, FuseOp):
        return _eval_fuse(plan, env, outer)
    if isinstance(plan, PushedOp):
        return _eval_pushed(plan, env, outer)
    raise EvaluationError(f"cannot evaluate operator: {plan!r}")


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------

def _eval_source(plan: SourceOp, env: Environment) -> Tab:
    adapter = env.source(plan.source)
    if plan.document not in adapter.document_name_set():
        raise UnknownDocumentError(
            f"source {plan.source!r} exports no document {plan.document!r}"
        )
    root = adapter.document(plan.document)
    size = serialized_size(root)
    env.stats.record_call(plan.source)
    env.stats.record_transfer(plan.source, rows=1, size=size)
    env.stats.record_operator("Source", 1)
    _record_store_delta(adapter, env)
    if env.tracer is not None:
        env.tracer.annotate(source=plan.source, calls=1, bytes=size)
    return Tab((plan.document,), [Row((plan.document,), (root,))])


def _record_store_delta(adapter, env: Environment) -> None:
    """Fold a document-store adapter's counter delta into the stats.

    Duck-typed: adapters over shredded stores expose ``pop_store_stats``
    returning ``{pushdowns, scans, hydrated_nodes, bytes_avoided}`` since
    the last pop; everything else records nothing.
    """
    pop = getattr(adapter, "pop_store_stats", None)
    if pop is None:
        return
    delta = pop()
    if delta:
        env.stats.record_store(**delta)
        if env.tracer is not None:
            env.tracer.annotate(
                **{f"store_{name}": value for name, value in delta.items()}
            )


def _eval_pushed(plan: PushedOp, env: Environment, outer: Optional[Row]) -> Tab:
    adapter = env.source(plan.source)
    tab, native = adapter.execute_pushed(plan.plan, outer)
    size = tab_serialized_size(tab)
    env.stats.record_native(plan.source, native)
    env.stats.record_call(plan.source)
    env.stats.record_transfer(plan.source, rows=len(tab), size=size)
    env.stats.record_operator("Pushed", len(tab))
    _record_store_delta(adapter, env)
    if env.tracer is not None:
        env.tracer.annotate(source=plan.source, calls=1, bytes=size, native=native)
    if isinstance(outer, BindingSet):
        env.stats.record_passed_keys(len(outer.keys))
        if env.tracer is not None:
            env.tracer.annotate(keys=len(outer.keys))
    return tab


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------

def _eval_bind(plan: BindOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    if env.reference:
        result = _bind_reference(plan, env, outer, input_tab)
    else:
        result = _bind_columnar(
            plan, env, outer, input_tab, bind_engine(plan.filter)
        )
        if env.tracer is not None:
            env.tracer.annotate(batch_rows=len(result))
    env.stats.record_operator("Bind", len(result))
    return result


def _bind_reference(
    plan: BindOp, env: Environment, outer: Optional[Row], input_tab: Tab
) -> Tab:
    """The oracle's Bind: recursive ``FilterMatcher``, one Row per binding."""
    matcher = FilterMatcher(index=env.ident_index())
    flt = plan.filter
    variables = flt.variables()
    base_columns = tuple(
        c for c in input_tab.columns if plan.keep_on or c != plan.on
    )
    out_columns = base_columns + variables
    rows: List[Row] = []
    for row in input_tab:
        target = _lookup(row, outer, plan.on)
        if isinstance(target, tuple):
            bindings = matcher.match_collection(
                [t for t in target if isinstance(t, DataNode)], flt
            )
        elif isinstance(target, DataNode):
            bindings = matcher.match(target, flt)
        else:
            continue
        base_cells = tuple(row[c] for c in base_columns)
        for binding in bindings:
            rows.append(Row(
                out_columns,
                base_cells + tuple(binding[var] for var in variables),
            ))
    return Tab(out_columns, rows)


def _bind_columnar(
    plan: BindOp, env: Environment, outer: Optional[Row], input_tab: Tab,
    engine,
) -> Tab:
    """Engine Bind output: bindings zip straight into column arrays.

    Base cells are gathered by repetition counts and binding tuples are
    transposed once at the end — no per-output-row ``Row`` objects.
    """
    variables = engine.variables
    deref = env.deref()
    in_columns = input_tab.columns
    out_columns = tuple(
        c for c in in_columns if plan.keep_on or c != plan.on
    ) + variables
    length = len(input_tab)
    in_cols = input_tab.column_data()
    positions = {name: i for i, name in enumerate(in_columns)}
    target_position = positions.get(plan.on)
    outer_target = None
    if target_position is None:
        if outer is not None and plan.on in outer:
            outer_target = outer[plan.on]
        elif length:
            raise EvaluationError(
                f"Bind target ${plan.on} is neither a local nor an outer column"
            )
    target_col = in_cols[target_position] if target_position is not None else None

    counts: List[int] = []
    all_bindings: List[tuple] = []
    for i in range(length):
        target = target_col[i] if target_col is not None else outer_target
        bindings = engine.tuples(target, deref)
        counts.append(len(bindings))
        all_bindings.extend(bindings)

    total = len(all_bindings)
    out_cols: List[tuple] = []
    for name, source in zip(in_columns, in_cols):
        if not plan.keep_on and name == plan.on:
            continue
        column: List[object] = []
        extend = column.extend
        append = column.append
        for i, count in enumerate(counts):
            if count == 1:
                append(source[i])
            elif count:
                extend([source[i]] * count)
        out_cols.append(tuple(column))
    if variables:
        if all_bindings:
            out_cols.extend(zip(*all_bindings))
        else:
            out_cols.extend(() for _ in variables)
    env.stats.record_batch(total)
    return Tab.from_columns(out_columns, out_cols, total)


def _evaluator_for(expr, env: Environment):
    """``fn(row, functions)`` for *expr*: the compiled kernel, or the
    interpreter under the reference policy."""
    return expr.evaluate if env.reference else compiled_predicate(expr)


def _eval_select(plan: SelectOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    predicate = _evaluator_for(plan.predicate, env)
    functions = env.functions
    if input_tab.is_columnar:
        # Batch select: the predicate probes a reusable cursor over the
        # column arrays; survivors are gathered by position.
        cursor = ColumnCursor(input_tab, outer)
        keep = [
            i for i in range(len(input_tab))
            if bool(predicate(cursor.seek(i), functions))
        ]
        result = Tab.from_columns(
            input_tab.columns,
            tuple(
                tuple(column[i] for i in keep)
                for column in input_tab.column_data()
            ),
            len(keep),
        )
        env.stats.record_operator("Select", len(keep))
        env.stats.record_batch(len(keep))
        return result
    rows = [
        row
        for row in input_tab
        if bool(predicate(_overlay(row, outer), functions))
    ]
    env.stats.record_operator("Select", len(rows))
    return Tab(input_tab.columns, rows)


def _eval_project(plan: ProjectOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    columns = tuple(alias for _c, alias in plan.items)
    if input_tab.is_columnar:
        # Batch project: pure column selection, zero per-row work.
        positions = {name: i for i, name in enumerate(input_tab.columns)}
        in_cols = input_tab.column_data()
        data = []
        for name, _alias in plan.items:
            index = positions.get(name)
            if index is None:
                raise UnknownVariableError(
                    f"unknown variable ${name}; row has "
                    f"{list(input_tab.columns)}"
                )
            data.append(in_cols[index])
        result = Tab.from_columns(columns, data, len(input_tab))
        env.stats.record_operator("Project", len(result))
        env.stats.record_batch(len(result))
        return result
    rows = [
        Row(columns, tuple(row[c] for c, _a in plan.items)) for row in input_tab
    ]
    env.stats.record_operator("Project", len(rows))
    return Tab(columns, rows)


def _eval_group(plan: GroupOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    nested_columns = tuple(c for c in input_tab.columns if c not in plan.by)
    groups: Dict[tuple, List[Row]] = {}
    order: List[tuple] = []
    keys_cells: Dict[tuple, tuple] = {}
    for row in input_tab:
        key_cells = tuple(row[c] for c in plan.by)
        key = Row(plan.by, key_cells)._value_key()
        if key not in groups:
            groups[key] = []
            order.append(key)
            keys_cells[key] = key_cells
        groups[key].append(row.projected(nested_columns))
    out_columns = plan.by + (plan.into,)
    rows = [
        Row(out_columns, keys_cells[key] + (tuple(groups[key]),)) for key in order
    ]
    env.stats.record_operator("Group", len(rows))
    return Tab(out_columns, rows)


def _eval_sort(plan: SortOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    rows = sorted(
        input_tab.rows,
        key=lambda row: tuple(_orderable(row[c]) for c in plan.by),
        reverse=plan.descending,
    )
    env.stats.record_operator("Sort", len(rows))
    return Tab(input_tab.columns, rows)


def _eval_map(plan: MapOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    new_names = tuple(name for name, _e in plan.bindings)
    out_columns = input_tab.columns + new_names
    evaluators = tuple(_evaluator_for(expr, env) for _n, expr in plan.bindings)
    rows = []
    for row in input_tab:
        scoped = _overlay(row, outer)
        computed = tuple(fn(scoped, env.functions) for fn in evaluators)
        rows.append(Row(out_columns, row.cells + computed))
    env.stats.record_operator("Map", len(rows))
    return Tab(out_columns, rows)


def _eval_tree(plan: TreeOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    tree = construct(input_tab, plan.constructor, env.skolems, env.functions)
    env.stats.record_operator("Tree", 1)
    return Tab((plan.document,), [Row((plan.document,), (tree,))])


def _eval_fuse(plan: FuseOp, env: Environment, outer: Optional[Row]) -> Tab:
    """Evaluate every rule and merge the documents by Skolem identifier.

    The rules share ``env.skolems``, so equal Skolem arguments yield
    equal identifiers across rules; identified root children then merge
    (children concatenated, structural duplicates removed).
    """
    documents: List[DataNode] = []
    for input_plan in plan.inputs:
        tab = _evaluate(input_plan, env, outer)
        if len(tab.columns) != 1 or len(tab) != 1:
            raise EvaluationError("Fuse inputs must each build one document")
        cell = tab.rows[0].cells[0]
        if not isinstance(cell, DataNode):
            raise EvaluationError("Fuse inputs must build document trees")
        documents.append(cell)
    fused = fuse_documents(documents)
    env.stats.record_operator("Fuse", 1)
    return Tab((plan.document,), [Row((plan.document,), (fused,))])


def fuse_documents(documents: List[DataNode]) -> DataNode:
    """Merge same-label roots: children concatenated, idents fused."""
    label = documents[0].label
    merged_children: List[DataNode] = []
    by_ident: Dict[str, int] = {}
    for document in documents:
        if document.label != label:
            raise EvaluationError(
                f"cannot fuse documents with roots {label!r} and "
                f"{document.label!r}"
            )
        for child in document.children:
            if child.ident is not None and child.ident in by_ident:
                index = by_ident[child.ident]
                existing = merged_children[index]
                seen = {c._value_key() for c in existing.children}
                extra = [
                    c for c in child.children if c._value_key() not in seen
                ]
                merged_children[index] = DataNode(
                    existing.label,
                    children=tuple(existing.children) + tuple(extra),
                    ident=existing.ident,
                    collection=existing.collection,
                )
            else:
                if child.ident is not None:
                    by_ident[child.ident] = len(merged_children)
                merged_children.append(child)
    return DataNode(
        label, children=merged_children, ident=documents[0].ident,
        collection=documents[0].collection,
    )


# ---------------------------------------------------------------------------
# Binary operators
# ---------------------------------------------------------------------------

def _eval_pair(
    left_plan: Plan, right_plan: Plan, env: Environment, outer: Optional[Row]
) -> Tuple[Tab, Tab]:
    """Evaluate two independent inputs, concurrently when the policy allows.

    Error propagation is deterministic either way: the left input's
    error wins, exactly as in serial evaluation (where a failing left
    input means the right is never evaluated at all).
    """
    scheduler = env.scheduler()
    if scheduler is None:
        return (
            _evaluate(left_plan, env, outer),
            _evaluate(right_plan, env, outer),
        )
    outcomes = scheduler.run(
        [
            lambda: _evaluate(left_plan, env, outer),
            lambda: _evaluate(right_plan, env, outer),
        ],
        tracer=env.tracer,
        context=env.context,
    )
    env.stats.record_parallel(2)
    for value, error in outcomes:
        if error is not None:
            raise error
    return outcomes[0][0], outcomes[1][0]


def _eval_join(plan: JoinOp, env: Environment, outer: Optional[Row]) -> Tab:
    left, right = _eval_pair(plan.left, plan.right, env, outer)
    out_columns = left.columns + right.columns

    # Associative access (the Figure 7 payoff): equality and
    # reference-identity predicates evaluate as hash joins; everything
    # else falls back to the nested loop.
    keys = _hash_join_keys(plan, left.columns, right.columns)
    if keys is not None:
        left_keys, right_keys = keys
        if left.is_columnar or right.is_columnar:
            result = _hash_join_columnar(
                left, right, out_columns, left_keys, right_keys
            )
            env.stats.record_operator("Join", len(result))
            env.stats.record_batch(len(result))
            return result
        buckets: Dict[tuple, List[Row]] = {}
        for rrow in right:
            key = tuple(k(rrow) for k in right_keys)
            buckets.setdefault(key, []).append(rrow)
        rows: List[Row] = []
        for lrow in left:
            key = tuple(k(lrow) for k in left_keys)
            for rrow in buckets.get(key, ()):
                rows.append(Row(out_columns, lrow.cells + rrow.cells))
        env.stats.record_operator("Join", len(rows))
        return Tab(out_columns, rows)

    predicate = _evaluator_for(plan.predicate, env)
    rows = []
    for lrow in left:
        for rrow in right:
            merged = Row(out_columns, lrow.cells + rrow.cells)
            if bool(predicate(_overlay(merged, outer), env.functions)):
                rows.append(merged)
    env.stats.record_operator("Join", len(rows))
    return Tab(out_columns, rows)


def _hash_join_keys(plan: JoinOp, left_columns, right_columns):
    """``(left key fns, right key fns)`` when every conjunct is hashable;
    ``None`` otherwise.

    Hashable conjuncts: ``Var = Var`` across the two sides (keyed by the
    structural value), and ``ref_is($ref, $obj)`` (keyed by the reference
    target / node identifier).  Key functions accept anything Row-shaped
    (a Row or a :class:`ColumnCursor`).
    """
    from repro.core.algebra.expressions import Cmp, FunCall, Var, conjuncts

    left_cols = set(left_columns)
    right_cols = set(right_columns)
    left_keys: List = []
    right_keys: List = []
    for part in conjuncts(plan.predicate):
        if (
            isinstance(part, Cmp)
            and part.op == "="
            and isinstance(part.left, Var)
            and isinstance(part.right, Var)
        ):
            names = (part.left.name, part.right.name)
            if names[0] in left_cols and names[1] in right_cols:
                lname, rname = names
            elif names[1] in left_cols and names[0] in right_cols:
                rname, lname = names
            else:
                return None
            left_keys.append(lambda row, n=lname: _eq_key(row[n]))
            right_keys.append(lambda row, n=rname: _eq_key(row[n]))
        elif (
            isinstance(part, FunCall)
            and part.name == "ref_is"
            and len(part.args) == 2
            and all(isinstance(arg, Var) for arg in part.args)
        ):
            ref_name, obj_name = (arg.name for arg in part.args)
            if ref_name in left_cols and obj_name in right_cols:
                left_keys.append(lambda row, n=ref_name: _ref_target(row[n]))
                right_keys.append(lambda row, n=obj_name: _node_ident(row[n]))
            elif ref_name in right_cols and obj_name in left_cols:
                left_keys.append(lambda row, n=obj_name: _node_ident(row[n]))
                right_keys.append(lambda row, n=ref_name: _ref_target(row[n]))
            else:
                return None
        else:
            return None
    if not left_keys:
        return None
    return left_keys, right_keys


def _hash_join_columnar(
    left: Tab, right: Tab, out_columns, left_keys, right_keys
) -> Tab:
    """Batch hash join: match by cursor probes, emit by column gathers."""
    right_cursor = ColumnCursor(right)
    buckets: Dict[tuple, List[int]] = {}
    for j in range(len(right)):
        right_cursor.seek(j)
        key = tuple(k(right_cursor) for k in right_keys)
        buckets.setdefault(key, []).append(j)
    left_cursor = ColumnCursor(left)
    left_picks: List[int] = []
    right_picks: List[int] = []
    for i in range(len(left)):
        left_cursor.seek(i)
        key = tuple(k(left_cursor) for k in left_keys)
        matched = buckets.get(key)
        if matched:
            left_picks.extend([i] * len(matched))
            right_picks.extend(matched)
    data = [
        tuple(column[i] for i in left_picks) for column in left.column_data()
    ] + [
        tuple(column[j] for j in right_picks) for column in right.column_data()
    ]
    return Tab.from_columns(out_columns, data, len(left_picks))


def _unwrap(value):
    if isinstance(value, DataNode) and value.is_atom_leaf:
        return value.atom
    return value


def _eq_key(value):
    """Hash key mirroring ``=`` semantics (numeric cross-type equality,
    MISSING never equal, atom leaves unwrapped)."""
    value = _unwrap(value)
    if isinstance(value, MissingValue):
        return ("never", object())
    if isinstance(value, (bool, int, float)):
        # Python's own numeric ``==``/``hash`` already relate True, 1 and
        # 1.0 — and keep 2**53 and 2**53 + 1 apart, which float() would not.
        return ("num", value)
    return _cell_key(value)


def _ref_target(value):
    if isinstance(value, DataNode) and value.is_reference:
        return ("ident", value.ref_target)
    return ("ident", None)


def _node_ident(value):
    if isinstance(value, DataNode) and value.ident is not None:
        return ("ident", value.ident)
    return ("ident", object())  # never joins


def _eval_djoin(plan: DJoinOp, env: Environment, outer: Optional[Row]) -> Tab:
    left = _evaluate(plan.left, env, outer)
    # Column names come from the actual right-hand Tabs (a pushed fragment
    # may order its columns differently from the static inference).
    out_columns = plan.output_columns()
    if env.reference:
        rows = []
        for lrow in left:
            inner_outer = _overlay(lrow, outer)
            right = _evaluate(plan.right, env, inner_outer)
            out_columns = left.columns + right.columns
            for rrow in right:
                rows.append(Row(out_columns, lrow.cells + rrow.cells))
        env.stats.record_operator("DJoin", len(rows))
        return Tab(out_columns, rows)

    pairs = passed_pairs(plan)
    bindings = _binding_set(pairs, left, outer) if pairs else None
    if bindings is not None:
        right = _evaluate(plan.right, env, bindings)
        if _answers_in_kind(right, bindings):
            # Set-valued information passing: one evaluation of the right
            # input answered for every distinct outer binding, and the
            # answer re-expands exactly like the hash join the DJoin
            # replaced — left-row order, the source's own order within a
            # key — which is the nested loop's order.
            avoided = len(left) - 1
            env.stats.record_batched(avoided)
            if env.tracer is not None:
                env.tracer.annotate(batched=avoided)
            result = _hash_join_columnar(
                left, right, left.columns + right.columns,
                [lambda row, n=v: _eq_key(row[n]) for _c, v in pairs],
                [lambda row, n=c: _eq_key(row[n]) for c, _v in pairs],
            )
            env.stats.record_operator("DJoin", len(result))
            env.stats.record_batch(len(result))
            return result

    # Per-binding evaluation: the right plan only observes the outer
    # columns in plan_parameters(right), so left rows that agree on them
    # share one right-branch evaluation.  Distinct binding tuples are
    # evaluated in first-appearance order (and concurrently under a
    # parallel policy), then re-expanded in the original row order —
    # row-for-row identical to the serial nested loop.
    parameters = plan_parameters(plan.right)
    keys: List[tuple] = []
    representative: Dict[tuple, Row] = {}
    for lrow in left:
        inner_outer = _overlay(lrow, outer)
        key = outer_binding_key(inner_outer, parameters)
        keys.append(key)
        if key not in representative:
            representative[key] = inner_outer
    avoided = len(left.rows) - len(representative)
    env.stats.record_batched(avoided)
    if env.tracer is not None and avoided > 0:
        env.tracer.annotate(batched=avoided)
    order = list(representative)
    scheduler = env.scheduler() if len(order) > 1 else None
    tabs: Dict[tuple, Tab] = {}
    if scheduler is not None:
        outcomes = scheduler.run(
            [
                lambda o=representative[key]: _evaluate(plan.right, env, o)
                for key in order
            ],
            tracer=env.tracer,
            context=env.context,
        )
        env.stats.record_parallel(len(order))
        for key, (tab, error) in zip(order, outcomes):
            if error is not None:
                raise error
            tabs[key] = tab
    else:
        for key in order:
            tabs[key] = _evaluate(plan.right, env, representative[key])

    # Batched re-expansion as column gathers: when every right-branch Tab
    # shares one column layout, the output is assembled without building a
    # Row per result — left cells repeat per match count, right columns
    # concatenate in outer-row order (identical to the nested loop).
    right_columns = None
    uniform = True
    for tab in tabs.values():
        if right_columns is None:
            right_columns = tab.columns
        elif tab.columns != right_columns:
            uniform = False
            break
    if uniform and right_columns is not None:
        out_columns = left.columns + right_columns
        left_cols = left.column_data()
        out_left = [[] for _ in left.columns]
        out_right = [[] for _ in right_columns]
        total = 0
        for i, key in enumerate(keys):
            right = tabs[key]
            count = len(right)
            if not count:
                continue
            total += count
            for gathered, column in zip(out_left, left_cols):
                if count == 1:
                    gathered.append(column[i])
                else:
                    gathered.extend([column[i]] * count)
            for gathered, column in zip(out_right, right.column_data()):
                gathered.extend(column)
        data = tuple(tuple(col) for col in out_left) + tuple(
            tuple(col) for col in out_right
        )
        result = Tab.from_columns(out_columns, data, total)
        env.stats.record_operator("DJoin", total)
        env.stats.record_batch(total)
        return result

    rows = []
    for lrow, key in zip(left.rows, keys):
        right = tabs[key]
        out_columns = left.columns + right.columns
        for rrow in right:
            rows.append(Row(out_columns, lrow.cells + rrow.cells))
    env.stats.record_operator("DJoin", len(rows))
    return Tab(out_columns, rows)


def _binding_set(pairs, left: Tab, outer: Optional[Row]) -> Optional[BindingSet]:
    """*left*'s distinct bindings of the variables in *pairs*
    (:func:`passed_pairs`) as one set, or ``None`` when they must be
    passed one at a time: some key cell is not an atom a source can
    inline (a tree cell is passed per binding, as before), a key column
    mixes strings with numbers (see :func:`_answers_in_kind`), or there
    are fewer than two distinct bindings.
    """
    data = left.column_data()
    columns = [data[left.columns.index(variable)] for _column, variable in pairs]
    if not columns[0]:
        return None
    textual = [isinstance(column[0], str) for column in columns]
    keys: Dict[tuple, tuple] = {}
    for cells in zip(*columns):
        for cell, text in zip(cells, textual):
            if not isinstance(cell, (str, int, float)) or isinstance(cell, str) != text:
                return None
        keys.setdefault(tuple(_eq_key(cell) for cell in cells), cells)
    if len(keys) < 2:
        return None
    return BindingSet(outer, pairs, keys)


def _answers_in_kind(right: Tab, bindings: BindingSet) -> bool:
    """Did the source answer *bindings* with cells of the keys' own kind?

    The re-expansion partitions the answer with the mediator's ``=``
    (:func:`_eq_key`); the source matched it with its own.  The two are
    only promised to agree between two strings or two numbers — across
    the kinds a source may coerce (sqlite compares the key ``5`` equal to
    the TEXT cell ``'5'``), and such a row belongs to a key the partition
    would not put it under.  Key columns are one kind each
    (:func:`_binding_set`), so any keyed cell of the other kind means the
    source's ``=`` reached across: the answer is dropped and the DJoin
    evaluates per binding, where the source's ``=`` decides alone.
    """
    data = right.column_data()
    first = next(iter(bindings.keys.values()))
    for (column, _variable), atom in zip(bindings.pairs, first):
        kind = str if isinstance(atom, str) else (int, float)
        for cell in data[right.columns.index(column)]:
            if not isinstance(_unwrap(cell), kind):
                return False
    return True


def _eval_union(plan: UnionOp, env: Environment, outer: Optional[Row]) -> Tab:
    """Union of two branches, optionally degrading on source failure.

    When the environment carries a resilience runtime that allows partial
    results, a branch whose sources are unavailable (retries exhausted or
    circuit open) is *dropped*: its sources and the failure cause are
    recorded on the stats, the answer is marked degraded, and the
    surviving branch is returned.  With both branches down there is no
    partial answer, so :class:`PartialResultError` is raised.
    """
    scheduler = env.scheduler()
    if scheduler is not None:
        # Both branches evaluate concurrently; their outcomes are then
        # folded in branch order, so degradation bookkeeping and error
        # propagation match the serial path (a failing left branch under
        # a fail-fast policy re-raises before the right is examined).
        outcomes = scheduler.run(
            [
                lambda: _evaluate(plan.left, env, outer),
                lambda: _evaluate(plan.right, env, outer),
            ],
            tracer=env.tracer,
            context=env.context,
        )
        env.stats.record_parallel(2)

        def branch_result(index: int, branch: Plan) -> Tab:
            tab, error = outcomes[index]
            if error is not None:
                raise error
            return tab

    else:

        def branch_result(index: int, branch: Plan) -> Tab:
            return _evaluate(branch, env, outer)

    branches: List[Optional[Tab]] = []
    last_error: Optional[SourceUnavailableError] = None
    for index, branch in enumerate((plan.left, plan.right)):
        try:
            branches.append(branch_result(index, branch))
        except SourceUnavailableError as error:
            if env.resilience is None or not env.resilience.allow_partial:
                raise
            involved = ", ".join(sorted(_branch_sources(branch))) or "?"
            failed = error.source or involved
            env.resilience.record_dropped(
                failed, f"union branch over [{involved}] dropped: {error}"
            )
            if env.tracer is not None:
                env.tracer.annotate(dropped=failed)
            last_error = error
            branches.append(None)
    left, right = branches
    if left is None and right is None:
        raise PartialResultError(
            "every Union branch failed; no partial result to return"
        ) from last_error
    if left is None or right is None:
        combined = (left if right is None else right).distinct()
        env.stats.record_operator("Union", len(combined))
        return combined
    if left.columns != right.columns:
        right = right.project(left.columns)
    if left.is_columnar or right.is_columnar:
        data = tuple(
            lcol + rcol
            for lcol, rcol in zip(left.column_data(), right.column_data())
        )
        combined = Tab.from_columns(
            left.columns, data, len(left) + len(right)
        ).distinct()
        env.stats.record_operator("Union", len(combined))
        env.stats.record_batch(len(combined))
        return combined
    combined = Tab(left.columns, tuple(left.rows) + tuple(right.rows)).distinct()
    env.stats.record_operator("Union", len(combined))
    return combined


def _eval_scatter(plan: ScatterOp, env: Environment, outer: Optional[Row]) -> Tab:
    """Scatter-gather over shard branches, concatenated in shard order.

    Unlike Union, no ``distinct`` is applied: the partitioning function
    places every document on exactly one shard, so the branches are
    disjoint bags whose shard-order concatenation *is* the logical
    source's answer.  Branches run concurrently under a parallel policy
    and fold in shard order, so the result — and error propagation — is
    byte-identical to serial evaluation.

    ``prune_param`` adds information-passing pruning: when the outer row
    supplies the column the rule equated with the partition key, only
    the branch owning that value's shard evaluates; the others are
    pruned at runtime (per outer row, under a DJoin).

    Degradation mirrors Union: under a partial-results policy a branch
    whose shard is unavailable (all replicas down) is dropped and
    recorded; with every branch down there is no partial answer.
    """
    active: List[Tuple[int, Plan]] = list(zip(plan.shard_ids, plan.branches))
    runtime_pruned = 0
    if plan.prune_param is not None and outer is not None and plan.prune_param in outer:
        target = plan.partition.shard_of(_unwrap(outer[plan.prune_param]))
        kept = [(sid, branch) for sid, branch in active if sid == target]
        runtime_pruned = len(active) - len(kept)
        active = kept
    env.stats.record_shard(
        scatter=len(active),
        pruned=(plan.total - len(plan.branches)) + runtime_pruned,
    )
    if env.tracer is not None:
        env.tracer.annotate(
            shards=len(active), shard_total=plan.total,
            shard_pruned=plan.total - len(active),
        )
    if not active:
        # Every branch statically targeted other shards than the outer
        # row's key value: the row matches nothing on this source.
        return Tab(plan.output_columns(), [])

    scheduler = env.scheduler() if len(active) > 1 else None
    if scheduler is not None:
        outcomes = scheduler.run(
            [lambda b=branch: _evaluate(b, env, outer) for _sid, branch in active],
            tracer=env.tracer,
            context=env.context,
        )
        env.stats.record_parallel(len(active))

        def branch_result(index: int) -> Tab:
            tab, error = outcomes[index]
            if error is not None:
                raise error
            return tab

    else:

        def branch_result(index: int) -> Tab:
            return _evaluate(active[index][1], env, outer)

    tabs: List[Tab] = []
    last_error: Optional[SourceUnavailableError] = None
    for index, (_sid, branch) in enumerate(active):
        try:
            tabs.append(branch_result(index))
        except SourceUnavailableError as error:
            if env.resilience is None or not env.resilience.allow_partial:
                raise
            involved = ", ".join(sorted(_branch_sources(branch))) or "?"
            failed = error.source or involved
            env.resilience.record_dropped(
                failed, f"shard branch over [{involved}] dropped: {error}"
            )
            if env.tracer is not None:
                env.tracer.annotate(dropped=failed)
            last_error = error
    if not tabs:
        raise PartialResultError(
            "every shard branch failed; no partial result to return"
        ) from last_error
    columns = tabs[0].columns
    tabs = [
        tab if tab.columns == columns else tab.project(columns) for tab in tabs
    ]
    if any(tab.is_columnar for tab in tabs):
        data = tuple(
            tuple(cell for tab in tabs for cell in tab.column_data()[i])
            for i in range(len(columns))
        )
        combined = Tab.from_columns(columns, data, sum(len(t) for t in tabs))
        env.stats.record_operator("Scatter", len(combined))
        env.stats.record_batch(len(combined))
        return combined
    rows: List[Row] = []
    for tab in tabs:
        rows.extend(tab.rows)
    combined = Tab(columns, rows)
    env.stats.record_operator("Scatter", len(combined))
    return combined


def _branch_sources(plan: Plan) -> set:
    """Names of the sources a plan branch reads (Source and Pushed leaves)."""
    return {
        node.source
        for node in plan.walk()
        if isinstance(node, (SourceOp, PushedOp))
    }

def _eval_intersect(plan: IntersectOp, env: Environment, outer: Optional[Row]) -> Tab:
    left, right = _eval_pair(plan.left, plan.right, env, outer)
    if left.columns != right.columns:
        right = right.project(left.columns)
    right_keys = {row._value_key() for row in right}
    result = Tab(
        left.columns, [row for row in left if row._value_key() in right_keys]
    ).distinct()
    env.stats.record_operator("Intersect", len(result))
    return result


# ---------------------------------------------------------------------------
# Outer-environment helpers
# ---------------------------------------------------------------------------

def _lookup(row: Row, outer: Optional[Row], column: str):
    """Resolve *column* in the row, falling back to the outer environment."""
    if column in row:
        return row[column]
    if outer is not None and column in outer:
        return outer[column]
    raise EvaluationError(
        f"Bind target ${column} is neither a local nor an outer column"
    )


def _overlay(row: Row, outer: Optional[Row]) -> Row:
    """A row whose lookups fall back to *outer* for missing columns."""
    if outer is None:
        return row
    extra_columns = tuple(c for c in outer.columns if c not in row)
    if not extra_columns:
        return row
    return row.extended(extra_columns, tuple(outer[c] for c in extra_columns))
