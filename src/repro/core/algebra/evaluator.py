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
engine of :mod:`repro.core.algebra.engine`.

Every operator has one implementation over the Tab's column arrays: it
reads ``column_data()`` (or a :class:`ColumnCursor` over it) and builds
its output with ``Tab.from_columns``/``take``/``concat``.  Group, Tree
and the oracle's per-row loops read the Tab's row view.

The policy is read once, when the :class:`Environment` is made: it picks
the operator forms and the predicate compiler the whole evaluation uses.
``ExecutionPolicy.serial()`` picks the oracle's (the last section of
this module), which differ from the engine's in three operators only:
the recursive ``FilterMatcher`` Bind, interpreted predicates for
Select, Map and Join, and one right-branch evaluation per DJoin row.
No operator and no wrapper tests the policy.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from operator import attrgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import (
    EvaluationError,
    PartialResultError,
    SourceError,
    SourceUnavailableError,
    UnknownDocumentError,
    UnknownSourceError,
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

    def data_version(self) -> int:
        """Monotonic version of the source's data; any change bumps it.

        Adapters over mutable stores override this with the store's own
        version counter.  The default (a constant) means "immutable",
        which keeps a wrapper's document memo valid forever.
        """
        return 0

    @abstractmethod
    def document(self, name: str) -> DataNode:
        """The full tree of the named document (an expensive transfer)."""

    @abstractmethod
    def ident_index(self) -> Dict[str, DataNode]:
        """Identifier index used to dereference references during Bind."""

    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        """Evaluate *plan* natively; returns the result Tab and the native text.

        *outer* may be a :class:`~repro.core.algebra.tab.BindingSet` when
        the plan came from a ``PushedOp`` with ``keyed`` columns: the
        answer is then the rows matching any of the set's keys, each
        once, in the source's own order.  The default declares no
        native capability, so the optimizer never pushes to it.
        """
        raise SourceError(f"{type(self).__name__} takes no pushed fragments")


class ForwardingAdapter(SourceAdapter):
    """A proxy in front of the source adapter *inner*.

    Catalog metadata (document names, data version, the interface and
    its XML export, ``holds_data``) is forwarded as is.  The three
    data-plane calls go through one hook, :meth:`_call`, which gets the
    operation name and ``invoke(adapter)``, the call itself; by default
    it runs ``invoke(self.inner)``.  A proxy overrides the hook and
    nothing else:

    >>> class Counting(ForwardingAdapter):
    ...     calls = 0
    ...     def _call(self, operation, invoke):
    ...         self.calls += 1
    ...         return invoke(self.inner)
    >>> class Source(SourceAdapter):
    ...     def document_names(self): return ("doc",)
    ...     def document(self, name): return DataNode(name)
    ...     def ident_index(self): return {}
    >>> proxy = Counting(Source())
    >>> proxy.document("doc").label, proxy.document_names(), proxy.calls
    ('doc', ('doc',), 1)
    """

    def __init__(self, inner: SourceAdapter) -> None:
        self.inner = inner

    def document_names(self) -> Tuple[str, ...]:
        return self.inner.document_names()

    def document_name_set(self) -> frozenset:
        return self.inner.document_name_set()

    def data_version(self):
        return self.inner.data_version()

    def interface(self):
        return self.inner.interface()

    def interface_xml(self) -> str:
        return self.inner.interface_xml()

    def holds_data(self) -> bool:
        return holds_data(self.inner)

    def _call(self, operation: str, invoke: Callable[[SourceAdapter], object]):
        """Run the data-plane call *operation*: ``invoke(adapter)``."""
        return invoke(self.inner)

    def document(self, name: str) -> DataNode:
        return self._call("document", lambda adapter: adapter.document(name))

    def ident_index(self) -> Dict[str, DataNode]:
        return self._call("ident_index", lambda adapter: adapter.ident_index())

    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        return self._call(
            "execute_pushed",
            lambda adapter: adapter.execute_pushed(plan, outer),
        )


class Environment:
    """Everything a plan evaluation needs: sources, functions, counters."""

    def __init__(
        self,
        sources: Dict[str, SourceAdapter],
        functions: Optional[Dict[str, Callable]] = None,
        allow_partial: bool = False,
        policy: Optional[ExecutionPolicy] = None,
        context: Optional[RequestContext] = None,
    ) -> None:
        self.sources = dict(sources)
        self.functions = dict(functions or {})
        #: One registry per evaluation: equal Skolem arguments yield one
        #: identifier across every Tree and Fuse node of the plan.
        self.skolems = SkolemRegistry()
        #: When set (a resilience policy's ``allow_partial_results``),
        #: Union and Scatter branches and ident indexes of unavailable
        #: sources degrade instead of failing.
        self.allow_partial = allow_partial
        #: Execution policy; the default keeps evaluation strictly serial
        #: (parallelism=1) on the optimized engine.
        self.policy = policy if policy is not None else ExecutionPolicy()
        #: ``{operator class: form}`` and ``expr -> fn(row, functions)``:
        #: the engine's, or under ``ExecutionPolicy.serial()`` the
        #: oracle's.  The only place evaluation reads the policy's kind.
        self.forms, self.compile = (
            (_ORACLE_FORMS, attrgetter("evaluate"))
            if self.policy.reference
            else (_FORMS, compiled_predicate)
        )
        #: The :class:`~repro.observability.context.RequestContext` this
        #: evaluation runs under, as ``run_plan`` derived it: the carrier
        #: of the request's statistics, tracer and parameters.  Without
        #: one the environment makes a fresh anonymous context, so
        #: evaluation never falls back to globals.
        if context is None:
            context = RequestContext(stats=ExecutionStats())
        self.context = context
        #: The context's statistics and tracer, read once.  A ``None``
        #: tracer keeps the untraced fast path: every hook in this module
        #: is a single attribute read plus an ``is None`` test.
        self.stats = context.stats
        self.tracer = context.tracer
        self._scheduler: Optional[PlanScheduler] = None
        self._ident_index: Optional[Dict[str, DataNode]] = None
        self._ident_lock = threading.Lock()
        self._deref: Optional[Callable[[DataNode], DataNode]] = None

    def source(self, name: str) -> SourceAdapter:
        try:
            return self.sources[name]
        except KeyError:
            raise UnknownSourceError(f"source {name!r} is not connected") from None

    def each(
        self, thunks: Sequence[Callable[[], Tab]]
    ) -> Iterator[Tuple[Optional[Tab], Optional[BaseException]]]:
        """``(tab, error)`` per sibling-branch thunk, in order; exactly
        one of the pair is ``None``.

        Under a parallel policy, more than one thunk is dispatched to
        the shared pool at once (created lazily; callers that own the
        environment :meth:`shutdown` it, as ``run_plan`` does) and
        recorded once as parallel branches.  Otherwise each thunk runs
        only when its outcome is read, so a caller that stops at the
        first error never evaluates the siblings after it.
        """
        if len(thunks) > 1 and self.policy.concurrent:
            if self._scheduler is None:
                self._scheduler = PlanScheduler(self.policy.parallelism)
            outcomes = self._scheduler.run(thunks, context=self.context)
            self.stats.record_parallel(len(thunks))
            yield from outcomes
            return
        for thunk in thunks:
            try:
                outcome = (thunk(), None)
            except Exception as error:  # re-raised by the caller
                outcome = (None, error)
            yield outcome

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
                    if not holds_data(adapter):
                        continue  # an empty source indexes nothing
                    try:
                        merged.update(adapter.ident_index())
                    except SourceUnavailableError as error:
                        if not self.allow_partial:
                            raise
                        self.stats.record_dropped(
                            name, f"ident index unavailable: {error}"
                        )
                self._ident_index = merged
            return self._ident_index


def evaluate(plan: Plan, env: Environment, outer: Optional[Row] = None) -> Tab:
    """Evaluate *plan* to a Tab under *env* (and an optional outer row)."""
    return _evaluate(plan, env, outer)


#: Leaves that read no input and process no rows: not counted.
_UNCOUNTED = (UnitOp, LiteralOp)


def _evaluate(plan: Plan, env: Environment, outer: Optional[Row]) -> Tab:
    """Evaluate one operator in the environment's form and record it:
    one ``operator_counts`` entry and its output rows in
    ``mediator_rows``."""
    try:
        form = env.forms[plan.__class__]
    except KeyError:
        raise EvaluationError(f"cannot evaluate operator: {plan!r}") from None
    tracer = env.tracer
    if tracer is None:
        tab = form(plan, env, outer)
    else:
        # One span per operator evaluation.  ``node`` keys per-node
        # actuals for EXPLAIN ANALYZE (the plan object outlives the
        # execution); ``_eval_source`` / ``_eval_pushed`` annotate the
        # open span with transfer details while it is current on this
        # thread.
        with tracer.start(
            plan.describe(),
            kind="operator",
            operator=plan.operator_name(),
            node=id(plan),
        ) as span:
            tab = form(plan, env, outer)
            span.annotate(rows=len(tab))
    if not isinstance(plan, _UNCOUNTED):
        env.stats.record_operator(plan.operator_name(), len(tab))
    return tab


# ---------------------------------------------------------------------------
# Leaf operators
# ---------------------------------------------------------------------------

def _eval_source(plan: SourceOp, env: Environment, _outer: Optional[Row]) -> Tab:
    adapter = env.source(plan.source)
    if plan.document not in adapter.document_name_set():
        raise UnknownDocumentError(
            f"source {plan.source!r} exports no document {plan.document!r}"
        )
    root = adapter.document(plan.document)
    size = serialized_size(root)
    env.stats.record_call(plan.source)
    env.stats.record_transfer(plan.source, rows=1, size=size)
    if env.tracer is not None:
        env.tracer.annotate(source=plan.source, calls=1, bytes=size)
    return _one_cell(plan.document, root)


def _eval_pushed(plan: PushedOp, env: Environment, outer: Optional[Row]) -> Tab:
    adapter = env.source(plan.source)
    tab, native = adapter.execute_pushed(plan.plan, outer)
    size = tab_serialized_size(tab)
    env.stats.record_native(plan.source, native)
    env.stats.record_call(plan.source)
    env.stats.record_transfer(plan.source, rows=len(tab), size=size)
    if env.tracer is not None:
        env.tracer.annotate(
            source=plan.source, calls=1, bytes=size, native=str(native)
        )
    if isinstance(outer, BindingSet):
        env.stats.record_passed_keys(len(outer.keys))
        if env.tracer is not None:
            env.tracer.annotate(keys=len(outer.keys))
    return tab


# ---------------------------------------------------------------------------
# Unary operators
# ---------------------------------------------------------------------------

def _eval_bind(plan: BindOp, env: Environment, outer: Optional[Row]) -> Tab:
    """Engine Bind: the filter's compiled engine per input row; bindings
    zip straight into column arrays.

    Base cells are gathered by repetition counts and binding tuples are
    transposed once at the end.
    """
    input_tab = _evaluate(plan.input, env, outer)
    engine = bind_engine(plan.filter)
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
    return Tab.from_columns(out_columns, out_cols, total)


def _eval_select(plan: SelectOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    return _filter(input_tab, env.compile(plan.predicate), outer, env)


def _filter(tab: Tab, predicate, outer: Optional[Row], env: Environment) -> Tab:
    """The rows of *tab* satisfying *predicate*, probed through a cursor
    (with *outer* as the correlation overlay) and gathered by position."""
    cursor = ColumnCursor(tab, outer)
    functions = env.functions
    return tab.take([
        i for i in range(len(tab)) if bool(predicate(cursor.seek(i), functions))
    ])


def _eval_project(plan: ProjectOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    kept = input_tab.project(tuple(column for column, _alias in plan.items))
    return Tab.from_columns(plan.output_columns(), kept.column_data(), len(kept))


def _eval_group(plan: GroupOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    nested_columns = tuple(c for c in input_tab.columns if c not in plan.by)
    groups: Dict[tuple, List[Row]] = {}
    keys_cells: Dict[tuple, tuple] = {}
    for row in input_tab:
        key_cells = tuple(row[c] for c in plan.by)
        key = tuple(map(_cell_key, key_cells))
        if key not in groups:
            groups[key] = []
            keys_cells[key] = key_cells
        groups[key].append(row.projected(nested_columns))
    return Tab.from_tuples(
        plan.by + (plan.into,),
        [keys_cells[key] + (tuple(rows),) for key, rows in groups.items()],
    )


def _eval_sort(plan: SortOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    keys = [input_tab.column(c) for c in plan.by]
    return input_tab.take(sorted(
        range(len(input_tab)),
        key=lambda i: tuple(_orderable(column[i]) for column in keys),
        reverse=plan.descending,
    ))


def _eval_map(plan: MapOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    new_names = tuple(name for name, _e in plan.bindings)
    evaluators = tuple(env.compile(expr) for _n, expr in plan.bindings)
    cursor = ColumnCursor(input_tab, outer)
    functions = env.functions
    computed = Tab.from_tuples(new_names, [
        tuple(fn(cursor.seek(i), functions) for fn in evaluators)
        for i in range(len(input_tab))
    ])
    return _beside(input_tab, computed)


def _eval_tree(plan: TreeOp, env: Environment, outer: Optional[Row]) -> Tab:
    input_tab = _evaluate(plan.input, env, outer)
    tree = construct(input_tab, plan.constructor, env.skolems, env.functions)
    return _one_cell(plan.document, tree)


def _one_cell(column: str, cell) -> Tab:
    """The one-row, one-column Tab holding *cell*."""
    return Tab.from_columns((column,), ((cell,),))


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
        cell = tab.column_data()[0][0]
        if not isinstance(cell, DataNode):
            raise EvaluationError("Fuse inputs must build document trees")
        documents.append(cell)
    fused = fuse_documents(documents)
    return _one_cell(plan.document, fused)


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
) -> List[Tab]:
    """Evaluate two independent inputs, concurrently when the policy allows.

    Error propagation is deterministic either way: the left input's
    error wins, exactly as in serial evaluation (where a failing left
    input means the right is never evaluated at all).
    """
    return _every_tab(env.each((
        lambda: _evaluate(left_plan, env, outer),
        lambda: _evaluate(right_plan, env, outer),
    )))


def _every_tab(outcomes) -> List[Tab]:
    """The tabs of :meth:`Environment.each` outcomes; the first error
    raises, before any later outcome is read."""
    tabs = []
    for tab, error in outcomes:
        if error is not None:
            raise error
        tabs.append(tab)
    return tabs


def _eval_join(plan: JoinOp, env: Environment, outer: Optional[Row]) -> Tab:
    left, right = _eval_pair(plan.left, plan.right, env, outer)
    # Associative access (the Figure 7 payoff): equality and
    # reference-identity predicates evaluate as hash joins; everything
    # else is the nested loop — every pair in left-major order, filtered.
    keys = _hash_join_keys(plan, left.columns, right.columns)
    if keys is not None:
        return _hash_join(left, right, *keys)
    n, m = len(left), len(right)
    pairs = _beside(
        left.take([i for i in range(n) for _ in range(m)]),
        right.take(list(range(m)) * n),
    )
    return _filter(pairs, env.compile(plan.predicate), outer, env)


def _beside(left: Tab, right: Tab) -> Tab:
    """*left*'s columns followed by *right*'s, position by position."""
    return Tab.from_columns(
        left.columns + right.columns,
        left.column_data() + right.column_data(),
        len(left),
    )


def _hash_join_keys(plan: JoinOp, left_columns, right_columns):
    """``(left key fns, right key fns)`` when every conjunct is hashable;
    ``None`` otherwise.

    Hashable conjuncts: ``Var = Var`` across the two sides (keyed by the
    structural value), and ``ref_is($ref, $obj)`` (keyed by the reference
    target / node identifier).  Key functions read a :class:`ColumnCursor`.
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


def _hash_join(left: Tab, right: Tab, left_keys, right_keys) -> Tab:
    """Hash join: match by cursor probes, emit by position gathers."""
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
    return _beside(left.take(left_picks), right.take(right_picks))


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
            return _hash_join(
                left, right,
                [lambda row, n=v: _eq_key(row[n]) for _c, v in pairs],
                [lambda row, n=c: _eq_key(row[n]) for c, _v in pairs],
            )

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
    avoided = len(left) - len(representative)
    env.stats.record_batched(avoided)
    if env.tracer is not None and avoided > 0:
        env.tracer.annotate(batched=avoided)
    tabs = dict(zip(representative, _every_tab(env.each([
        lambda o=inner_outer: _evaluate(plan.right, env, o)
        for inner_outer in representative.values()
    ]))))

    # Re-expansion in left-row order: each left row repeats once per row
    # of its binding's answer.  An empty answer contributes no cells and
    # does not decide the right columns (a pruned Scatter answers in the
    # static column order).
    answers = [tabs[key] for key in keys]
    picks = [i for i, answer in enumerate(answers) for _ in range(len(answer))]
    filled = [answer for answer in answers if len(answer)]
    right_columns = filled[0].columns if filled else plan.right.output_columns()
    return _beside(left.take(picks), Tab.concat(right_columns, filled))


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

    When the environment allows partial results, a branch whose sources
    are unavailable (retries exhausted or circuit open) is *dropped*: its
    sources and the failure cause are recorded on the stats, the answer
    is marked degraded, and the surviving branch is returned.  With both
    branches down there is no partial answer, so
    :class:`PartialResultError` is raised.
    """
    tabs = _surviving_branches("Union", (plan.left, plan.right), env, outer)
    return Tab.concat(tabs[0].columns, tabs).distinct()


def _eval_scatter(plan: ScatterOp, env: Environment, outer: Optional[Row]) -> Tab:
    """Scatter-gather over shard branches, concatenated in shard order.

    Unlike Union, no ``distinct`` is applied: the partitioning function
    places every document on exactly one shard, so the branches are
    disjoint bags whose shard-order concatenation *is* the logical
    source's answer.  Branches run concurrently under a parallel policy
    and fold in shard order, so the result — and error propagation — is
    byte-identical to serial evaluation.

    Only the branches :meth:`ScatterOp.shards` keeps are evaluated: the
    partition-key restrictions on this request's bound constants, and
    the owner of the outer row's key under ``prune_param`` (per outer
    row, under a DJoin).  Of those, empty shards are skipped too.

    Degradation mirrors Union: under a partial-results policy a branch
    whose shard is unavailable (all replicas down) is dropped and
    recorded; with every branch down there is no partial answer.
    """
    shards = holding_shards(plan, plan.shards(outer), env.sources)
    total = len(plan.branches)
    env.stats.record_shard(scatter=len(shards), pruned=total - len(shards))
    if env.tracer is not None:
        env.tracer.annotate(
            shards=len(shards), shard_total=total,
            shard_pruned=total - len(shards),
        )
    if not shards:
        # No shard can hold a match (contradictory key restrictions, the
        # outer row's owner restricted away, or only empty shards left).
        return Tab(plan.output_columns())
    tabs = _surviving_branches(
        "shard", [plan.branches[shard] for shard in shards], env, outer
    )
    return Tab.concat(tabs[0].columns, tabs)


def holds_data(adapter) -> bool:
    """The duck-typed ``holds_data()`` metadata; unknown means "may"."""
    probe = getattr(adapter, "holds_data", None)
    return probe is None or probe()


def holding_shards(
    plan: ScatterOp, shards: Sequence[int], sources: Dict[str, SourceAdapter]
) -> Tuple[int, ...]:
    """The shards among *shards* whose branch reads a source that may
    hold data.  Read per execution, never planned."""
    return tuple(
        shard for shard in shards
        if any(
            holds_data(sources.get(name))
            for name in plan.branches[shard].sources()
        )
    )


def _surviving_branches(
    kind: str, branches, env: Environment, outer: Optional[Row]
) -> List[Tab]:
    """Evaluate *branches* — concurrently under a parallel policy — and
    fold their outcomes in branch order, so degradation bookkeeping and
    error propagation match the serial path (a failing first branch
    under a fail-fast policy re-raises before the next is examined).

    Under a partial-results policy a branch whose sources are unavailable
    is dropped and recorded; with every branch down there is no partial
    answer.
    """
    outcomes = env.each(
        [lambda b=branch: _evaluate(b, env, outer) for branch in branches]
    )
    tabs: List[Tab] = []
    last_error: Optional[SourceUnavailableError] = None
    for branch, (tab, error) in zip(branches, outcomes):
        if error is None:
            tabs.append(tab)
            continue
        if not (isinstance(error, SourceUnavailableError) and env.allow_partial):
            raise error
        involved = ", ".join(sorted(branch.sources())) or "?"
        failed = error.source or involved
        env.stats.record_dropped(
            failed, f"{kind.lower()} branch over [{involved}] dropped: {error}"
        )
        if env.tracer is not None:
            env.tracer.annotate(dropped=failed)
        last_error = error
    if not tabs:
        raise PartialResultError(
            f"every {kind} branch failed; no partial result to return"
        ) from last_error
    return tabs


def _eval_intersect(plan: IntersectOp, env: Environment, outer: Optional[Row]) -> Tab:
    left, right = _eval_pair(plan.left, plan.right, env, outer)
    if left.columns != right.columns:
        right = right.project(left.columns)
    right_keys = set(right.row_keys())
    return left.take([
        i for i, key in enumerate(left.row_keys()) if key in right_keys
    ]).distinct()


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


# ---------------------------------------------------------------------------
# Operator forms
# ---------------------------------------------------------------------------

#: The engine's form of every operator, ``form(plan, env, outer)``.
_FORMS: Dict[type, Callable[[Plan, Environment, Optional[Row]], Tab]] = {
    UnitOp: lambda plan, env, outer: Tab.from_columns((), (), 1),
    LiteralOp: lambda plan, env, outer: plan.tab,
    SourceOp: _eval_source,
    BindOp: _eval_bind,
    SelectOp: _eval_select,
    DistinctOp: lambda plan, env, outer: _evaluate(plan.input, env, outer).distinct(),
    ProjectOp: _eval_project,
    JoinOp: _eval_join,
    DJoinOp: _eval_djoin,
    UnionOp: _eval_union,
    ScatterOp: _eval_scatter,
    IntersectOp: _eval_intersect,
    GroupOp: _eval_group,
    SortOp: _eval_sort,
    MapOp: _eval_map,
    TreeOp: _eval_tree,
    FuseOp: _eval_fuse,
    PushedOp: _eval_pushed,
}


# ---------------------------------------------------------------------------
# The oracle: ExecutionPolicy.serial()
# ---------------------------------------------------------------------------
#
# The naive algorithms, byte for byte, over the same Tab storage: every
# faster form above is tested against these.  With the interpreted
# predicates (``expr.evaluate``, chosen beside these forms), they are all
# the oracle changes; every other operator has one form.

def _bind_reference(plan: BindOp, env: Environment, outer: Optional[Row]) -> Tab:
    """The oracle's Bind: recursive ``FilterMatcher``, row by row."""
    input_tab = _evaluate(plan.input, env, outer)
    matcher = FilterMatcher(index=env.ident_index())
    flt = plan.filter
    variables = flt.variables()
    base_columns = tuple(
        c for c in input_tab.columns if plan.keep_on or c != plan.on
    )
    out_columns = base_columns + variables
    rows: List[tuple] = []
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
            rows.append(base_cells + tuple(binding[var] for var in variables))
    return Tab.from_tuples(out_columns, rows)


def _djoin_reference(plan: DJoinOp, env: Environment, outer: Optional[Row]) -> Tab:
    """The paper's per-row DJoin loop.  Column names come from the actual
    right-hand Tabs (a pushed fragment may order its columns differently
    from the static inference)."""
    left = _evaluate(plan.left, env, outer)
    out_columns = plan.output_columns()
    rows = []
    for lrow in left:
        right = _evaluate(plan.right, env, _overlay(lrow, outer))
        out_columns = left.columns + right.columns
        for rrow in right:
            rows.append(Row(out_columns, lrow.cells + rrow.cells))
    return Tab(out_columns, rows)


_ORACLE_FORMS = {**_FORMS, BindOp: _bind_reference, DJoinOp: _djoin_reference}
