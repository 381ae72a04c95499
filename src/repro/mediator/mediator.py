"""The YAT mediator: connect, import, load, query (paper, Figure 2).

:class:`Mediator` ties the whole system together:

* :meth:`connect` imports a wrapper's structure and capabilities through
  the XML wire format;
* :meth:`load_program` registers a YAT_L integration program's rules as
  views;
* :meth:`query` parses a user query, composes it with views, optimizes
  it through the three rewriting rounds, evaluates it, and returns a
  :class:`QueryResult` carrying the answer, both plans, the rewrite
  trace and the execution statistics; :meth:`explain` plans (and under
  ``analyze=True`` executes) through the same path.

The mediator holds no data (Section 2); its caches are three plain
:class:`~repro.memo.Memo` tables, each ``None`` when switched off:

* ``plan_cache`` — normalized query shape (constants lifted into
  :class:`~repro.core.algebra.expressions.Param` slots) plus the catalog
  epoch → ``(naive, optimized, trace)``.  A cached plan is parametric:
  each request brings its parameter vector in its
  :class:`~repro.observability.context.RequestContext`, so the very plan
  objects, and whatever execution compiled onto them, serve every
  constant;
* ``plan_texts`` — query text → its normalized form, so a repeated text
  skips the lexer;
* ``result_cache`` — shape, constants and planning knobs → the answer
  Tab, bounded by serialized bytes, tagged with the version vector of
  the sources the plan reads (read before executing) and served single
  flight.  Degraded (partial) answers are never stored.

The mediator registers two built-in functions sources never need to
declare: ``ref_is`` (reference identity, used by extent-join rewriting)
and ``contains`` (word containment, the *fallback* when a contains
predicate could not be pushed — naive plans still give correct answers).
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence, Tuple

from repro.errors import UnknownDocumentError
from repro.capabilities.interface import SourceInterface
from repro.core.algebra.evaluator import holding_shards
from repro.core.algebra.operators import Plan, ScatterOp
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.core.algebra.stats import ExecutionStats
from repro.core.algebra.tab import Tab, tab_serialized_size
from repro.core.optimizer.bind_split import ref_is
from repro.core.optimizer.planner import Optimizer
from repro.core.optimizer.rules import OptimizerContext, RewriteTrace
from repro.mediator.catalog import Catalog
from repro.mediator.execution import ExecutionReport, run_plan
from repro.mediator.resilience import ResiliencePolicy
from repro.mediator.views import VIEW_SOURCE, ViewRegistry
from repro.memo import Memo
from repro.model.trees import DataNode
from repro.observability.context import RequestContext, activate_context
from repro.sources.wais.index import document_contains
from repro.wrappers.base import Wrapper
from repro.yatl.ast import YatlQuery
from repro.yatl.normalize import NormalizedQuery, normalize_query
from repro.yatl.parser import parse_program, parse_query
from repro.yatl.translator import translate_query, translate_rule

def _with_params(
    context: Optional[RequestContext], params: Tuple[object, ...]
) -> RequestContext:
    """*context* (or a fresh one) carrying the request's parameter vector."""
    if context is None:
        return RequestContext(params=params)
    return context.replace(params=params)


class BoundPlan(Plan):
    """A parametric plan with one request's parameter vector.

    What :meth:`Mediator.plan_query` hands out, so the staged
    ``plan_query`` → ``execute`` path runs a cached plan without a new
    argument.  Built per request and never cached: the one plan node
    that holds bound values.
    """

    __slots__ = ("plan", "params")

    def __init__(self, plan: Plan, params: Tuple[object, ...]) -> None:
        self.plan = plan
        self.params = params

    def output_columns(self):
        return self.plan.output_columns()

    def describe(self):
        return f"Bound({', '.join(map(repr, self.params))})"


def _read_nodes(plan: Plan):
    """*plan*'s nodes, pre-order, minus the Scatter branches the active
    request's parameters prune (:meth:`ScatterOp.shards`).  Empty shards
    stay: emptiness is a fact at a version, like any other read."""
    yield plan
    if isinstance(plan, ScatterOp):
        children = [plan.branches[shard] for shard in plan.shards()]
    else:
        children = plan.children()
    for child in children:
        yield from _read_nodes(child)


def _mediator_contains(document: object, text: object) -> bool:
    if not isinstance(document, DataNode) or not isinstance(text, str):
        return False
    return document_contains(document, text)


def _field_contains(field: str):
    """Mediator fallback for a field-scoped contains predicate: the words
    of the field's own atoms, as the Wais index posts them."""
    from repro.sources.wais.index import tokenize

    def implementation(document: object, text: object) -> bool:
        if not isinstance(document, DataNode) or not isinstance(text, str):
            return False
        words = set(tokenize(text))
        if not words:
            return True
        present: set = set()
        for node in document.descendants():
            if node.label == field and node.is_atom_leaf:
                present.update(tokenize(str(node.atom)))
        return words <= present

    return implementation


class QueryResult:
    """Everything :meth:`Mediator.query` learned about one query.

    A served query's admission record is its
    :class:`~repro.server.Ticket`; nothing of it is copied here.  Plain
    EXPLAIN keeps only the planned part: its ``report`` is ``None``.
    """

    __slots__ = (
        "naive_plan", "plan", "trace", "report", "cached", "result_cached",
        "params",
    )

    def __init__(
        self,
        naive_plan: Plan,
        plan: Plan,
        trace: RewriteTrace,
        report: Optional[ExecutionReport],
        cached: bool = False,
        result_cached: bool = False,
        params: Tuple[object, ...] = (),
    ) -> None:
        self.naive_plan = naive_plan
        self.plan = plan
        self.trace = trace
        self.report = report
        #: True when the plan came from the plan cache instead of a fresh
        #: planning pass: the very plan objects of the first query of
        #: this shape, bound to this query's ``params``.
        self.cached = cached
        #: True when the *answer* came from the result cache — nothing
        #: was executed and the report carries empty statistics.
        self.result_cached = result_cached
        #: The parameter vector ``plan`` ran with: the values of the
        #: constants it holds as :class:`~repro.core.algebra.expressions.Param`
        #: slots (empty when the plan cache is off and the plan holds its
        #: constants inline).  Re-executing a part of ``plan`` needs it:
        #: ``mediator.execute(node, context=RequestContext(params=...))``.
        self.params = params

    @property
    def tab(self) -> Tab:
        return self.report.tab

    @property
    def degraded(self) -> bool:
        """True when the answer is partial (a source branch was dropped)."""
        return self.report.degraded

    @property
    def outcomes(self):
        """Per-source resilience records from the execution."""
        return self.report.outcomes

    def document(self) -> DataNode:
        return self.report.document()

    def __repr__(self) -> str:
        degraded = ", degraded" if self.degraded else ""
        return (
            f"QueryResult({self.report!r}, {len(self.trace)} rewrites{degraded})"
        )


class Mediator:
    """One mediator instance (``yat-mediator`` in Figure 2)."""

    def __init__(
        self,
        name: str = "yat",
        policy: Optional[ResiliencePolicy] = None,
        execution: Optional[ExecutionPolicy] = None,
        plan_cache_size: int = 128,
        result_cache_bytes: int = 0,
    ) -> None:
        self.name = name
        self.catalog = Catalog()
        self.views = ViewRegistry()
        self._containments: set = set()
        #: Normalized shape → ``(naive, optimized, trace)``, and query
        #: text → normalized form; both ``None`` with
        #: ``plan_cache_size=0``, and every query then plans from scratch.
        self.plan_cache: Optional[Memo] = None
        self.plan_texts: Optional[Memo] = None
        if plan_cache_size > 0:
            self.plan_cache = Memo(plan_cache_size)
            # Many texts share one shape, so the parse memo holds more
            # texts than the plan memo holds shapes.
            self.plan_texts = Memo(max(512, plan_cache_size))
        #: Answers bounded by serialized bytes and tagged by version
        #: vector, or ``None`` (the default): every query then executes.
        #: Opt in with ``result_cache_bytes=32 << 20`` for serving.
        self.result_cache: Optional[Memo] = (
            Memo(result_cache_bytes, weigh=tab_serialized_size)
            if result_cache_bytes > 0
            else None
        )
        #: Bumped whenever the catalog changes shape (connect, views,
        #: containments); part of every cache key, so stale plans are
        #: unreachable even before the explicit invalidate() frees them.
        self._epoch = 0
        #: Guards the catalog epoch against concurrent sessions; the
        #: caches carry their own locks.
        self._plan_lock = threading.RLock()
        #: Resilience policy used by :meth:`execute` / :meth:`query` unless
        #: overridden per call; ``None`` means fail-fast, unwrapped.
        self.policy = policy
        #: Execution policy (parallelism, or the ``serial()`` reference
        #: engine); ``None`` means the default :class:`ExecutionPolicy` —
        #: serial order on the optimized engine.
        self.execution = execution
        self.functions = {
            "ref_is": ref_is,
            "contains": _mediator_contains,
        }

    # -- setup (the Figure 2 session) ------------------------------------------

    def connect(self, wrapper: Wrapper) -> SourceInterface:
        """Connect a wrapper and import its capabilities."""
        interface = self.catalog.connect(wrapper)
        self._add_contains_fallbacks(interface)
        self._invalidate_plans()
        return interface

    def _add_contains_fallbacks(self, interface: SourceInterface) -> None:
        # Field-scoped contains predicates get mediator fallbacks, so an
        # unpushed plan still evaluates them correctly.
        for name, declaration in interface.operations.items():
            if (
                declaration.kind == "external"
                and name.startswith("contains_")
                and name not in self.functions
            ):
                self.functions[name] = _field_contains(
                    name.removeprefix("contains_")
                )

    def connect_sharded(
        self, logical: str, shards: Sequence, partition
    ) -> Tuple[SourceInterface, ...]:
        """Connect N shard adapters as one sharded logical source.

        *shards* are per-shard wrappers (or
        :class:`~repro.sources.sharded.adapter.ReplicaSet` bundles of
        them) in shard order; *partition* is the placement scheme
        (:class:`~repro.sources.sharded.partition.HashPartition`).  The
        optimizer learns the topology through :meth:`optimizer_context`
        and expands Bind chains over the logical source into pruned
        scatter plans; see :mod:`repro.core.optimizer.sharding`.
        """
        interfaces = self.catalog.connect_sharded(logical, shards, partition)
        for interface in interfaces:
            self._add_contains_fallbacks(interface)
        self._invalidate_plans()
        return interfaces

    def load_program(self, text: str) -> Tuple[str, ...]:
        """Parse a YAT_L program and register each rule as a view.

        Inside a rule's own body, its name refers to the *source* document
        (the paper's ``artworks()`` rule MATCHes the Wais ``artworks``
        document); everywhere else the view shadows the document.
        """
        program = parse_program(text)
        for rule in program.rules:
            plan = translate_rule(
                rule,
                lambda document, _defining=rule.name: self._resolve_document(
                    document, defining=_defining
                ),
            )
            self.views.define(rule.name, plan)
        names: list = []
        for rule in program.rules:
            if rule.name not in names:
                names.append(rule.name)
        self._invalidate_plans()
        return tuple(names)

    def declare_containment(self, subset_document: str, superset_document: str) -> None:
        """Administrator metadata for join-branch elimination (Figure 8)."""
        self._containments.add((subset_document, superset_document))
        self._invalidate_plans()

    def _invalidate_plans(self) -> None:
        """Catalog changed: cached plans are suspect."""
        with self._plan_lock:
            self._epoch += 1
        for memo in (self.plan_cache, self.plan_texts, self.result_cache):
            if memo is not None:
                memo.clear()

    # -- planning ------------------------------------------------------------------

    def _resolve_document(self, document: str, defining: Optional[str] = None) -> str:
        # Views shadow source documents, except inside their own definition
        # (a rule may be named after the document it integrates, as the
        # paper's artworks() rule is).
        if document in self.views and document != defining:
            return VIEW_SOURCE
        source = self.catalog.source_of_document(document)
        if source is not None:
            return source
        raise UnknownDocumentError(
            f"no connected source or view exports {document!r}; known documents: "
            f"{sorted(self.catalog.document_names() + self.views.names())}"
        )

    def optimizer_context(self) -> OptimizerContext:
        return OptimizerContext(
            interfaces=self.catalog.interfaces(),
            containments=set(self._containments),
            shards=self.catalog.shard_topologies(),
        )

    def plan_query(
        self, query: YatlQuery, optimize: bool = True
    ) -> Tuple[Plan, Plan, RewriteTrace]:
        """(naive plan, optimized plan, trace) for a parsed query, planned
        with all three rewrite rounds.

        With the plan cache on, both plans are the cached parametric ones
        bound to *query*'s constants (:class:`BoundPlan`), which
        :meth:`execute` runs as they are.
        """
        rounds = (1, 2, 3)
        if self.plan_cache is None:
            return self._plan_fresh(query, optimize, rounds)
        normalized = normalize_query(query)
        (naive, optimized, trace), _cached = self._plan_normalized(
            normalized, optimize, rounds
        )
        params = normalized.values
        return BoundPlan(naive, params), BoundPlan(optimized, params), trace

    def _plan_text(
        self, text: str, optimize: bool, rounds: tuple
    ) -> Tuple[QueryResult, Optional[NormalizedQuery]]:
        """Plan query *text* through the caches, memoizing the parse.

        Returns the planned part of the query's :class:`QueryResult` (no
        report yet) and its normalized form — the result cache keys on
        it; ``None`` only when both caches are off (the normalization
        pass is then pure overhead).
        """
        if self.plan_cache is None:
            query = parse_query(text)
            normalized = (
                normalize_query(query)
                if self.result_cache is not None
                else None
            )
            planned = self._plan_fresh(query, optimize, rounds)
            cached = False
        else:
            normalized = self.plan_texts.get(text)
            if normalized is None:
                normalized = normalize_query(parse_query(text))
                self.plan_texts.put(text, normalized)
            planned, cached = self._plan_normalized(normalized, optimize, rounds)
        params = normalized.values if normalized is not None else ()
        result = QueryResult(*planned, None, cached=cached, params=params)
        return result, normalized

    def _plan_normalized(
        self,
        normalized: NormalizedQuery,
        optimize: bool,
        rounds: tuple,
    ) -> Tuple[Tuple[Plan, Plan, RewriteTrace], bool]:
        """``((naive, optimized, trace), hit)``: the cached parametric
        plans of *normalized*'s shape, planned once on a miss and served
        to every vector after."""
        key = (normalized.key, optimize, rounds, self._epoch)
        planned = self.plan_cache.get(key)
        if planned is not None:
            return planned, True
        planned = self._plan_fresh(normalized.query, optimize, rounds)
        self.plan_cache.put(key, planned)
        return planned, False

    def _plan_fresh(
        self, query: YatlQuery, optimize: bool, rounds: Sequence[int]
    ) -> Tuple[Plan, Plan, RewriteTrace]:
        """One full planning pass: translate, compose, optimize."""
        translated = translate_query(query, self._resolve_document)
        naive = self.views.compose(translated)
        trace = RewriteTrace()
        optimized = naive
        if optimize:
            optimized, trace = Optimizer(self.optimizer_context()).optimize(
                naive, rounds=rounds, trace=trace
            )
        return naive, optimized, trace

    # -- result caching ----------------------------------------------------------

    def _result_key(
        self,
        normalized: NormalizedQuery,
        optimize: bool,
        rounds: tuple,
        execution: Optional[ExecutionPolicy],
    ) -> tuple:
        """The result-cache key: everything that could change the bytes.

        Query shape and constants, the planning knobs (an unoptimized
        answer is ordered differently from an optimized one is a
        non-goal — they are byte-identical by the soundness invariant,
        but keying on them costs nothing), the catalog epoch, and
        whether the reference engine ran.  The
        oracle's answers are byte-identical too, but keying on the bit
        keeps the cache conservative: an answer computed by one engine
        never stands in for the other's.  ``parallelism`` is excluded —
        it cannot change a byte.
        """
        return (
            normalized.key,
            normalized.values,
            optimize,
            rounds,
            self._epoch,
            self._reference(execution),
        )

    def _reference(self, execution: Optional[ExecutionPolicy]) -> bool:
        """Would a query under *execution* (or the mediator-wide default)
        run the ``serial()`` reference engine?"""
        effective = execution if execution is not None else self.execution
        return effective is not None and effective.reference

    def _version_vector(self, plan: Plan) -> tuple:
        """``((source, data_version), ...)`` for every source *plan* reads.

        Views are spliced, so their base sources are leaves of *plan*.  A
        Scatter contributes only the shards the active request's
        parameters leave it.
        """
        names = {
            node.source
            for node in _read_nodes(plan)
            if getattr(node, "source", None) is not None
        }
        adapters = self.catalog.adapters()
        return tuple(
            (name, adapters[name].data_version())
            for name in sorted(names)
        )

    def _execute_planned(
        self,
        result: QueryResult,
        normalized: Optional[NormalizedQuery],
        optimize: bool,
        rounds: tuple,
        policy: Optional[ResiliencePolicy],
        execution: Optional[ExecutionPolicy],
        context: RequestContext,
        use_result_cache: bool = True,
    ) -> QueryResult:
        """Complete the planned *result*: serve its answer from the
        result cache, or execute ``result.plan`` and store the answer.

        The entry is tagged with the version vector read **before**
        execution and concurrent misses on one key are single-flight
        (see :mod:`repro.memo`).  *context* (the active request) carries
        ``result.params``.
        """
        optimized = result.plan
        cache = self.result_cache
        if cache is None or not use_result_cache or normalized is None:
            result.report = self.execute(
                optimized, policy=policy, execution=execution, context=context
            )
            return result
        key = self._result_key(normalized, optimize, rounds, execution)

        def execute(versions: tuple) -> ExecutionReport:
            report = self.execute(
                optimized, policy=policy, execution=execution, context=context
            )
            if not report.degraded:
                # Degraded (partial) answers must never serve later
                # queries — a hit could not tell them from the full one.
                cache.put(key, report.tab, tag=versions)
            return report

        hit, value = cache.single_flight(
            key, lambda: self._version_vector(optimized), execute
        )
        if hit:
            value = ExecutionReport(
                optimized, value, ExecutionStats(), 0.0, trace=context.tracer
            )
        result.report, result.result_cached = value, hit
        return result

    # -- querying --------------------------------------------------------------------

    def query(
        self,
        text: str,
        optimize: bool = True,
        rounds: Sequence[int] = (1, 2, 3),
        policy: Optional[ResiliencePolicy] = None,
        execution: Optional[ExecutionPolicy] = None,
        tracer=None,
        context=None,
        use_result_cache: bool = True,
    ) -> QueryResult:
        """Parse, plan, optimize and evaluate a YAT_L query.

        *context* (a :class:`~repro.observability.context.RequestContext`)
        carries the requesting session's identity, deadline and tracer
        through the execution; the serving layer passes one per admitted
        request.  *tracer* records hierarchical spans of the execution
        (see :mod:`repro.observability`): it is put on the request's
        context, once, and wins over the context's own.

        With a result cache configured (``result_cache_bytes > 0`` at
        construction) a repeated query whose sources did not change is
        answered from the cache without executing anything —
        ``result.result_cached`` says so, and the report then carries
        empty statistics.  ``use_result_cache=False`` bypasses the cache
        for one call (the answer is neither looked up nor stored).
        """
        rounds = tuple(rounds)
        result, normalized = self._plan_text(text, optimize, rounds)
        context = _with_params(context, result.params)
        if tracer is not None:
            context = context.replace(tracer=tracer)
        with activate_context(context):
            return self._execute_planned(
                result, normalized, optimize, rounds, policy, execution,
                context, use_result_cache,
            )

    def explain(
        self,
        text: str,
        analyze: bool = False,
        optimize: bool = True,
        rounds: Sequence[int] = (1, 2, 3),
        execution: Optional[ExecutionPolicy] = None,
    ):
        """EXPLAIN (plan only) or EXPLAIN ANALYZE (plan + actuals) *text*.

        Plans the query through :meth:`query`'s own path and returns an
        :class:`~repro.explain.Explanation` whose
        ``render()`` / ``str()`` shows the optimized plan annotated with
        the pushdown decisions (which fragments run natively, and the
        native OQL / SQL / Wais text).  With ``analyze=True`` the plan is
        also executed as :meth:`query` executes it, under the mediator's
        own resilience policy and a fresh tracer, and every node is
        annotated with its actuals —
        number of evaluations, rows produced, inclusive wall time, source
        calls and bytes.

        Every mediator-side Bind node is annotated ``bind: scan``: the
        scan kernel (:func:`~repro.core.algebra.engine.bind_engine`)
        matches it, or the oracle under the ``serial()`` reference
        policy.

        Everything that depends on a constant's value — native texts,
        shard pruning, the store's access path — is decided on this
        query's bound parameters, so a cached plan explains exactly like
        a fresh one (bar the ``plan: cached`` line).
        """
        from repro.explain import Explanation
        from repro.observability.tracer import Tracer

        rounds = tuple(rounds)
        result, normalized = self._plan_text(text, optimize, rounds)
        context = RequestContext(
            params=result.params, tracer=Tracer() if analyze else None
        )
        with activate_context(context):
            access_paths = self._access_paths(result.plan)
            if analyze:
                self._execute_planned(
                    result, normalized, optimize, rounds, None, execution,
                    context,
                )
            elif self.result_cache is not None and normalized is not None:
                # Non-mutating peek: would this query serve from cache?
                result.result_cached = self.result_cache.peek(
                    self._result_key(normalized, optimize, rounds, execution),
                    tag=self._version_vector(result.plan),
                )
        return Explanation(text, result, access_paths)

    def _access_paths(self, optimized: Plan) -> dict:
        """``{id(node): "bind: ..."}`` for EXPLAIN, on the active request's
        parameters."""
        from repro.core.algebra.operators import BindOp, PushedOp

        access_paths = {
            id(node): "bind: scan"
            for node in optimized.walk() if isinstance(node, BindOp)
        }
        # Scatter nodes: show the pruning decision — how many shards of
        # the topology this Bind chain reads for these parameters, how
        # many it skips as empty, and whether each outer row is routed to
        # its owning shard.
        adapters = self.catalog.adapters()
        for node in optimized.walk():
            if not isinstance(node, ScatterOp):
                continue
            kept, total = node.shards(), len(node.branches)
            empty = len(kept) - len(holding_shards(node, kept, adapters))
            verb = "shard-pruned" if len(kept) < total else "scatter"
            label = f"bind: {verb} {len(kept) - empty}/{total}"
            if empty:
                label += f" ({empty} empty)"
            if node.prune_param is not None:
                label += f", runtime prune on ${node.prune_param}"
            access_paths[id(node)] = label
        # Pushed fragments: the access path is the *wrapper's* choice
        # (SQL interval pushdown vs. hydrated scan for store-backed
        # sources).  walk() stops at PushedOp on purpose — the fragment
        # is not rewritable — so descend explicitly for annotation only.
        for node in optimized.walk():
            if not isinstance(node, PushedOp):
                continue
            chooser = getattr(adapters.get(node.source), "pushdown_access", None)
            if chooser is None:
                continue
            for inner in node.plan.walk():
                if isinstance(inner, BindOp):
                    access_paths[id(inner)] = (
                        f"bind: {chooser(inner.filter, inner.on)}"
                    )
        return access_paths

    def memo_stats(self) -> dict:
        """``{memo name: Memo.stats()}`` for this mediator's own memos
        (a disabled cache contributes no row)."""
        memos = {
            "plan_cache": self.plan_cache,
            "plan_texts": self.plan_texts,
            "result_cache": self.result_cache,
        }
        return {
            name: memo.stats() for name, memo in memos.items()
            if memo is not None
        }

    def execute(
        self,
        plan: Plan,
        policy: Optional[ResiliencePolicy] = None,
        execution: Optional[ExecutionPolicy] = None,
        context: Optional[RequestContext] = None,
    ) -> ExecutionReport:
        """Evaluate an already-planned query with fresh statistics.

        *policy* (or the mediator-wide default given at construction)
        guards every source call; absent both, execution is fail-fast.
        *execution* (or the mediator-wide default) configures the
        federated scheduler — see :func:`run_plan`.  *context* is the
        request, whose tracer (if any) records the execution; it is
        never modified.  A parametric plan runs with the parameters of
        *context*, or — a :class:`BoundPlan` from :meth:`plan_query` —
        with its own.
        """
        if isinstance(plan, BoundPlan):
            context = _with_params(context, plan.params)
            plan = plan.plan
        return run_plan(
            plan,
            self.catalog.adapters(),
            functions=self.functions,
            policy=policy if policy is not None else self.policy,
            execution=execution if execution is not None else self.execution,
            context=context,
        )
