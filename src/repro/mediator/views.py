"""View registration, composition and materialization.

An integration program (``view1.yat``) defines named views as YAT_L
rules; user queries may then MATCH a view name exactly as they would a
source document.  Composition is *syntactic*: the ``Source`` leaf that
reads the view is replaced by the view's own plan, producing the naive
"materialize then query" expression on the left of Figure 8 — which
round one of the optimizer then collapses.

A view may additionally be declared **materialized**
(:meth:`ViewRegistry.materialize`): its plan is executed once, the
constructed document kept, and every later query MATCHing it is served
through the ordinary Bind–Source path against the kept document instead
of re-splicing (and re-executing) the view plan.  The kept document
lives in a :class:`~repro.memo.Memo` tagged with the registry's
definition generation and the ``data_version()`` vector of the base
sources the view reads; a query that finds either elsewhere triggers a
lazy refresh, so a source update or a reloaded program is visible on the
very next query and an unchanged federation never pays the view again.
:class:`MaterializedViewSource` is the evaluator-facing adapter that
serves those documents under the ``mediator`` pseudo-source name.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from repro.errors import ViewError
from repro.memo import Memo
from repro.core.algebra.evaluator import SourceAdapter
from repro.core.algebra.operators import FuseOp, Plan, SourceOp

#: The pseudo-source name used for documents that are mediator views.
VIEW_SOURCE = "mediator"


class ViewRegistry:
    """Named view plans (each a ``Tree``-rooted plan producing the view).

    Several rules may share one name: their partial results are fused
    through Skolem functions (paper, Section 2), so a program can build
    one document from multiple MATCH/MAKE rules.
    """

    def __init__(self) -> None:
        self._rules: Dict[str, List[Plan]] = {}
        #: Declared materialized views -> refresh executions so far.
        self._materialized: Dict[str, int] = {}
        #: ``view name -> kept document``, tagged ``(generation, version
        #: vector of the base sources the view reads)``; one slot per
        #: declared view (:meth:`materialize` grows the bound).
        self._documents = Memo(0)
        #: Bumped by every definition, declaration and catalog change.
        #: Part of the document tag, so a refresh that raced one stores
        #: under a dead tag and is refreshed again on the next read.
        self._generation = 0
        #: Memo of :meth:`refresh_plan` / :meth:`base_sources` per view;
        #: replaced whenever a definition or declaration changes.
        self._refresh_plans: Dict[str, Plan] = {}
        self._base_sources: Dict[str, FrozenSet[str]] = {}

    def _definitions_moved(self) -> None:
        # Fresh dicts rather than ``clear()``: a reader composing from
        # the old rules writes into the dict it fetched first, which
        # nobody reads any more.
        self._refresh_plans = {}
        self._base_sources = {}
        self._generation += 1

    def define(self, name: str, plan: Plan) -> None:
        if name not in plan.output_columns():
            raise ViewError(
                f"view plan for {name!r} must produce a column named {name!r}; "
                f"it produces {plan.output_columns()}"
            )
        self._rules.setdefault(name, []).append(plan)
        self._definitions_moved()

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def plan(self, name: str) -> Plan:
        try:
            plans = self._rules[name]
        except KeyError:
            raise ViewError(f"unknown view: {name!r}") from None
        if len(plans) == 1:
            return plans[0]
        return FuseOp(plans, name)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._rules)

    def compose(self, plan: Plan, _expanding: frozenset = frozenset()) -> Plan:
        """Replace every ``Source(mediator.<view>)`` leaf by the view plan.

        Materialized views are the exception: their leaves stay in the
        plan and are served as ordinary documents by
        :class:`MaterializedViewSource` at execution time.
        """
        if isinstance(plan, SourceOp):
            if plan.source == VIEW_SOURCE:
                if plan.document not in self._rules:
                    raise ViewError(f"unknown view: {plan.document!r}")
                if plan.document in _expanding:
                    raise ViewError(
                        f"view {plan.document!r} is recursively defined"
                    )
                if plan.document in self._materialized:
                    return plan
                # Views may reference other views: compose recursively.
                return self.compose(
                    self.plan(plan.document),
                    _expanding | {plan.document},
                )
            return plan
        children = plan.children()
        if not children:
            return plan
        new_children = [self.compose(child, _expanding) for child in children]
        if all(new is old for new, old in zip(new_children, children)):
            return plan
        return plan.with_children(new_children)

    # -- materialization ----------------------------------------------------------

    def materialize(self, name: str) -> None:
        """Declare *name* materialized (populated lazily on first use)."""
        if name not in self._rules:
            raise ViewError(f"unknown view: {name!r}")
        if name not in self._materialized:
            self._materialized[name] = 0
            self._documents.capacity = len(self._materialized)
            self._definitions_moved()

    def is_materialized(self, name: str) -> bool:
        return name in self._materialized

    def has_materialized(self) -> bool:
        return bool(self._materialized)

    def materialized_names(self) -> Tuple[str, ...]:
        return tuple(self._materialized)

    def kept_document(
        self,
        name: str,
        live_versions: Callable[[], tuple],
        refresh: Callable[[], object],
    ):
        """The kept document of materialized view *name*, refreshed if stale.

        Single-flight per view (:meth:`Memo.single_flight`): concurrent
        stale reads run ``refresh()`` once, and the new document is
        tagged with the generation and vector read *before* the refresh
        executed — a definition or source that moved meanwhile leaves it
        looking stale, never fresh.
        """
        if name not in self._materialized:
            raise ViewError(f"view {name!r} is not materialized")

        def live_tag() -> tuple:
            return self._generation, live_versions()

        def lead(tag: tuple):
            document = refresh()
            self._documents.put(name, document, tag=tag)
            self._materialized[name] += 1
            return document

        return self._documents.single_flight(name, live_tag, lead)[1]

    def reset_materialized(self) -> None:
        """Drop every kept document (catalog changed; keep declarations)."""
        self._documents.clear()
        self._definitions_moved()

    def refresh_plan(self, name: str) -> Plan:
        """The executable plan that (re)builds materialized view *name*.

        The view's own definition is spliced (non-materialized inner
        views expand recursively); *other* materialized views it reads
        stay as ``Source(mediator.*)`` leaves and are served — and
        refreshed — through the adapter, so a chain of materialized
        views refreshes level by level.
        """
        plans = self._refresh_plans
        memo = plans.get(name)
        if memo is None:
            memo = plans[name] = self.compose(
                self.plan(name), _expanding=frozenset({name})
            )
        return memo

    def base_sources(self, name: str, _seen: frozenset = frozenset()) -> FrozenSet[str]:
        """The real source names view *name* transitively reads."""
        sources = self._base_sources
        if _seen == frozenset():
            memo = sources.get(name)
            if memo is not None:
                return memo
        names: Set[str] = set()
        for node in self.refresh_plan(name).walk():
            source = getattr(node, "source", None)
            if source is None:
                continue
            if source == VIEW_SOURCE:
                inner = node.document
                if inner != name and inner not in _seen:
                    names |= self.base_sources(inner, _seen | {name})
            else:
                names.add(source)
        result = frozenset(names)
        if _seen == frozenset():
            sources[name] = result
        return result

    def materialized_stats(self) -> Dict[str, int]:
        """Counters for the ``yat_view_*`` metrics family.

        Every call of :meth:`kept_document` that returns is either a memo
        hit or a refresh, so ``serves`` is their sum.
        """
        refreshes = sum(self._materialized.values())
        return {
            "declared": len(self._materialized),
            "populated": len(self._documents),
            "refreshes": refreshes,
            "serves": self._documents.hits + refreshes,
        }

    def memo_stats(self) -> Dict[str, int]:
        """Counters of the kept-document memo (see :meth:`Memo.stats`)."""
        return self._documents.stats()


class MaterializedViewSource(SourceAdapter):
    """Evaluator adapter serving materialized view documents.

    Registered under :data:`VIEW_SOURCE` by the mediator whenever at
    least one view is materialized; ``document()`` delegates back to the
    mediator, which refreshes lazily when the view's base-source version
    vector moved.  References inside a view document are resolved
    through the base sources' identifier indexes (all connected adapters
    contribute to the evaluation environment's merged index), so this
    adapter exports none of its own.
    """

    def __init__(self, mediator) -> None:
        self._mediator = mediator

    def document_names(self) -> Tuple[str, ...]:
        return self._mediator.views.materialized_names()

    def document(self, name: str):
        return self._mediator.materialized_document(name)

    def ident_index(self) -> dict:
        return {}

    def execute_pushed(self, plan: Plan, outer=None):
        raise ViewError(
            "materialized views declare no native capabilities; "
            "nothing can be pushed to them"
        )
