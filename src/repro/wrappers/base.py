"""The generic wrapper protocol.

A wrapper (paper, Section 2 and Figure 2) makes one source available to
mediators.  It exports, *in XML*:

* structural information (pattern libraries at the right genericity);
* query capabilities (the operational interface of Section 4);

and it answers two kinds of requests:

* fetch a named document (full transfer — the expensive path);
* execute a pushed algebraic fragment natively and return a Tab (the
  cheap path enabled by capability-based rewriting).

Every wrapper validates pushed fragments against its own declared
capabilities before executing them, so a mediator bug cannot make a
source do something it never promised.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Dict, List, Optional, Tuple

from repro.errors import PushdownRejectedError, SourceError
from repro.capabilities.interface import SourceInterface
from repro.capabilities.matcher import CapabilityMatcher
from repro.capabilities.xml_codec import interface_to_xml
from repro.core.algebra.evaluator import SourceAdapter
from repro.core.algebra.operators import (
    BindOp,
    Plan,
    ProjectOp,
    SelectOp,
    SourceOp,
)
from repro.core.algebra.tab import BindingSet, Row, Tab
from repro.core.algebra.expressions import Cmp, Expr, Var, conjuncts
from repro.memo import Memo
from repro.model.filters import Filter
from repro.model.trees import DataNode
from repro.observability.context import current_tracer


class PushedFragment:
    """Normal form of a pushable plan fragment.

    Every wrapper in this reproduction accepts the same fragment shape —
    the shape capability-based rewriting produces (Section 5.3)::

        [Project] ( [Select]* ( Bind ( Source ) ) )

    ``analyze_fragment`` decomposes a plan into this normal form or
    raises :class:`PushdownRejectedError` when the plan does not fit —
    a deterministic rejection resilience policies never retry.
    """

    __slots__ = ("document", "filter", "selections", "projection")

    def __init__(
        self,
        document: str,
        filter: Filter,
        selections: Tuple[Expr, ...],
        projection: Optional[Tuple[Tuple[str, str], ...]],
    ) -> None:
        self.document = document
        self.filter = filter
        self.selections = selections
        self.projection = projection


def analyze_fragment(plan: Plan, source_name: str) -> PushedFragment:
    """Decompose *plan* into the pushable normal form."""
    projection: Optional[Tuple[Tuple[str, str], ...]] = None
    if isinstance(plan, ProjectOp):
        projection = plan.items
        plan = plan.input
    selections: List[Expr] = []
    while isinstance(plan, SelectOp):
        selections.append(plan.predicate)
        plan = plan.input
    if not isinstance(plan, BindOp):
        raise PushdownRejectedError(
            f"pushed plan for {source_name!r} must bottom out in Bind(Source); "
            f"got {plan.describe()}"
        )
    bind = plan
    if not isinstance(bind.input, SourceOp):
        raise PushdownRejectedError(
            f"pushed Bind for {source_name!r} must read a Source directly"
        )
    source_op = bind.input
    if source_op.source != source_name:
        raise PushdownRejectedError(
            f"pushed plan targets source {source_op.source!r}, "
            f"but was sent to {source_name!r}"
        )
    if bind.on != source_op.document:
        raise PushdownRejectedError(
            f"pushed Bind must match the source document "
            f"({bind.on!r} != {source_op.document!r})"
        )
    # Selections were collected top-down; apply bottom-up.
    selections.reverse()
    return PushedFragment(source_op.document, bind.filter, tuple(selections), projection)


class Wrapper(SourceAdapter):
    """Base class of generic wrappers."""

    #: Bound on the per-wrapper fragment memo (``checked_fragment``).
    FRAGMENT_MEMO_CAPACITY = 256

    def __init__(self, name: str) -> None:
        self.name = name
        self._interface: Optional[SourceInterface] = None
        self._document_name_set: Optional[frozenset] = None
        self._matcher: Optional[CapabilityMatcher] = None
        #: ``id(plan) -> fragment``, anchored on the plan.  One wrapper
        #: serves every concurrent session; fragment analysis and
        #: document builds run outside the memo's lock.
        self._fragments = Memo(self.FRAGMENT_MEMO_CAPACITY)
        #: ``name -> tree``, tagged with the data version it was built at;
        #: one slot per exported document (sized by :meth:`document`, the
        #: names are the subclass's to know), so nothing is ever evicted.
        self._documents = Memo(0)

    def document_name_set(self) -> frozenset:
        """Exported document names as a set, cached after the first call.

        ``SourceOp`` evaluation checks membership here on every
        evaluation; wrappers export a fixed document list, so scanning
        the tuple each time is pure waste.
        """
        if self._document_name_set is None:
            self._document_name_set = frozenset(self.document_names())
        return self._document_name_set

    # -- capability export -------------------------------------------------------

    @abstractmethod
    def build_interface(self) -> SourceInterface:
        """Construct this source's interface (structures + capabilities)."""

    def interface(self) -> SourceInterface:
        """The exported interface (built once, then cached)."""
        if self._interface is None:
            self._interface = self.build_interface()
        return self._interface

    def interface_xml(self) -> str:
        """The interface as the XML document sent to mediators.

        Mediators re-parse this text rather than sharing Python objects,
        which keeps the wire format honest end to end.
        """
        return interface_to_xml(self.interface())

    def matcher(self) -> CapabilityMatcher:
        """Admissibility checker over this wrapper's own interface.

        Built once and reused: the interface is immutable after
        :meth:`interface` caches it, and the matcher holds no per-check
        state, so every pushed call sharing one instance is sound.
        """
        if self._matcher is None:
            self._matcher = CapabilityMatcher(self.interface())
        return self._matcher

    # -- validation --------------------------------------------------------------

    def validate_fragment(self, fragment: PushedFragment) -> None:
        """Reject fragments outside the declared capabilities."""
        matcher = self.matcher()
        admissible = matcher.bind_admissible(fragment.filter)
        if not admissible:
            raise PushdownRejectedError(
                f"wrapper {self.name!r} rejects pushed filter: {admissible.reason}"
            )
        for predicate in fragment.selections:
            pushable = matcher.predicate_pushable(predicate)
            if not pushable:
                raise PushdownRejectedError(
                    f"wrapper {self.name!r} rejects pushed predicate "
                    f"{predicate.text()}: {pushable.reason}"
                )
        if fragment.projection is not None:
            pushable = matcher.operation_pushable("project")
            if not pushable:
                raise PushdownRejectedError(
                    f"wrapper {self.name!r} rejects pushed projection: "
                    f"{pushable.reason}"
                )

    def checked_fragment(self, plan: Plan) -> PushedFragment:
        """Analyze and validate *plan* once per plan object.

        Plans are immutable and the interface is fixed, so both the
        decomposition and the capability check are pure in the plan.
        The mediator's plan cache replays the very same plan objects on
        every warm hit — this memo makes every crossing after the first
        a dictionary lookup.  Rejections are not memoized; the error path
        is cold by construction.
        """
        return self._fragments.get_or_build(
            id(plan), self._check_fragment, plan, anchor=plan
        )

    def _check_fragment(self, plan: Plan) -> PushedFragment:
        fragment = analyze_fragment(plan, self.name)
        self.validate_fragment(fragment)
        return fragment

    # -- document export ----------------------------------------------------------

    def data_version(self) -> int:
        """Monotonic version of the source's data; any change bumps it.

        Wrappers over mutable stores override this with the store's own
        version counter.  The default (a constant) means "immutable",
        which keeps the document memo valid forever.
        """
        return 0

    def document(self, name: str) -> DataNode:
        """The named document tree, memoized per data version.

        Rebuilding the export on every call would give each query a
        *different* root object, defeating both the mediator's document
        indexes (keyed by tree identity) and any caching above us; the
        memo serves one stable tree until :meth:`data_version` moves.
        """
        documents = self._documents
        if not documents.capacity:
            documents.capacity = len(self.document_name_set())
        return documents.get_or_build(
            name, self.build_document, name, tag=self.data_version()
        )

    @abstractmethod
    def build_document(self, name: str) -> DataNode:
        """Construct the named document's tree (one full export)."""

    # -- memo accounting ----------------------------------------------------------

    def memo_stats(self) -> Dict[str, Dict[str, int]]:
        """``{memo name: Memo.stats()}`` for metrics export.

        Subclasses with additional memos extend the dict.
        """
        return {
            "fragments": self._fragments.stats(),
            "documents": self._documents.stats(),
        }

    # -- SourceAdapter defaults ---------------------------------------------------

    def ident_index(self) -> Dict[str, DataNode]:
        return {}

    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        tracer = current_tracer()
        if tracer is None:
            fragment = self.checked_fragment(plan)
            return self.run_fragment(fragment, plan, outer)
        # Wrapper-side view of the pushed call: fragment analysis and
        # capability validation are mediator-protocol work, the native
        # run is the source's own; the span separates the two and records
        # the generated native text.
        with tracer.start(
            f"wrapper:{self.name}", kind="wrapper", source=self.name
        ) as span:
            fragment = self.checked_fragment(plan)
            with tracer.start(
                f"{self.name}:native", kind="native", source=self.name
            ):
                tab, native = self.run_fragment(fragment, plan, outer)
            span.annotate(rows=len(tab), native=native)
            return tab, native

    @abstractmethod
    def run_fragment(
        self, fragment: PushedFragment, plan: Plan, outer: Optional[Row]
    ) -> Tuple[Tab, str]:
        """Execute a validated fragment; returns ``(tab, native text)``."""


def outer_constant(outer: Optional[Row], name: str):
    """Resolve an information-passing parameter from the outer row.

    Raises :class:`SourceError` when the variable is genuinely unknown —
    the optimizer only builds parameterized fragments under a DJoin that
    supplies the row.
    """
    if outer is not None and name in outer:
        return outer[name]
    raise SourceError(
        f"pushed plan references ${name}, which is neither bound by the "
        "fragment nor supplied by an outer row"
    )


def passed_columns(outer: BindingSet, bound: Dict[str, object]) -> list:
    """What *bound* (the wrapper's ``{fragment column: native column}``)
    holds for each key position of *outer*."""
    try:
        return [bound[column] for column, _variable in outer.pairs]
    except KeyError as missing:
        raise SourceError(
            f"passed keys name ${missing.args[0]}, which the pushed filter "
            "does not bind"
        ) from None


def without_passed(
    selections: Tuple[Expr, ...], outer: BindingSet
) -> Tuple[Expr, ...]:
    """*selections* minus the one stating the equalities *outer* carries
    for all its keys (information passing adds them as a selection of
    their own).

    A wrapper answering a set-valued call emits those equalities itself,
    once per key in its own language; every other selection translates as
    usual (and one that still mentions a passed variable fails in
    :func:`outer_constant`, because a :class:`BindingSet` does not bind
    it).
    """
    passed = {frozenset(pair) for pair in outer.pairs}
    return tuple(
        predicate
        for predicate in selections
        if not all(
            isinstance(part, Cmp)
            and part.op == "="
            and isinstance(part.left, Var)
            and isinstance(part.right, Var)
            and frozenset((part.left.name, part.right.name)) in passed
            for part in conjuncts(predicate)
        )
    )
