"""The generic wrapper protocol.

A wrapper (paper, Section 2 and Figure 2) makes one source available to
mediators.  It exports, *in XML*:

* structural information (pattern libraries at the right genericity);
* query capabilities (the operational interface of Section 4);

and it answers two kinds of requests:

* fetch a named document (full transfer — the expensive path);
* execute a pushed algebraic fragment natively and return a Tab (the
  cheap path enabled by capability-based rewriting).

One description decides what crosses the wire.  The optimizer plans
against the interface it re-imported from the wrapper's XML, and every
wrapper validates a pushed fragment against its own interface before
running it (:meth:`Wrapper.validate_fragment`), so a mediator bug
cannot make a source do something it never promised; each interface
builds its :class:`~repro.capabilities.matcher.CapabilityMatcher` once,
on first use.  A translator (:meth:`Wrapper.run_fragment`) receives
only validated fragments and refuses nothing its interface admits: a
label or constant the source never holds answers no rows, as the
mediator's own Bind over the exported document would.  What remains
are run-time value checks on what a call binds, not on the fragment's
shape:

* an outer parameter the call does not supply (:func:`outer_constant`),
  or passed keys naming a column the filter does not bind
  (:func:`passed_columns`);
* an O2 method called on an object of another class fails in the OQL
  engine (the matcher cannot type a variable).

A value of the wrong type is no refusal: a Wais ``contains`` whose text
is not a string matches no document, as the mediator's own ``contains``
says.
"""

from __future__ import annotations

from abc import abstractmethod
from collections import UserString
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import PushdownRejectedError, SourceError
from repro.capabilities.interface import SourceInterface
from repro.capabilities.xml_codec import interface_to_xml
from repro.core.algebra.evaluator import SourceAdapter
from repro.core.algebra.operators import (
    BindOp,
    DistinctOp,
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


class NativeText(UserString):
    """A native query text that *write* (holding its call's values)
    writes on first read; it reads as a ``str``.  Most runs never read
    the text, which can cost more to write than the query to run."""

    def __init__(self, write: Callable[[], str]) -> None:
        # ``UserString`` methods make their results from plain text.
        self._write = write if callable(write) else write.__str__

    @cached_property
    def data(self) -> str:
        return self._write()


class PushedFragment:
    """Normal form of a pushable plan fragment.

    Every wrapper in this reproduction accepts the same fragment shape —
    the shape capability-based rewriting and demand narrowing produce
    (Section 5.3)::

        [Distinct] ( [Project] ( [Select]* ( Bind ( Source ) ) ) )

    ``analyze_fragment`` decomposes a plan into this normal form or
    raises :class:`PushdownRejectedError` when the plan does not fit —
    a deterministic rejection resilience policies never retry.
    """

    __slots__ = (
        "document", "filter", "selections", "projection", "distinct", "prepared",
    )

    def __init__(
        self,
        document: str,
        filter: Filter,
        selections: Tuple[Expr, ...],
        projection: Optional[Tuple[Tuple[str, str], ...]],
        distinct: bool,
    ) -> None:
        self.document = document
        self.filter = filter
        self.selections = selections
        self.projection = projection
        self.distinct = distinct
        #: What the wrapper compiled from the fragment on its first run
        #: (a wrapper's own business; O2's translation and compiled
        #: selects).
        self.prepared = None


def analyze_fragment(plan: Plan, source_name: str) -> PushedFragment:
    """Decompose *plan* into the pushable normal form."""
    distinct = isinstance(plan, DistinctOp)
    if distinct:
        plan = plan.input
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
    return PushedFragment(
        source_op.document, bind.filter, tuple(selections), projection, distinct
    )


class Wrapper(SourceAdapter):
    """Base class of generic wrappers."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._interface: Optional[SourceInterface] = None
        self._document_name_set: Optional[frozenset] = None
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

    # -- validation --------------------------------------------------------------

    def validate_fragment(self, fragment: PushedFragment) -> None:
        """Reject fragments outside the declared capabilities."""
        matcher = self.interface().matcher()
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
        for operation, present in (
            ("project", fragment.projection is not None),
            ("distinct", fragment.distinct),
        ):
            if not present:
                continue
            pushable = matcher.operation_pushable(operation)
            if not pushable:
                raise PushdownRejectedError(
                    f"wrapper {self.name!r} rejects pushed {operation}: "
                    f"{pushable.reason}"
                )

    def checked_fragment(self, plan: Plan) -> PushedFragment:
        """Analyze and validate *plan* once per plan object and wrapper.

        Plans are immutable and the interface is fixed, so both the
        decomposition and the capability check are pure in the plan.
        The mediator's plan cache replays the very same plan objects on
        every warm hit, so the fragment is kept on the plan, with the
        wrapper that accepted it: another wrapper (a replica, say)
        validates again.  Rejections are not kept; the error path is
        cold by construction.
        """
        try:
            wrapper, fragment = plan._fragment_memo
        except AttributeError:
            wrapper = None
        if wrapper is not self:
            fragment = analyze_fragment(plan, self.name)
            self.validate_fragment(fragment)
            plan._fragment_memo = (self, fragment)
        return fragment

    # -- document export ----------------------------------------------------------

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

        Subclasses with other memos override it.
        """
        return {"documents": self._documents.stats()}

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
            span.annotate(rows=len(tab), native=str(native))
            return tab, native

    @abstractmethod
    def run_fragment(
        self, fragment: PushedFragment, plan: Plan, outer: Optional[Row]
    ) -> Tuple[Tab, str]:
        """Execute a validated fragment; returns ``(tab, native text)``,
        the text a ``str`` or a :class:`NativeText`.

        The fragment passed :meth:`validate_fragment`, so its filter fits
        the interface's Fmodel and its selections use declared
        operations only: an implementation refuses no such fragment (see
        the module docstring for the run-time value checks that remain).
        """


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
