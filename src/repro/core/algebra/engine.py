"""The Bind engine: the one place a matcher is chosen for a (filter, target).

The paper has one ``Bind`` (Figure 4).  This reproduction evaluates it
with three matchers, each with one job:

* the positional **twig join** (:mod:`repro.core.algebra.twig`) when the
  filter is in the twig fragment *and* the target tree has a
  :class:`~repro.model.indexes.DocumentIndex` — i.e. it is at least
  :data:`~repro.model.indexes.MIN_INDEX_NODES` nodes and free of
  references and shared nodes;
* the compiled **scan kernel** (:mod:`repro.core.algebra.compiled`)
  for everything else — the small per-row trees that make up 95–100% of
  mediator-side Bind targets, and filters outside the twig fragment;
* the recursive :class:`~repro.core.algebra.bind.FilterMatcher`, the
  **oracle**, which never runs here: the evaluator constructs it only
  under ``ExecutionPolicy.serial()``.

The choice between the first two is made per target from what the code
can observe (filter shape at compile time, tree size and shape at match
time), never from an option.  ``_eval_bind``, ``StoreWrapper._run_scan``
and ``Mediator.explain`` all come through :func:`bind_engine`; nothing
else in ``src/`` references the twig or filter-kernel compilers.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.algebra.bind import MAX_MATCHES, collection_explosion
from repro.core.algebra.compiled import compile_filter
from repro.core.algebra.twig import compile_twig
from repro.memo import Memo
from repro.model.filters import Filter
from repro.model.indexes import document_index
from repro.model.trees import DataNode

__all__ = ["BindCounters", "BindEngine", "bind_engine", "engine_cache_stats"]


class BindCounters:
    """Which matcher ran on how many targets during one Bind evaluation."""

    __slots__ = ("twig", "twig_rows", "scanned", "fallbacks")

    def __init__(self) -> None:
        #: Targets matched by the twig join, and the tuples it produced.
        self.twig = 0
        self.twig_rows = 0
        #: Targets matched by the scan kernel; ``fallbacks`` counts those
        #: whose filter had a twig but whose tree had no index.
        self.scanned = 0
        self.fallbacks = 0


class BindEngine:
    """One filter, compiled once: scan kernel plus twig join when eligible."""

    __slots__ = ("variables", "_kernel", "_twig")

    def __init__(self, flt: Filter) -> None:
        self._kernel = compile_filter(flt)
        self._twig = compile_twig(flt)
        #: Variables the filter binds, in declaration order — the layout
        #: of every tuple :meth:`tuples` returns.
        self.variables = self._kernel.variables

    def describe(self) -> str:
        """The static access line EXPLAIN prints for a Bind of this filter."""
        if self._twig is not None:
            return "twig-join if indexed, else scan"
        return "scan"

    def tuples(
        self, target: object, deref: Callable[[DataNode], DataNode],
        counters: BindCounters,
    ) -> List[tuple]:
        """Binding cell tuples (declaration order) of the filter on *target*.

        *target* is one Tab cell: a tree, a collection of trees (matched
        in order, with the bound on their combined bindings), or an atom
        (no bindings).  *deref* chases references for the scan kernel;
        indexed trees hold none.
        """
        if isinstance(target, DataNode):
            return self._match(target, deref, counters)
        if isinstance(target, tuple):
            bindings: List[tuple] = []
            for item in target:
                if isinstance(item, DataNode):
                    bindings.extend(self._match(item, deref, counters))
                    if len(bindings) > MAX_MATCHES:
                        raise collection_explosion(MAX_MATCHES)
            return bindings
        return []

    def _match(self, root: DataNode, deref, counters: BindCounters) -> List[tuple]:
        twig = self._twig
        if twig is not None:
            index = document_index(root)
            if index is not None:
                bindings = twig.match(root, index)
                counters.twig += 1
                counters.twig_rows += len(bindings)
                return bindings
            counters.fallbacks += 1
        counters.scanned += 1
        variables = self.variables
        return [
            tuple(binding[var] for var in variables)
            for binding in self._kernel.match(root, deref)
        ]


#: ``id(filter) -> BindEngine``, anchored on the filter (plans are
#: immutable, so one engine per filter object is sound).
_ENGINES = Memo(4096)


def bind_engine(flt: Filter) -> BindEngine:
    """The memoized engine for *flt* (keyed by plan-node identity)."""
    return _ENGINES.get_or_build(id(flt), BindEngine, flt, anchor=flt)


def engine_cache_stats() -> Dict[str, int]:
    """Counters of the engine memo (see :meth:`Memo.stats`)."""
    return _ENGINES.stats()
