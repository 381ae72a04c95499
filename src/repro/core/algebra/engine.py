"""The Bind engine: one filter, compiled once to the scan kernel.

The paper has one ``Bind`` (Figure 4), and so does this reproduction:
the compiled **scan kernel** (:mod:`repro.core.algebra.compiled`)
matches every mediator-side and store-scan Bind target, whatever its
size or shape — reference-bearing and shared-node trees included.  The
recursive :class:`~repro.core.algebra.bind.FilterMatcher`, the
**oracle**, never runs here: the evaluator constructs it only under
``ExecutionPolicy.serial()``.

``_eval_bind``, ``StoreWrapper._run_scan`` and the property suite all
come through :func:`bind_engine`; nothing else in ``src/`` references
the filter-kernel compiler.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.algebra.bind import MAX_MATCHES, collection_explosion
from repro.core.algebra.compiled import compile_filter, identity_deref
from repro.memo import Memo
from repro.model.filters import Filter
from repro.model.trees import DataNode

__all__ = ["BindEngine", "bind_engine", "engine_cache_stats"]


class BindEngine:
    """A filter compiled to the scan kernel, with its output schema."""

    __slots__ = ("filter", "variables", "_match")

    def __init__(self, flt: Filter) -> None:
        self.filter = flt
        #: Variables the filter binds, in declaration order — the layout
        #: of every tuple :meth:`tuples` returns (this also validates
        #: that no variable is bound twice, like the oracle does).
        self.variables = flt.variables()
        self._match = compile_filter(flt)

    def tuples(
        self, target: object,
        deref: Callable[[DataNode], DataNode] = identity_deref,
    ) -> List[tuple]:
        """Binding cell tuples (declaration order) of the filter on *target*.

        *target* is one Tab cell: a tree, a collection of trees (matched
        in order, with the bound on their combined bindings), or an atom
        (no bindings).  *deref* chases references.
        """
        if isinstance(target, DataNode):
            return self._match(target, deref)
        if isinstance(target, tuple):
            match = self._match
            bindings: List[tuple] = []
            for item in target:
                if isinstance(item, DataNode):
                    bindings.extend(match(item, deref))
                    if len(bindings) > MAX_MATCHES:
                        raise collection_explosion(MAX_MATCHES)
            return bindings
        return []

    def __repr__(self) -> str:
        return f"BindEngine({self.filter!r})"


#: ``id(filter) -> BindEngine``, anchored on the filter (plans are
#: immutable, so one engine per filter object is sound).
_ENGINES = Memo(4096)


def bind_engine(flt: Filter) -> BindEngine:
    """The memoized engine for *flt* (keyed by plan-node identity)."""
    return _ENGINES.get_or_build(id(flt), BindEngine, flt, anchor=flt)


def engine_cache_stats() -> Dict[str, int]:
    """Counters of the engine memo (see :meth:`Memo.stats`)."""
    return _ENGINES.stats()
