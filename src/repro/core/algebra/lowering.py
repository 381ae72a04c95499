"""One lowering of a Bind filter, printed by the scan kernel and the store.

A filter is a tree pattern (paper, Section 3.1 and Figure 4).
:func:`lower` numbers its structural nodes in DFS pre-order as
:class:`Step` s and decides, once, what each one means: the step it
hangs from (its anchor), the axis from there, the test the node must
pass, the variable it binds, its items (stars unwrapped) and its
element's ``FRest`` slot.  The scan kernel
(:mod:`repro.core.algebra.compiled`) compiles closures from the steps;
the store (:mod:`repro.store.pushdown`) prints one table alias ``n<i>``
per step, or refuses with :attr:`Lowering.refusal`.  The recursive
:class:`~repro.core.algebra.bind.FilterMatcher` does not read the
lowering: it stays the independent oracle both are tested against.

A ``**`` folds into the axis of the step it reaches: every node at the
root, a strict descendant as an item (each one is reached through
exactly one child), a descendant-or-self under another ``**`` (reached
once per anchor, as the matcher re-reaches a node once per intermediate
``**``).  A ``**`` whose content is the next ``**`` is a step with no
test.  An element's single bare variable/constant item is leaf-or-child:
it matches the element's own atom on an atom leaf, a child otherwise.

Enumeration order: the matcher takes an element's items with
``itertools.product`` (first item slowest) and each item's alternatives,
and a ``**``'s descendants, in pre order, recursively.  Unfolded,
bindings come out in lexicographic order of the matched nodes' pre
positions taken in step order, so ``ORDER BY`` every step's ``pre``
reproduces it; the order is total, as two distinct rows differ at some
step and pre positions are unique within a document.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.algebra.expressions import Param, atom_kind
from repro.model.filters import FConst, FDescend, FElem, Filter, FRest, FStar, FVar

__all__ = ["Lowering", "Step", "lower", "real_key"]

# Axes, from the anchor's node (the root has none).
ROOT = "root"
ROOT_DESCENDANT = "root **"
CHILD = "child"
DESCENDANT = "descendant"
DESCENDANT_OR_SELF = "descendant-or-self"
LEAF_OR_CHILD = "leaf-or-child"
#: Axes matched by walking the anchor point's descendants-or-self.
DESCENDING = (ROOT_DESCENDANT, DESCENDANT, DESCENDANT_OR_SELF)

# Tests; NONE is a pure ``**`` anchor, INVALID a misplaced star or rest.
ELEMENT = "element"
VARIABLE = "variable"
CONSTANT = "constant"
NONE = "none"
INVALID = "invalid"


class Step:
    """One structural filter node.  ``value`` is the label spec, the
    constant or the error message; ``items`` are the element's item
    steps (a pure ``**`` anchor's one nested step); ``rest`` is the index
    into ``items`` where the ``FRest`` capture goes."""

    __slots__ = ("index", "anchor", "axis", "test", "value", "var", "items", "rest")

    def __init__(self, index: int, anchor: Optional[int], axis: str) -> None:
        self.index = index
        self.anchor = anchor
        self.axis = axis
        self.test = NONE
        self.value: object = None
        self.var: Optional[str] = None
        self.items: Tuple["Step", ...] = ()
        self.rest: Optional[int] = None

    def leaf(self) -> Optional["Step"]:
        """The element's single bare variable/constant item, if any."""
        if len(self.items) == 1 and self.items[0].axis == LEAF_OR_CHILD:
            return self.items[0]
        return None


class Lowering:
    """``steps`` (``steps[0]`` is the root) and ``refusal``, why SQL
    cannot print them (``None`` when it can)."""

    __slots__ = ("steps", "refusal")

    def __init__(self) -> None:
        self.steps: List[Step] = []
        self.refusal: Optional[str] = None

    def _refuse(self, reason: str) -> None:
        if self.refusal is None:
            self.refusal = reason

    def _item(self, flt: Filter, anchor: Optional[int], axis: str) -> Step:
        if isinstance(flt, FDescend):
            axis = ROOT_DESCENDANT if anchor is None else DESCENDANT
            flt = flt.child
        return self._node(flt, anchor, axis)

    def _node(self, flt: Filter, anchor: Optional[int], axis: str) -> Step:
        step = Step(len(self.steps), anchor, axis)
        self.steps.append(step)
        if isinstance(flt, FElem):
            step.test, step.value, step.var = ELEMENT, flt.label, flt.var
            if not isinstance(flt.label, str):
                self._refuse("label variable or regex")
            declared = flt.children
            if len(declared) == 1 and isinstance(declared[0], (FVar, FConst)):
                step.items = (self._node(declared[0], step.index, LEAF_OR_CHILD),)
                return step
            items = []
            for item in declared:
                if isinstance(item, FRest):
                    step.rest = len(items)
                    self._refuse("rest item")
                    continue
                target = item.child if isinstance(item, FStar) else item
                items.append(self._item(target, step.index, CHILD))
            step.items = tuple(items)
        elif isinstance(flt, FVar):
            step.test, step.var = VARIABLE, flt.name
        elif isinstance(flt, FConst):
            step.test, step.value = CONSTANT, flt.value
            numeric = flt.value.__class__ is not Param and atom_kind(flt.value) is not str
            if numeric and real_key(flt.value) is None:
                self._refuse("lossy numeric constant")
        elif isinstance(flt, FDescend):
            step.items = (self._node(flt.child, step.index, DESCENDANT_OR_SELF),)
        else:
            step.test = INVALID
            step.value = (
                f"{type(flt).__name__} is only meaningful as a child of an "
                "element filter"
            )
            self._refuse("misplaced star or rest")
        return step


def lower(flt: Filter) -> Lowering:
    """The steps of *flt*; raises :class:`~repro.errors.BindError` for a
    variable bound twice."""
    flt.variables()
    lowering = Lowering()
    if not isinstance(flt, (FElem, FDescend)):
        lowering._refuse("bare root")
    lowering._item(flt, None, ROOT)
    return lowering


def real_key(value) -> Optional[float]:
    """The store's REAL key of a numeric constant, ``None`` if lossy."""
    try:
        key = float(value)
    except OverflowError:
        return None
    return key if key == value else None
