"""Filters: trees with variables, the arguments of the ``Bind`` operator.

A filter (paper, Sections 2 and 3.1) is a tree whose nodes carry distinct
variables.  When a data tree is an instance of a filter, the match induces
a mapping from variables to node values; ``Bind`` collects those mappings
into a :class:`~repro.core.algebra.tab.Tab`.

Filter vocabulary
-----------------

=====================  ======================================================
:class:`FElem`         an element with a label (concrete, a
                       :class:`LabelVar`, or a :class:`LabelRegex`), child
                       filters, and optionally a tree variable binding the
                       whole matched subtree
:class:`FVar`          a leaf filter binding the matched subtree (the atom
                       value when the subtree is an atom leaf)
:class:`FConst`        a leaf filter matching one constant value
:class:`FStar`         iteration over matching children — one binding
                       alternative per match; zero matches fail the
                       element (the star is equivalent to a DJoin over the
                       nested collection, Figure 7)
:class:`FRest`         binds the *collection* of sibling children matched by
                       no other sibling filter item — ``*($fields)`` in
                       Figure 4, capturing the optional elements of a work
:class:`FDescend`      vertical navigation: the child filter may match at
                       any depth below the current node (regular path
                       expressions collapse to this plus concrete steps)
=====================  ======================================================

Matching semantics (implemented in :mod:`repro.core.algebra.bind`):

* plain child filters are **mandatory**: a node matches only if every
  plain child filter matches at least one of its children;
* each distinct way of matching the children yields one binding row
  (cartesian product across child filters);
* :class:`FStar` children iterate over every matching child; zero
  matches fail the element, like the DJoin a star is equivalent to;
* :class:`FRest` binds every child not matched by any sibling item —
  this is how optional elements are captured (Figure 4's ``$fields``).
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import BindError
from repro.model.node import Node
from repro.model.patterns import (
    PAny,
    PConstLeaf,
    PNode,
    PStar,
    Pattern,
    SYMBOL,
)
from repro.model.values import Atom


class MissingValue:
    """Singleton marker for an absent cell (see :data:`MISSING`)."""

    _instance: Optional["MissingValue"] = None

    def __new__(cls) -> "MissingValue":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


#: An absent cell.  No filter binds it (a star with zero matches fails its
#: element); it comes from a wire cell marked missing or absent
#: (``element_to_tab``), a key a dict lacks (``Tab.from_dicts``) and
#: ``Tree``'s default for a column a row lacks.
MISSING = MissingValue()


class LabelVar(Node):
    """A label variable: matches any label and binds it (e.g. ``$l: $v``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"LabelVar({self.name!r})"


class LabelRegex(Node):
    """A regular expression over labels (horizontal navigation)."""

    __slots__ = ("pattern", "_compiled")

    def __init__(self, pattern: str) -> None:
        self.pattern = pattern
        self._compiled = re.compile(pattern)

    def matches(self, label: str) -> bool:
        """Full-string match of *label* against the regular expression."""
        return self._compiled.fullmatch(label) is not None

    def __repr__(self) -> str:
        return f"LabelRegex({self.pattern!r})"


LabelSpec = Union[str, LabelVar, LabelRegex]


class Filter(Node):
    """Base class of filter nodes.

    Filters are immutable, so what is derived from one is kept on the
    instance: :meth:`variables` (``_variables_memo``), the Bind engine
    (``_engine_memo``) and the store's compiled pushdown or its refusal
    (``_pushdown_memo``).
    """

    __slots__ = ("_variables_memo", "_engine_memo", "_pushdown_memo")

    def variables(self) -> Tuple[str, ...]:
        """All variables bound by this filter, in document order."""
        try:
            return self._variables_memo
        except AttributeError:
            pass
        seen: List[str] = []
        for node in self.walk():
            for var in node._own_variables():
                if var in seen:
                    raise BindError(f"variable {var!r} bound twice in one filter")
                seen.append(var)
        self._variables_memo = tuple(seen)
        return self._variables_memo

    def _own_variables(self) -> Tuple[str, ...]:
        return ()

    def walk(self) -> Iterator["Filter"]:
        """Yield this filter and every sub-filter, pre-order."""
        yield self
        for child in self.parts(Filter):
            yield from child.walk()

    def to_pattern(self) -> Pattern:
        """Erase variables: the type pattern this filter requires of its data."""
        raise NotImplementedError

    def pretty(self, indent: int = 0) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.pretty()


class FVar(Filter):
    """Bind the whole matched subtree (atom value for atom leaves)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _own_variables(self) -> Tuple[str, ...]:
        return (self.name,)

    def to_pattern(self) -> Pattern:
        return PAny()

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + f"${self.name}"


class FConst(Filter):
    """Match a leaf holding exactly this constant."""

    __slots__ = ("value",)

    def __init__(self, value: Atom) -> None:
        self.value = value

    def to_pattern(self) -> Pattern:
        return PConstLeaf(self.value)

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + repr(self.value)


class FElem(Filter):
    """An element filter: label spec, child filters, optional tree variable."""

    __slots__ = ("label", "children", "var")

    def __init__(
        self,
        label: LabelSpec,
        children: Sequence[Filter] = (),
        var: Optional[str] = None,
    ) -> None:
        self.label = label
        self.children: Tuple[Filter, ...] = tuple(children)
        self.var = var
        rests = [c for c in self.children if isinstance(c, FRest)]
        if len(rests) > 1:
            raise BindError("at most one rest (*) item per element filter")

    def _own_variables(self) -> Tuple[str, ...]:
        names = []
        if isinstance(self.label, LabelVar):
            names.append(self.label.name)
        if self.var is not None:
            names.append(self.var)
        return tuple(names)

    def label_matches(self, label: str) -> bool:
        """Does *label* satisfy this filter's label specification?"""
        if isinstance(self.label, str):
            return self.label == label
        if isinstance(self.label, LabelVar):
            return True
        return self.label.matches(label)

    def to_pattern(self) -> Pattern:
        label = self.label if isinstance(self.label, str) else SYMBOL
        return PNode(label, [child.to_pattern() for child in self.children])

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        label = self.label if isinstance(self.label, str) else repr(self.label)
        var = f" ${self.var}" if self.var else ""
        if not self.children:
            return f"{pad}{label}{var}"
        lines = [f"{pad}{label}{var} ["]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        lines.append(f"{pad}]")
        return "\n".join(lines)


class FStar(Filter):
    """Iteration: one binding per matching child; zero matches fail."""

    __slots__ = ("child",)

    def __init__(self, child: Filter) -> None:
        self.child = child

    def to_pattern(self) -> Pattern:
        return PStar(self.child.to_pattern())

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + "*\n" + self.child.pretty(indent + 1)


class FRest(Filter):
    """Bind the collection of sibling children no other item matched."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def _own_variables(self) -> Tuple[str, ...]:
        return (self.name,)

    def to_pattern(self) -> Pattern:
        return PStar(PAny())

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + f"*(${self.name})"


class FDescend(Filter):
    """Vertical navigation: match the child filter at any depth below."""

    __slots__ = ("child",)

    def __init__(self, child: Filter) -> None:
        self.child = child

    def to_pattern(self) -> Pattern:
        # Descendant steps erase to the universal pattern: the type of the
        # intermediate structure is unconstrained.
        return PAny()

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + "descend\n" + self.child.pretty(indent + 1)


# ---------------------------------------------------------------------------
# Convenience constructors (used heavily by tests and the YATL translator)
# ---------------------------------------------------------------------------

def felem(label: LabelSpec, *children: Filter, var: Optional[str] = None) -> FElem:
    """Shorthand for :class:`FElem`."""
    return FElem(label, children, var=var)


def fpath(*steps: LabelSpec, leaf: Optional[Filter] = None) -> Filter:
    """Build a vertical path ``a.b.c`` as nested single-child elements.

    >>> fpath("doc", "work", leaf=FVar("t")).pretty()
    'doc [\\n  work [\\n    $t\\n  ]\\n]'
    """
    if not steps:
        if leaf is None:
            raise BindError("fpath needs at least one step or a leaf")
        return leaf
    head, *rest = steps
    inner = fpath(*rest, leaf=leaf) if (rest or leaf is not None) else None
    children = (inner,) if inner is not None else ()
    return FElem(head, children)
