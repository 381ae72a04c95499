"""Type patterns: the schema and model levels of the YAT type system.

The paper (Section 2, Figure 3) stratifies structural information in three
levels of genericity related by *instantiation*:

* **model** level — e.g. the ODMG model: a type is an atom, a tuple, a
  collection or a class reference;
* **schema** level — e.g. the ``Artifact`` class of the art database;
* **data** level — actual trees (:class:`repro.model.trees.DataNode`).

All three levels above the data are expressed with the same pattern
vocabulary:

========================  ====================================================
:class:`PAtomic`          an atomic type leaf (``Int``, ``String``, ...)
:class:`PConstLeaf`       a leaf holding one specific constant
:class:`PNode`            an element with a label and a child sequence; the
                          label is either concrete or the wildcard ``SYMBOL``
:class:`PStar`            zero or more occurrences of a sub-pattern (``*``)
:class:`PUnion`           alternatives (``v`` in the figures)
:class:`PRef`             a reference (``&``) to a named pattern
:class:`PAny`             the universal pattern (top of the YAT model)
========================  ====================================================

Named patterns (the bold identifiers in Figure 3, e.g. ``Class``,
``Artifact``) live in a :class:`PatternLibrary` so that patterns can be
recursive (``Ftype`` referring to ``Fclass`` referring back to ``Ftype`` in
Figure 6).
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import PatternError
from repro.model.node import Node
from repro.model.values import ATOMIC_TYPE_NAMES, Atom

#: Wildcard label: matches any element label (the ``Symbol`` meta-node of
#: the YAT model in Figure 3).
SYMBOL = "Symbol"


class Pattern(Node):
    """Base class of all pattern nodes.

    Patterns are immutable and compare structurally
    (:class:`~repro.model.node.Node`), so they can be deduplicated and
    memoized during instantiation checks.
    """

    __slots__ = ()

    def walk(self) -> Iterator["Pattern"]:
        """Yield this pattern and all sub-patterns, pre-order."""
        yield self
        for child in self.parts(Pattern):
            yield from child.walk()

    def pretty(self, indent: int = 0) -> str:
        """Indented multi-line rendering."""
        raise NotImplementedError


class PAny(Pattern):
    """Matches any tree: the top of the YAT (meta)model."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "PAny()"

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + "Any"


class PAtomic(Pattern):
    """An atomic type leaf: ``Int``, ``Bool``, ``Float`` or ``String``."""

    __slots__ = ("type_name",)

    def __init__(self, type_name: str) -> None:
        if type_name not in ATOMIC_TYPE_NAMES:
            raise PatternError(f"unknown atomic type: {type_name!r}")
        self.type_name = type_name

    def __repr__(self) -> str:
        return f"PAtomic({self.type_name!r})"

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + self.type_name


class PConstLeaf(Pattern):
    """A leaf constrained to one constant value (data-level pattern)."""

    __slots__ = ("value",)

    def __init__(self, value: Atom) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"PConstLeaf({self.value!r})"

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + repr(self.value)


class PNode(Pattern):
    """An element pattern: a label plus an ordered child-pattern sequence.

    The child sequence is interpreted as a regular expression over
    patterns: each item matches one child, except :class:`PStar` items
    which match zero or more consecutive children.
    """

    __slots__ = ("label", "children", "collection")

    def __init__(
        self,
        label: str,
        children: Sequence[Pattern] = (),
        collection: Optional[str] = None,
    ) -> None:
        self.label = label
        self.children: Tuple[Pattern, ...] = tuple(children)
        self.collection = collection

    @property
    def label_is_wildcard(self) -> bool:
        """``True`` when the label is the ``Symbol`` wildcard."""
        return self.label == SYMBOL

    def __repr__(self) -> str:
        return f"PNode({self.label!r}, {len(self.children)} children)"

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        kind = f" ({self.collection})" if self.collection else ""
        lines = [f"{pad}{self.label}{kind}"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


class PStar(Pattern):
    """Zero or more occurrences of the sub-pattern (``*`` in the figures)."""

    __slots__ = ("child",)

    def __init__(self, child: Pattern) -> None:
        self.child = child

    def __repr__(self) -> str:
        return f"PStar({self.child!r})"

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + "*\n" + self.child.pretty(indent + 1)


class PUnion(Pattern):
    """Alternatives: the tree must match one of the branches."""

    __slots__ = ("alternatives",)

    def __init__(self, alternatives: Sequence[Pattern]) -> None:
        if not alternatives:
            raise PatternError("a union pattern needs at least one alternative")
        self.alternatives: Tuple[Pattern, ...] = tuple(alternatives)

    def __repr__(self) -> str:
        return f"PUnion({len(self.alternatives)} alternatives)"

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [f"{pad}union"]
        for alt in self.alternatives:
            lines.append(alt.pretty(indent + 1))
        return "\n".join(lines)


class PRef(Pattern):
    """A reference (``&``) to a named pattern, resolved via a library."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return f"PRef({self.name!r})"

    def pretty(self, indent: int = 0) -> str:
        return "  " * indent + f"&{self.name}"


class PatternLibrary:
    """A set of named patterns, supporting recursion through :class:`PRef`.

    Wrappers export one library per source (the *model* in the XML
    interfaces of Section 4); the mediator merges the libraries it imports
    into its catalog.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._patterns: Dict[str, Pattern] = {}

    def define(self, name: str, pattern: Pattern) -> None:
        """Register *pattern* under *name* (redefinition is an error)."""
        if name in self._patterns:
            raise PatternError(f"pattern {name!r} already defined")
        self._patterns[name] = pattern

    def resolve(self, name: str) -> Pattern:
        """Return the pattern registered under *name*."""
        try:
            return self._patterns[name]
        except KeyError:
            raise PatternError(f"unknown pattern: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._patterns

    def names(self) -> Tuple[str, ...]:
        """All registered names, in definition order."""
        return tuple(self._patterns)

    def items(self):
        """Iterate over ``(name, pattern)`` pairs in definition order."""
        return self._patterns.items()

    def merged_with(self, other: "PatternLibrary") -> "PatternLibrary":
        """Return a new library containing both sets of definitions.

        Name clashes are resolved in favour of ``self`` unless the
        definitions differ, in which case the clash is an error.
        """
        merged = PatternLibrary(name=self.name or other.name)
        for name, pattern in self._patterns.items():
            merged._patterns[name] = pattern
        for name, pattern in other._patterns.items():
            existing = merged._patterns.get(name)
            if existing is None:
                merged._patterns[name] = pattern
            elif existing != pattern:
                raise PatternError(f"conflicting definitions for pattern {name!r}")
        return merged

    def check_references(self) -> None:
        """Raise :class:`PatternError` if any :class:`PRef` is dangling."""
        for name, pattern in self._patterns.items():
            for sub in pattern.walk():
                if isinstance(sub, PRef) and sub.name not in self._patterns:
                    raise PatternError(
                        f"pattern {name!r} references unknown pattern {sub.name!r}"
                    )


# ---------------------------------------------------------------------------
# The YAT and ODMG model-level libraries of Figure 3
# ---------------------------------------------------------------------------

def yat_model_library() -> PatternLibrary:
    """The almighty YAT (meta)model: every tree instantiates ``Yat``."""
    lib = PatternLibrary("yat")
    lib.define("Yat", PAny())
    return lib


def odmg_model_library() -> PatternLibrary:
    """The ODMG model of Figure 3 (left): class / type patterns.

    An ODMG ``Type`` is an atom, a tuple of named attributes, a collection
    or a reference to a ``Class``; a ``Class`` wraps a name and a type.
    """
    lib = PatternLibrary("odmg")
    type_pattern = PUnion(
        [
            PAtomic("Int"),
            PAtomic("Bool"),
            PAtomic("Float"),
            PAtomic("String"),
            PNode("tuple", [PStar(PNode(SYMBOL, [PRef("Type")]))], collection="set"),
            PNode("set", [PStar(PRef("Type"))], collection="set"),
            PNode("bag", [PStar(PRef("Type"))], collection="bag"),
            PNode("list", [PStar(PRef("Type"))], collection="list"),
            PNode("array", [PStar(PRef("Type"))], collection="array"),
            PRef("Class"),
        ]
    )
    lib.define("Type", type_pattern)
    lib.define("Class", PNode("class", [PNode(SYMBOL, [PRef("Type")])]))
    return lib
