"""ODMG-style schemas for the mini-O2 object database.

The paper's structured source is an O2 database whose data model "conforms
to the ODMG standard" (Section 2, Figure 3): atomic types, tuples of named
attributes, collections (``set``/``bag``/``list``/``array``) and references
to classes; classes have extents and may carry methods (Section 4's
``current_price`` example).

A :class:`Schema` can export itself as YAT type patterns in the encoding
of Figure 3 — ``class`` node → class-name node → ``tuple`` node → attribute
nodes — which is also the encoding the O2 wrapper uses for data trees, so
that the paper's filters (``set *class: artifact: tuple [title: $t, ...]``)
apply verbatim.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import SchemaError
from repro.model.patterns import (
    PAtomic,
    PNode,
    PRef,
    PStar,
    Pattern,
    PatternLibrary,
)
from repro.model.values import ATOMIC_TYPE_NAMES, COLLECTION_KINDS


class OdmgType:
    """Base class of ODMG types."""

    __slots__ = ()

    def to_pattern(self, schema: "Schema") -> Pattern:
        """The YAT type pattern for values of this type."""
        raise NotImplementedError


class AtomicType(OdmgType):
    """``Int``, ``Bool``, ``Float`` or ``String``."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if name not in ATOMIC_TYPE_NAMES:
            raise SchemaError(f"unknown atomic type: {name!r}")
        self.name = name

    def to_pattern(self, schema: "Schema") -> Pattern:
        return PAtomic(self.name)

    def __repr__(self) -> str:
        return f"AtomicType({self.name!r})"


class TupleType(OdmgType):
    """A tuple of named attributes (order preserved for display only)."""

    __slots__ = ("attributes",)

    def __init__(self, attributes: Sequence[Tuple[str, OdmgType]]) -> None:
        names = [name for name, _t in attributes]
        if len(names) != len(set(names)):
            raise SchemaError(f"duplicate attribute names in tuple: {names}")
        self.attributes: Tuple[Tuple[str, OdmgType], ...] = tuple(attributes)

    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _t in self.attributes)

    def to_pattern(self, schema: "Schema") -> Pattern:
        children = [
            PNode(name, [attr_type.to_pattern(schema)])
            for name, attr_type in self.attributes
        ]
        return PNode("tuple", children, collection="set")

    def __repr__(self) -> str:
        return f"TupleType({[n for n, _t in self.attributes]})"


class CollectionType(OdmgType):
    """``set``/``bag``/``list``/``array`` of an element type."""

    __slots__ = ("kind", "element")

    def __init__(self, kind: str, element: OdmgType) -> None:
        if kind not in COLLECTION_KINDS:
            raise SchemaError(f"unknown collection kind: {kind!r}")
        self.kind = kind
        self.element = element

    def to_pattern(self, schema: "Schema") -> Pattern:
        return PNode(
            self.kind, [PStar(self.element.to_pattern(schema))], collection=self.kind
        )

    def __repr__(self) -> str:
        return f"CollectionType({self.kind!r}, {self.element!r})"


class RefType(OdmgType):
    """A reference to a class (``&Person`` in Figure 3)."""

    __slots__ = ("class_name",)

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name

    def to_pattern(self, schema: "Schema") -> Pattern:
        return PRef(self.class_name)

    def __repr__(self) -> str:
        return f"RefType({self.class_name!r})"


class MethodDef:
    """A schema method: name, receiver class, result type, implementation.

    The implementation takes ``(database, oid)`` and returns a Python
    value of the declared result type; the wrapper exports the signature
    (paper, Section 4: ``current_price`` on ``Artifact``).
    """

    __slots__ = ("name", "class_name", "result", "implementation")

    def __init__(
        self,
        name: str,
        class_name: str,
        result: OdmgType,
        implementation: Callable,
    ) -> None:
        self.name = name
        self.class_name = class_name
        self.result = result
        self.implementation = implementation

    def __repr__(self) -> str:
        return f"MethodDef({self.class_name}.{self.name})"


class ClassDef:
    """One class: a name, a tuple type, and optionally an extent name."""

    __slots__ = ("name", "type", "extent")

    def __init__(self, name: str, type: TupleType, extent: Optional[str] = None) -> None:
        self.name = name
        self.type = type
        self.extent = extent

    def __repr__(self) -> str:
        return f"ClassDef({self.name!r}, extent={self.extent!r})"


class Schema:
    """A set of classes, their extents, and their methods."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.classes: Dict[str, ClassDef] = {}
        self.methods: Dict[str, MethodDef] = {}
        self._extents: Dict[str, str] = {}  # extent name -> class name

    def add_class(self, definition: ClassDef) -> None:
        if definition.name in self.classes:
            raise SchemaError(f"class {definition.name!r} already defined")
        self.classes[definition.name] = definition
        if definition.extent is not None:
            if definition.extent in self._extents:
                raise SchemaError(f"extent {definition.extent!r} already defined")
            self._extents[definition.extent] = definition.name

    def add_method(self, method: MethodDef) -> None:
        if method.class_name not in self.classes:
            raise SchemaError(
                f"method {method.name!r} declared on unknown class "
                f"{method.class_name!r}"
            )
        if method.name in self.methods:
            raise SchemaError(f"method {method.name!r} already defined")
        self.methods[method.name] = method

    def class_of(self, name: str) -> ClassDef:
        try:
            return self.classes[name]
        except KeyError:
            raise SchemaError(f"unknown class: {name!r}") from None

    def extents(self) -> Dict[str, str]:
        """``{extent name: class name}`` for all classes with extents."""
        return dict(self._extents)

    def validate(self) -> None:
        """Check that every reference targets a defined class."""
        for definition in self.classes.values():
            self._validate_type(definition.type, definition.name)

    def _validate_type(self, odmg_type: OdmgType, context: str) -> None:
        if isinstance(odmg_type, RefType):
            if odmg_type.class_name not in self.classes:
                raise SchemaError(
                    f"class {context!r} references unknown class "
                    f"{odmg_type.class_name!r}"
                )
        elif isinstance(odmg_type, TupleType):
            for _name, attr_type in odmg_type.attributes:
                self._validate_type(attr_type, context)
        elif isinstance(odmg_type, CollectionType):
            self._validate_type(odmg_type.element, context)

    # -- exported structural information --------------------------------------

    def to_pattern_library(self) -> PatternLibrary:
        """Schema-level patterns in the Figure 3 encoding.

        Each class ``C`` becomes the pattern
        ``class [ C [ <type pattern> ] ]`` under the name ``C``; each
        extent becomes ``<extent> := set [ * &C ]`` under the extent name.
        """
        library = PatternLibrary(self.name)
        for definition in self.classes.values():
            library.define(
                definition.name,
                PNode(
                    "class",
                    [PNode(definition.name, [definition.type.to_pattern(self)])],
                ),
            )
        for extent, class_name in self._extents.items():
            library.define(
                extent,
                PNode("set", [PStar(PRef(class_name))], collection="set"),
            )
        return library
