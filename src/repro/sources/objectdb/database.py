"""In-memory object storage for the mini-O2 database.

Objects are tuples of attribute values identified by an OID.  Attribute
values are plain Python values mirroring the ODMG types:

* atoms — ``int``/``float``/``str``/``bool``;
* tuples — ``dict`` (attribute name → value);
* collections — ``list`` (order kept even for sets; set semantics are a
  query-time concern);
* references — :class:`Oid` wrappers around the target's OID string.

The module also implements the XML export used by the O2 wrapper: extents
serialize to the ``set * class`` encoding of Figure 3, so that YATL
filters from the paper apply to the exported trees verbatim.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import SchemaError, SourceError
from repro.model.trees import DataNode
from repro.sources.objectdb.schema import (
    AtomicType,
    CollectionType,
    OdmgType,
    RefType,
    Schema,
    TupleType,
)


class Oid:
    """A reference value: wraps the target object's identifier."""

    __slots__ = ("value",)

    def __init__(self, value: str) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Oid) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("oid", self.value))

    def __repr__(self) -> str:
        return f"Oid({self.value!r})"


class OdmgObject:
    """One stored object: OID, class, and attribute values."""

    __slots__ = ("oid", "class_name", "values")

    def __init__(self, oid: str, class_name: str, values: Dict[str, object]) -> None:
        self.oid = oid
        self.class_name = class_name
        self.values = dict(values)

    def __repr__(self) -> str:
        return f"OdmgObject({self.oid!r}, {self.class_name!r})"


class ObjectDatabase:
    """Schema-validated in-memory object store with named extents."""

    def __init__(self, schema: Schema) -> None:
        schema.validate()
        self.schema = schema
        self._objects: Dict[str, OdmgObject] = {}
        self._extents: Dict[str, List[str]] = {
            extent: [] for extent in schema.extents()
        }
        self._counter = 0
        self._ident_index: Optional[Dict[str, DataNode]] = None
        #: Bumped on every update; caches above tag their entries with it
        #: so a cached answer can never outlive the data it came from.
        self.version = 0

    # -- updates ---------------------------------------------------------------

    def insert(
        self, class_name: str, values: Dict[str, object], oid: Optional[str] = None
    ) -> str:
        """Insert an object; returns its OID.

        Values are checked against the class tuple type; the object is
        appended to the class extent when one is declared.
        """
        definition = self.schema.class_of(class_name)
        self._check_tuple(definition.type, values, class_name)
        if oid is None:
            self._counter += 1
            oid = f"{class_name[:1]}{self._counter}"
        if oid in self._objects:
            raise SourceError(f"duplicate OID: {oid!r}")
        self._objects[oid] = OdmgObject(oid, class_name, values)
        if definition.extent is not None:
            self._extents[definition.extent].append(oid)
        self._ident_index = None  # exported trees are stale now
        self.version += 1
        return oid

    def _check_tuple(self, tuple_type: TupleType, values: Dict[str, object], context: str) -> None:
        declared = set(tuple_type.attribute_names())
        provided = set(values)
        if declared != provided:
            raise SourceError(
                f"object of class {context!r} must provide exactly the attributes "
                f"{sorted(declared)}; got {sorted(provided)}"
            )
        for name, attr_type in tuple_type.attributes:
            self._check_value(attr_type, values[name], f"{context}.{name}")

    def _check_value(self, odmg_type: OdmgType, value: object, context: str) -> None:
        if isinstance(odmg_type, AtomicType):
            expected = {
                "Int": int,
                "Float": (int, float),
                "String": str,
                "Bool": bool,
            }[odmg_type.name]
            if odmg_type.name == "Int" and isinstance(value, bool):
                raise SourceError(f"{context}: expected Int, got bool")
            if not isinstance(value, expected):
                raise SourceError(
                    f"{context}: expected {odmg_type.name}, got {type(value).__name__}"
                )
        elif isinstance(odmg_type, TupleType):
            if not isinstance(value, dict):
                raise SourceError(f"{context}: expected a tuple (dict)")
            self._check_tuple(odmg_type, value, context)
        elif isinstance(odmg_type, CollectionType):
            if not isinstance(value, list):
                raise SourceError(f"{context}: expected a collection (list)")
            for index, item in enumerate(value):
                self._check_value(odmg_type.element, item, f"{context}[{index}]")
        elif isinstance(odmg_type, RefType):
            if not isinstance(value, Oid):
                raise SourceError(f"{context}: expected a reference (Oid)")
        else:
            raise SchemaError(f"unknown ODMG type: {odmg_type!r}")

    # -- reads -------------------------------------------------------------------

    def get(self, oid: str) -> OdmgObject:
        obj = self._objects.get(oid if not isinstance(oid, Oid) else oid.value)
        if obj is None:
            raise SourceError(f"unknown OID: {oid!r}")
        return obj

    def deref(self, value: object) -> OdmgObject:
        """Follow a reference value to its object."""
        if isinstance(value, Oid):
            return self.get(value.value)
        raise SourceError(f"not a reference: {value!r}")

    def extent(self, name: str) -> Tuple[str, ...]:
        """OIDs in the named extent, in insertion order."""
        try:
            return tuple(self._extents[name])
        except KeyError:
            raise SourceError(f"unknown extent: {name!r}") from None

    def extent_names(self) -> Tuple[str, ...]:
        return tuple(self._extents)

    def check_integrity(self) -> None:
        """Verify every stored reference targets an existing object."""
        for obj in self._objects.values():
            definition = self.schema.class_of(obj.class_name)
            self._check_refs(definition.type, obj.values, obj.oid)

    def _check_refs(self, odmg_type: OdmgType, value: object, context: str) -> None:
        if isinstance(odmg_type, RefType):
            assert isinstance(value, Oid)
            if value.value not in self._objects:
                raise SourceError(f"{context}: dangling reference {value.value!r}")
        elif isinstance(odmg_type, TupleType):
            assert isinstance(value, dict)
            for name, attr_type in odmg_type.attributes:
                self._check_refs(attr_type, value[name], f"{context}.{name}")
        elif isinstance(odmg_type, CollectionType):
            assert isinstance(value, list)
            for item in value:
                self._check_refs(odmg_type.element, item, context)

    def __len__(self) -> int:
        return len(self._objects)

    def objects(self) -> Iterable[OdmgObject]:
        return self._objects.values()

    # -- XML export (Figure 3 encoding) -------------------------------------------

    def export_extent(self, extent: str) -> DataNode:
        """The extent as a document tree: ``set [ class [...] * ]``."""
        oids = self.extent(extent)
        return DataNode(
            "set",
            children=[self.export_object(oid) for oid in oids],
            collection="set",
        )

    def export_object(self, oid: str) -> DataNode:
        """One object as ``class [ <class name> [ <value> ] ]``.

        Served from the :meth:`ident_index` cache when it is built:
        exported trees are immutable, so handing out the indexed tree is
        indistinguishable from re-exporting — and pushed OQL results are
        exported once instead of once per information-passing round trip.
        """
        index = self._ident_index
        if index is not None:
            cached = index.get(oid)
            if cached is not None:
                return cached
        obj = self.get(oid)
        definition = self.schema.class_of(obj.class_name)
        value_tree = self._export_value(definition.type, obj.values)
        return DataNode(
            "class",
            children=[DataNode(obj.class_name, children=[value_tree])],
            ident=obj.oid,
        )

    def _export_value(self, odmg_type: OdmgType, value: object) -> DataNode:
        if isinstance(odmg_type, TupleType):
            assert isinstance(value, dict)
            children = []
            for name, attr_type in odmg_type.attributes:
                children.append(self._export_attribute(name, attr_type, value[name]))
            return DataNode("tuple", children=children, collection="set")
        if isinstance(odmg_type, CollectionType):
            assert isinstance(value, list)
            children = [
                self._export_collection_item(odmg_type.element, item)
                for item in value
            ]
            return DataNode(odmg_type.kind, children=children,
                            collection=odmg_type.kind)
        if isinstance(odmg_type, RefType):
            assert isinstance(value, Oid)
            return DataNode("class", ref_target=value.value)
        raise SchemaError(f"cannot export value of type {odmg_type!r}")

    def _export_attribute(self, name: str, attr_type: OdmgType, value: object) -> DataNode:
        if isinstance(attr_type, AtomicType):
            return DataNode(name, atom=value)
        return DataNode(name, children=[self._export_value(attr_type, value)])

    def _export_collection_item(self, element_type: OdmgType, item: object) -> DataNode:
        if isinstance(element_type, AtomicType):
            return DataNode("value", atom=item)
        return self._export_value(element_type, item)

    def ident_index(self) -> Dict[str, DataNode]:
        """``{oid: exported class tree}`` for reference dereferencing.

        The export is cached until the next :meth:`insert` — exported
        trees are immutable, so sharing them across executions is safe.
        Callers must treat the returned mapping as read-only.
        """
        index = self._ident_index
        if index is None:
            index = self._ident_index = {
                oid: self.export_object(oid) for oid in self._objects
            }
        return index
