"""Operational interfaces: the signatures a wrapper exports.

"Wrapping source operations in YAT is performed in two steps that concern
(i) their signature and (ii) their semantics" (paper, Section 4).  This
module covers the signature step: each source exports an *interface*
naming the operations it evaluates (``bind``, ``select``, ``map``,
predicates such as ``eq``, external operations such as ``contains``,
methods such as ``current_price``), each with typed input/output specs.

The semantic step — declared equivalences — lives in
:mod:`repro.capabilities.equivalences`; the admissibility check combining
interface + Fmodel lives in :mod:`repro.capabilities.matcher`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CapabilityError
from repro.capabilities.equivalences import Equivalence
from repro.capabilities.fmodel import FModel
from repro.model.node import Node
from repro.model.patterns import Pattern, PatternLibrary

#: Operation kinds of the interface language.
OPERATION_KINDS = ("algebra", "boolean", "external", "method")


class ArgSpec(Node):
    """One input/output slot of an operation signature.

    ``role`` distinguishes the three spec elements of Figure 6:
    ``value`` (data typed by a model pattern), ``filter`` (a filter typed
    by an Fmodel Fpattern) and ``leaf`` (an atomic type).
    """

    __slots__ = ("role", "model", "pattern", "leaf_type")

    def __init__(
        self,
        role: str,
        model: Optional[str] = None,
        pattern: Optional[str] = None,
        leaf_type: Optional[str] = None,
    ) -> None:
        if role not in ("value", "filter", "leaf"):
            raise CapabilityError(f"unknown argument role: {role!r}")
        if role == "leaf" and leaf_type is None:
            raise CapabilityError("leaf argument spec requires a type name")
        if role in ("value", "filter") and pattern is None:
            raise CapabilityError(f"{role} argument spec requires a pattern name")
        self.role = role
        self.model = model
        self.pattern = pattern
        self.leaf_type = leaf_type

    @classmethod
    def value(cls, model: str, pattern: str) -> "ArgSpec":
        return cls("value", model=model, pattern=pattern)

    @classmethod
    def filter(cls, model: str, pattern: str) -> "ArgSpec":
        return cls("filter", model=model, pattern=pattern)

    @classmethod
    def leaf(cls, type_name: str) -> "ArgSpec":
        return cls("leaf", leaf_type=type_name)

    def __repr__(self) -> str:
        if self.role == "leaf":
            return f"ArgSpec(leaf {self.leaf_type})"
        return f"ArgSpec({self.role} {self.model}:{self.pattern})"


class OperationDecl(Node):
    """One exported operation: name, kind, and signature.

    Kinds follow the paper: ``algebra`` (an operator of the YAT algebra
    the source can evaluate), ``boolean`` (a predicate usable in pushed
    selections), ``external`` (a source-specific operation such as Wais
    ``contains``), ``method`` (a schema method such as
    ``current_price``).
    """

    __slots__ = ("name", "kind", "inputs", "output")

    def __init__(
        self,
        name: str,
        kind: str,
        inputs: Sequence[ArgSpec] = (),
        output: Optional[ArgSpec] = None,
    ) -> None:
        if kind not in OPERATION_KINDS:
            raise CapabilityError(f"unknown operation kind: {kind!r}")
        self.name = name
        self.kind = kind
        self.inputs = tuple(inputs)
        self.output = output

    def __repr__(self) -> str:
        return f"OperationDecl({self.name!r}, kind={self.kind!r})"


class SourceInterface:
    """Everything a wrapper tells the mediator about one source.

    * ``structures`` — exported structural models (pattern libraries):
      the source schema at whatever genericity the wrapper can offer;
    * ``documents`` — named entry points and the structure pattern of
      their roots;
    * ``fmodels`` — filter restrictions;
    * ``operations`` — the operational interface;
    * ``equivalences`` — declared semantic connections between source
      operations and algebra operations (Section 4.2).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.structures: Dict[str, PatternLibrary] = {}
        self.fmodels: Dict[str, FModel] = {}
        self.operations: Dict[str, OperationDecl] = {}
        self.equivalences: List[Equivalence] = []
        self.documents: Dict[str, Tuple[str, str]] = {}

    # -- construction ---------------------------------------------------------

    def add_structure(self, library: PatternLibrary) -> None:
        if library.name in self.structures:
            raise CapabilityError(f"structure model {library.name!r} already exported")
        self.structures[library.name] = library

    def add_fmodel(self, fmodel: FModel) -> None:
        if fmodel.name in self.fmodels:
            raise CapabilityError(f"Fmodel {fmodel.name!r} already exported")
        self.fmodels[fmodel.name] = fmodel

    def add_operation(self, operation: OperationDecl) -> None:
        if operation.name in self.operations:
            raise CapabilityError(f"operation {operation.name!r} already declared")
        self.operations[operation.name] = operation

    def add_equivalence(self, equivalence: Equivalence) -> None:
        self.equivalences.append(equivalence)

    def add_document(self, name: str, model: str, pattern: str) -> None:
        if name in self.documents:
            raise CapabilityError(f"document {name!r} already exported")
        self.documents[name] = (model, pattern)

    # -- queries ----------------------------------------------------------------

    def supports(self, operation_name: str) -> bool:
        """Does the source evaluate this operation?"""
        return operation_name in self.operations

    def bind_filter_specs(self) -> Tuple[ArgSpec, ...]:
        """The Fpattern specs accepted by the source's ``bind`` operation."""
        if not self.supports("bind"):
            return ()
        decl = self.operations["bind"]
        return tuple(spec for spec in decl.inputs if spec.role == "filter")

    def predicate_names(self) -> Tuple[str, ...]:
        """Names of pushable predicates (boolean + external operations)."""
        return tuple(
            name
            for name, decl in self.operations.items()
            if decl.kind in ("boolean", "external")
        )

    def method_names(self) -> Tuple[str, ...]:
        """Names of exported schema methods."""
        return tuple(
            name for name, decl in self.operations.items() if decl.kind == "method"
        )

    def document_pattern(self, document: str) -> Optional[Pattern]:
        """Root structure pattern of a named document, if resolvable."""
        spec = self.documents.get(document)
        if spec is None:
            return None
        model, pattern = spec
        library = self.structures.get(model)
        if library is None or pattern not in library:
            return None
        return library.resolve(pattern)

    def __repr__(self) -> str:
        return (
            f"SourceInterface({self.name!r}, "
            f"{len(self.operations)} operations, "
            f"{len(self.fmodels)} fmodels, "
            f"{len(self.equivalences)} equivalences)"
        )
