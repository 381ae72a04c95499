"""The source description language (paper, Section 4).

Fmodels/Fpatterns with ``bind``/``inst`` flags, typed operation
interfaces, declared equivalences, the XML wire format, and the
admissibility matcher the optimizer uses for capability-based rewriting.
"""

from repro.capabilities.equivalences import Equivalence, SelectionImplication
from repro.capabilities.fmodel import (
    FModel,
    FPat,
    fleaf,
    fnode,
    fref,
    fstar,
    funion,
    o2_fmodel,
    wais_fmodel,
)
from repro.capabilities.interface import ArgSpec, OperationDecl, SourceInterface
from repro.capabilities.matcher import (
    PREDICATE_OPERATION_NAMES,
    Admissibility,
    CapabilityMatcher,
)
from repro.capabilities.xml_codec import (
    element_to_interface,
    interface_to_xml,
    xml_to_interface,
)

__all__ = [
    "Admissibility",
    "ArgSpec",
    "CapabilityMatcher",
    "Equivalence",
    "FModel",
    "FPat",
    "OperationDecl",
    "PREDICATE_OPERATION_NAMES",
    "SelectionImplication",
    "SourceInterface",
    "element_to_interface",
    "fleaf",
    "fnode",
    "fref",
    "fstar",
    "funion",
    "interface_to_xml",
    "o2_fmodel",
    "wais_fmodel",
    "xml_to_interface",
]
