"""Fmodels and Fpatterns: declaring which filters a source accepts.

"We need to understand which are the acceptable filters for OQL.
Figure 6 (lines 2 to 33) shows such a specification of valid filters
(that we call a Fmodel).  The O2 Fpatterns are nothing but an XML
serialization of the type patterns of Figure 3, possibly annotated with
flags (attributes bind and inst)" (paper, Section 4.1).

An :class:`FPat` is a type-pattern node annotated with two flags:

``bind``
    which variables may appear at this node in a filter —
    ``any`` (no restriction), ``tree`` (only a variable binding the whole
    subtree), ``label`` (only a label variable), ``none`` (no variable).

``inst``
    how instantiated the node's label (or the edge, for stars) must be —
    ``any`` (no restriction), ``ground`` (completely instantiated:
    concrete label / constant), ``none`` (left unchanged: the filter must
    keep the wildcard or the star as-is).

``descend``
    whether a filter may reach this node through the descendant axis
    (``**`` / generalized path expressions) — ``none`` (a descent step is
    rejected, the flag every in-memory source keeps) or ``any`` (a
    ``FDescend`` wrapping a filter acceptable here is itself acceptable).
    Sources whose storage encodes subtree intervals (the sqlite document
    store) advertise ``descend="any"``: a descent is one range predicate
    for them, not a recursive walk.

:class:`FModel` groups named Fpatterns (``Fclass``, ``Ftype``...), and
the module provides the two Fmodels of the paper — :func:`o2_fmodel`
(Figure 6) and :func:`wais_fmodel` (Section 4.2) — plus
:func:`store_fmodel` for the out-of-core document store.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import CapabilityError
from repro.model.node import Node
from repro.model.patterns import SYMBOL

#: Allowed values of the ``bind`` flag.
BIND_FLAGS = ("any", "tree", "label", "none")

#: Allowed values of the ``inst`` flag.
INST_FLAGS = ("any", "ground", "none")

#: Allowed values of the ``descend`` flag.
DESCEND_FLAGS = ("none", "any")

#: Node kinds of an Fpattern.
FPAT_KINDS = ("node", "leaf", "star", "union", "ref", "any")


class FPat(Node):
    """One node of an Fpattern: a flagged type-pattern node.

    ``kind`` selects the shape:

    * ``node`` — an element with ``label`` (possibly the ``Symbol``
      wildcard) and child Fpatterns;
    * ``leaf`` — an atomic type, named by ``label`` (``Int``...);
    * ``star`` — zero-or-more occurrences of its single child;
    * ``union`` — alternatives;
    * ``ref`` — a reference to a named pattern: ``ref`` is a
      ``(model, pattern)`` pair, where *model* may name another Fmodel or
      an exported structure (resolution happens in the matcher);
    * ``any`` — no structural constraint.
    """

    __slots__ = ("kind", "label", "children", "bind", "inst", "ref",
                 "collection", "descend")

    def __init__(
        self,
        kind: str,
        label: Optional[str] = None,
        children: Sequence["FPat"] = (),
        bind: str = "any",
        inst: str = "any",
        ref: Optional[Tuple[str, str]] = None,
        collection: Optional[str] = None,
        descend: str = "none",
    ) -> None:
        if kind not in FPAT_KINDS:
            raise CapabilityError(f"unknown Fpattern kind: {kind!r}")
        if bind not in BIND_FLAGS:
            raise CapabilityError(f"unknown bind flag: {bind!r}")
        if inst not in INST_FLAGS:
            raise CapabilityError(f"unknown inst flag: {inst!r}")
        if descend not in DESCEND_FLAGS:
            raise CapabilityError(f"unknown descend flag: {descend!r}")
        if kind == "star" and len(children) != 1:
            raise CapabilityError("a star Fpattern requires exactly one child")
        if kind == "union" and not children:
            raise CapabilityError("a union Fpattern requires alternatives")
        if kind == "ref" and ref is None:
            raise CapabilityError("a ref Fpattern requires a (model, pattern) target")
        self.kind = kind
        self.label = label
        self.children: Tuple[FPat, ...] = tuple(children)
        self.bind = bind
        self.inst = inst
        self.ref = ref
        self.collection = collection
        self.descend = descend

    def __repr__(self) -> str:
        flags = []
        if self.bind != "any":
            flags.append(f"bind={self.bind}")
        if self.inst != "any":
            flags.append(f"inst={self.inst}")
        if self.descend != "none":
            flags.append(f"descend={self.descend}")
        extra = (" " + " ".join(flags)) if flags else ""
        if self.kind == "ref":
            return f"FPat(ref {self.ref[0]}:{self.ref[1]}{extra})"
        return f"FPat({self.kind} {self.label or ''}{extra})"


class FModel:
    """A named collection of Fpatterns exported by a wrapper."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._patterns: Dict[str, FPat] = {}

    def define(self, name: str, fpat: FPat) -> None:
        if name in self._patterns:
            raise CapabilityError(f"Fpattern {name!r} already defined in {self.name!r}")
        self._patterns[name] = fpat

    def resolve(self, name: str) -> FPat:
        try:
            return self._patterns[name]
        except KeyError:
            raise CapabilityError(
                f"Fmodel {self.name!r} has no Fpattern {name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._patterns

    def items(self):
        return self._patterns.items()


# ---------------------------------------------------------------------------
# Shorthand constructors
# ---------------------------------------------------------------------------

def fnode(
    label: str,
    *children: FPat,
    bind: str = "any",
    inst: str = "any",
    collection: Optional[str] = None,
    descend: str = "none",
) -> FPat:
    """An element Fpattern."""
    return FPat("node", label=label, children=children, bind=bind, inst=inst,
                collection=collection, descend=descend)


def fleaf(type_name: str, bind: str = "any", descend: str = "none") -> FPat:
    """An atomic-type Fpattern (``Int``, ``String``...)."""
    return FPat("leaf", label=type_name, bind=bind, descend=descend)


def fstar(child: FPat, inst: str = "any") -> FPat:
    """A star Fpattern (the flag constrains the star edge itself)."""
    return FPat("star", children=(child,), inst=inst)


def funion(*alternatives: FPat) -> FPat:
    """A union Fpattern."""
    return FPat("union", children=alternatives)


def fref(model: str, pattern: str, bind: str = "any") -> FPat:
    """A reference to a named pattern in another model."""
    return FPat("ref", ref=(model, pattern), bind=bind)


# ---------------------------------------------------------------------------
# The paper's two Fmodels
# ---------------------------------------------------------------------------

def o2_fmodel() -> FModel:
    """The O2 Fmodel of Figure 6 (lines 2-33).

    ``Fclass`` says: only subtrees corresponding to actual O2 objects or
    values can be bound (``bind="tree"``), class schema information cannot
    be extracted (``bind="none"`` on the attribute layer), and the class
    name must be ground.  ``Ftype`` enumerates the ODMG type formers.
    ``Fextent`` is what the wrapper's ``bind`` takes: an extent exports
    as ``set [ *class ... ]``, so a filter iterates its members once
    and binds no variable to the extent itself.
    """
    model = FModel("o2fmodel")
    model.define(
        "Fextent",
        fnode(
            "set",
            fstar(fref("o2fmodel", "Fclass"), inst="none"),
            bind="none",
            inst="ground",
        ),
    )
    model.define(
        "Fclass",
        fnode(
            "class",
            fnode(SYMBOL, fref("o2fmodel", "Ftype"), bind="none", inst="ground"),
            bind="tree",
        ),
    )
    model.define(
        "Ftype",
        funion(
            fleaf("Int"),
            fleaf("Bool"),
            fleaf("Float"),
            fleaf("String"),
            fnode(
                "tuple",
                fstar(
                    fnode(SYMBOL, fref("o2fmodel", "Ftype"), bind="none"),
                    inst="ground",
                ),
                bind="tree",
                collection="set",
            ),
            fnode("set", fstar(fref("o2fmodel", "Ftype"), inst="none"),
                  bind="tree", collection="set"),
            fnode("bag", fstar(fref("o2fmodel", "Ftype"), inst="none"),
                  bind="tree", collection="bag"),
            fnode("list", fstar(fref("o2fmodel", "Ftype"), inst="none"),
                  bind="tree"),
            fnode("array", fstar(fref("o2fmodel", "Ftype"), inst="none"),
                  bind="tree"),
            fref("o2fmodel", "Fclass"),
        ),
    )
    return model


def wais_fmodel(structure_model: str = "Artworks_Structure") -> FModel:
    """The Wais Fmodel of Section 4.2.

    Very restrictive: "it only permits to bind subtrees corresponding to
    full documents (i.e., only work elements)".
    """
    model = FModel("waisfmodel")
    model.define(
        "Fworks",
        fnode(
            "works",
            fstar(fref(structure_model, "work", bind="tree"), inst="none"),
            bind="none",
            inst="ground",
        ),
    )
    return model


def store_fmodel() -> FModel:
    """The Fmodel of the sqlite document store (``repro.store``).

    The pre/post interval encoding makes the store qualitatively more
    capable than the in-memory sources: any literal-labeled element can
    anchor a filter at any depth, subtrees and leaf contents bind
    freely, and — the genuinely new part — the descendant axis is
    acceptable *everywhere* (``descend="any"``), because a ``**`` step
    is a single ``s.pre < t.pre AND t.post <= s.post`` range predicate
    for the store, not a recursive walk.  Label variables are admitted
    (``bind="any"``) and answered by the store's scan, which runs the
    mediator's own Bind; only label regexes stay out.
    """
    model = FModel("storefmodel")
    model.define(
        "Felement",
        fnode(
            SYMBOL,
            fstar(fref("storefmodel", "Fitem")),
            bind="any",
            descend="any",
        ),
    )
    model.define(
        "Fitem",
        funion(
            fleaf("Int", descend="any"),
            fleaf("Bool", descend="any"),
            fleaf("Float", descend="any"),
            fleaf("String", descend="any"),
            fref("storefmodel", "Felement"),
        ),
    )
    return model
