"""Admissibility: is this filter / predicate acceptable for this source?

The optimizer "tries to match the Bind operation with the ... capabilities
that have been declared" (paper, Section 5.3).  This module implements
that match *structurally*: a filter is admissible when it instantiates one
of the source's declared Fpatterns under the ``bind``/``inst`` flags; a
predicate is pushable when every operator and function it uses is declared
in the source's operational interface.  No per-source logic appears here —
everything is driven by the exported description, which is the paper's
central claim about generic wrapping.

Reference resolution rule
-------------------------

An Fpattern ``ref`` may point into another *Fmodel* (recursive filter
description — O2's ``Ftype``) or into an exported *structure model* (a
plain data pattern — Wais' ``work``).  References into structure models
are terminal for filtering: they type the subtree but license no deeper
filter structure, which is exactly how the Wais description restricts
binding to whole documents.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.capabilities.fmodel import FPat
from repro.capabilities.interface import ArgSpec, SourceInterface
from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    Expr,
    FunCall,
    Var,
    atom_kind,
)
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    Filter,
    FRest,
    FStar,
    FVar,
    LabelVar,
)
from repro.model.patterns import SYMBOL

#: Mapping from algebra comparison operators to declared operation names.
PREDICATE_OPERATION_NAMES = {
    "=": "eq",
    "!=": "neq",
    "<": "lt",
    "<=": "lte",
    ">": "gt",
    ">=": "gte",
}

#: Boolean connectives and the operation name that declares each.
_CONNECTIVES = {BoolAnd: "and", BoolOr: "or", BoolNot: "not"}

#: The declared atomic type name of a constant's Python type.
_LEAF_KINDS = {bool: "Bool", int: "Int", float: "Float", str: "String"}


class Admissibility:
    """Outcome of an admissibility check: a boolean plus a reason."""

    __slots__ = ("ok", "reason")

    def __init__(self, ok: bool, reason: str = "") -> None:
        self.ok = ok
        self.reason = reason

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        status = "admissible" if self.ok else f"rejected: {self.reason}"
        return f"Admissibility({status})"


def _ok() -> Admissibility:
    return Admissibility(True)


def _no(reason: str) -> Admissibility:
    return Admissibility(False, reason)


class CapabilityMatcher:
    """Checks filters and predicates against one source's interface."""

    def __init__(self, interface: SourceInterface) -> None:
        self._interface = interface

    # -- public API -----------------------------------------------------------

    def bind_admissible(self, flt: Filter) -> Admissibility:
        """Can the source's ``bind`` operation evaluate this filter?"""
        if not self._interface.supports("bind"):
            return _no(f"source {self._interface.name!r} declares no bind operation")
        specs = self._interface.bind_filter_specs()
        if not specs:
            return _no("bind operation declares no filter Fpattern")
        last = _no("no filter spec matched")
        for spec in specs:
            fpat = self._resolve_spec(spec)
            if fpat is None:
                last = _no(f"unresolvable filter spec {spec!r}")
                continue
            result = self._check(flt, fpat)
            if result:
                return result
            last = result
        return last

    def predicate_pushable(self, predicate: Expr) -> Admissibility:
        """Can the source evaluate this predicate in a pushed selection?"""
        if not self._interface.supports("select"):
            return _no(f"source {self._interface.name!r} declares no select operation")
        return self._check_predicate(predicate)

    def operation_pushable(self, operation_name: str) -> Admissibility:
        """Is this algebra operation (map, join...) declared by the source?"""
        if self._interface.supports(operation_name):
            return _ok()
        return _no(
            f"source {self._interface.name!r} does not declare {operation_name!r}"
        )

    # -- predicate checking -----------------------------------------------------

    def _check_predicate(self, predicate: Expr) -> Admissibility:
        connective = _CONNECTIVES.get(type(predicate))
        if connective is not None:
            if not self._interface.supports(connective):
                return _no(f"connective {connective!r} not declared")
            operands = (
                (predicate.operand,) if isinstance(predicate, BoolNot)
                else predicate.operands
            )
            for operand in operands:
                result = self._check_predicate(operand)
                if not result:
                    return result
            return _ok()
        if isinstance(predicate, Cmp):
            operation = PREDICATE_OPERATION_NAMES[predicate.op]
            if not self._interface.supports(operation):
                return _no(f"comparison {predicate.op!r} ({operation}) not declared")
            for side in (predicate.left, predicate.right):
                result = self._check_scalar(side)
                if not result:
                    return result
            return _ok()
        if isinstance(predicate, FunCall):
            return self._check_call(predicate)
        return _no(f"{predicate.text()} is not a declared predicate")

    def _check_scalar(self, expr: Expr) -> Admissibility:
        if isinstance(expr, (Var, Const)):
            return _ok()
        if isinstance(expr, FunCall):
            return self._check_call(expr)
        return _no(f"expression {expr!r} is not pushable")

    def _check_call(self, call: FunCall) -> Admissibility:
        """A call of a declared external operation or method, its
        arguments typed by the declared inputs: a ``value`` input takes a
        variable, a ``leaf`` input a constant of its atomic type (a
        variable there is an outer parameter, typed when it is bound)."""
        decl = self._interface.operations.get(call.name)
        if decl is None or decl.kind not in ("external", "method"):
            return _no(f"function {call.name!r} not declared")
        if len(call.args) != len(decl.inputs):
            return _no(
                f"{call.name!r} takes {len(decl.inputs)} arguments, "
                f"got {len(call.args)}"
            )
        for arg, spec in zip(call.args, decl.inputs):
            if spec.role != "leaf":
                if not isinstance(arg, Var):
                    return _no(f"{call.name!r} takes a variable, got {arg.text()}")
                continue
            if isinstance(arg, Const):
                kind = _LEAF_KINDS.get(atom_kind(arg.value))
                if kind != spec.leaf_type:
                    return _no(
                        f"{call.name!r} takes a {spec.leaf_type}, got {arg.text()}"
                    )
            result = self._check_scalar(arg)
            if not result:
                return result
        return _ok()

    # -- filter checking ----------------------------------------------------------

    def _resolve_spec(self, spec: ArgSpec) -> Optional[FPat]:
        fmodel = self._interface.fmodels.get(spec.model or "")
        if fmodel is not None and spec.pattern in fmodel:
            return fmodel.resolve(spec.pattern)
        return None

    def _resolve_ref(self, fpat: FPat) -> Tuple[Optional[FPat], bool]:
        """Resolve a ref Fpattern.

        Returns ``(resolved, terminal)``: *terminal* is ``True`` when the
        reference points into a structure model (no deeper filtering).
        """
        model_name, pattern_name = fpat.ref
        fmodel = self._interface.fmodels.get(model_name)
        if fmodel is not None and pattern_name in fmodel:
            resolved = fmodel.resolve(pattern_name)
            return self._with_flags(resolved, fpat), False
        library = self._interface.structures.get(model_name)
        if library is not None and pattern_name in library:
            pattern = library.resolve(pattern_name)
            label = getattr(pattern, "label", None)
            terminal = FPat(
                "node" if label is not None else "any",
                label=label,
                bind=fpat.bind,
                inst=fpat.inst,
            )
            return terminal, True
        return None, False

    @staticmethod
    def _with_flags(resolved: FPat, ref: FPat) -> FPat:
        """Overlay the ref node's non-default flags onto the resolved root."""
        bind = ref.bind if ref.bind != "any" else resolved.bind
        inst = ref.inst if ref.inst != "any" else resolved.inst
        descend = ref.descend if ref.descend != "none" else resolved.descend
        if (
            bind == resolved.bind
            and inst == resolved.inst
            and descend == resolved.descend
        ):
            return resolved
        return FPat(
            resolved.kind,
            label=resolved.label,
            children=resolved.children,
            bind=bind,
            inst=inst,
            ref=resolved.ref,
            collection=resolved.collection,
            descend=descend,
        )

    def _check(self, flt: Filter, fpat: FPat, terminal: bool = False) -> Admissibility:
        if fpat.kind == "union":
            last = _no("no union branch admits the filter")
            for alternative in fpat.children:
                result = self._check(flt, alternative, terminal)
                if result:
                    return result
                last = result
            return last
        if fpat.kind == "ref":
            resolved, is_terminal = self._resolve_ref(fpat)
            if resolved is None:
                return _no(f"unresolvable reference {fpat.ref!r}")
            return self._check(flt, resolved, is_terminal)

        if isinstance(flt, FVar):
            if fpat.bind in ("any", "tree"):
                return _ok()
            return _no(f"tree variable ${flt.name} forbidden (bind={fpat.bind})")
        if isinstance(flt, FConst):
            if fpat.kind in ("leaf", "any"):
                return _ok()
            return _no(f"constant {flt.value!r} does not fit a {fpat.kind} pattern")
        if isinstance(flt, FDescend):
            if fpat.kind == "any" or fpat.descend == "any":
                return self._check(flt.child, fpat, terminal)
            return _no("descendant navigation is not supported by this source")
        if isinstance(flt, FElem):
            return self._check_elem(flt, fpat, terminal)
        if isinstance(flt, (FStar, FRest)):
            return _no(f"{type(flt).__name__} outside an element filter")
        return _no(f"unknown filter kind {flt!r}")

    def _check_elem(self, flt: FElem, fpat: FPat, terminal: bool) -> Admissibility:
        # Label discipline.
        if isinstance(flt.label, LabelVar):
            if fpat.kind == "node" and fpat.label != SYMBOL:
                return _no(
                    f"label variable ${flt.label.name} cannot stand for the fixed "
                    f"label {fpat.label!r}"
                )
            if fpat.inst == "ground":
                return _no(
                    f"label variable ${flt.label.name} forbidden (inst=ground)"
                )
            if fpat.bind not in ("any", "label"):
                return _no(
                    f"label variable ${flt.label.name} forbidden (bind={fpat.bind})"
                )
        elif isinstance(flt.label, str):
            if fpat.kind == "node" and fpat.label not in (SYMBOL, flt.label):
                return _no(
                    f"label {flt.label!r} does not match pattern label {fpat.label!r}"
                )
            if fpat.kind == "node" and fpat.label == SYMBOL and fpat.inst == "none":
                return _no(
                    f"label {flt.label!r} instantiates a wildcard frozen by inst=none"
                )
        else:  # LabelRegex
            if fpat.kind != "any":
                return _no("label regular expressions are not supported by this source")

        # Tree-variable discipline.
        if flt.var is not None and fpat.bind not in ("any", "tree"):
            return _no(f"tree variable ${flt.var} forbidden (bind={fpat.bind})")

        # Content discipline.
        if terminal or fpat.kind == "any":
            if flt.children and terminal:
                return _no(
                    "only whole subtrees may be bound here (structure-model "
                    "reference); deeper filtering is not supported"
                )
            for child in flt.children:
                result = self._check(child, fpat, terminal)
                if not result:
                    return result
            return _ok()
        if fpat.kind != "node":
            return _no(f"element filter does not fit a {fpat.kind} pattern")
        return self._check_children(flt, fpat)

    def _check_children(self, flt: FElem, fpat: FPat) -> Admissibility:
        """Match the filter's child items against the Fpattern's children.

        A star frozen by ``inst=none`` is kept as-is: the filter iterates
        it with exactly one starred item.
        """
        stars = [item for item in fpat.children if item.kind == "star"]
        singles = [item for item in fpat.children if item.kind != "star"]
        used_singles = [False] * len(singles)
        iterations = [0] * len(stars)

        for child in flt.children:
            if isinstance(child, FStar):
                result = self._check_star_item(child, stars, iterations)
            elif isinstance(child, FRest):
                result = self._check_rest_item(child, stars)
            else:
                result = self._check_plain_item(child, singles, used_singles, stars)
            if not result:
                return result
        for star, count in zip(stars, iterations):
            if star.inst == "none" and count != 1:
                return _no(
                    "star position is frozen (inst=none): the filter iterates "
                    f"it exactly once, not {count} times"
                )
        return _ok()

    def _check_star_item(self, child: FStar, stars, iterations) -> Admissibility:
        last = _no("no star position accepts an iterating filter")
        for index, star in enumerate(stars):
            if star.inst == "ground":
                last = _no("star position requires ground items (inst=ground)")
                continue
            result = self._check(child.child, star.children[0])
            if result:
                iterations[index] += 1
                return result
            last = result
        return last

    def _check_rest_item(self, child: FRest, stars) -> Admissibility:
        for star in stars:
            if star.inst != "any":
                continue
            inner = star.children[0]
            if inner.kind == "ref":
                resolved, terminal = self._resolve_ref(inner)
                if resolved is None:
                    continue
                inner = resolved
            if inner.bind in ("any", "tree"):
                return _ok()
        return _no(f"rest variable ${child.name} has no bindable star position")

    def _check_plain_item(
        self, child: Filter, singles, used_singles, stars
    ) -> Admissibility:
        last = _no("no pattern position accepts this filter item")
        for index, single in enumerate(singles):
            if used_singles[index]:
                continue
            result = self._check(child, single)
            if result:
                used_singles[index] = True
                return result
            last = result
        for star in stars:
            if star.inst == "none":
                last = _no(
                    "star position is frozen (inst=none): items must iterate, "
                    "not match individually"
                )
                continue
            result = self._check(child, star.children[0])
            if result:
                return result
            last = result
        return last
