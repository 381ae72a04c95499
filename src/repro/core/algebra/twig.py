"""Holistic twig-pattern matching for ``Bind`` (TwigStack-style).

The recursive matchers (:mod:`repro.core.algebra.bind` and the compiled
scan kernels in :mod:`repro.core.algebra.compiled`) navigate
node-at-a-time:
every element filter probes every candidate child object, and every
binding is assembled as a Python dict.  This module evaluates the same
filters *set-at-a-time* over the positional encoding that
:class:`~repro.model.indexes.DocumentIndex` already maintains — pre-order
positions plus subtree intervals, the classic pre/post scheme of the
TwigStack family:

* a **parent/child edge** on a literal label resolves through the
  index's per-label ``children_map`` (one grouping pass per label per
  document, then a dict probe per edge);
* a **descendant edge** (``**``) is a bisection of the label's sorted
  position list against the child's ``[pos, end)`` interval;
* bindings are fixed-width **tuples in declaration order** — no dicts,
  no per-binding merging — which the evaluator zips straight into Tab
  columns.

The compiler handles the *twig fragment* of the filter language: element
filters with literal string labels, variable/constant/rest items, ``*``
iteration, and ``**`` descents into literal labels, variables or
constants.  Everything else — :class:`LabelVar`/:class:`LabelRegex`
labels, nested ``**``/``*`` shapes, non-element roots — makes
:func:`compile_twig` return ``None`` and the caller
(:mod:`repro.core.algebra.engine`, the only one) runs the scan kernel.
Small, reference and shared-node trees never reach the twig path at
all, because :func:`~repro.model.indexes.document_index` refuses to
index them.

The contract is strict parity: for every supported filter the twig join
produces exactly the bindings, in exactly the order, that
:meth:`FilterMatcher.match` produces — including the cartesian-explosion
guards — so the interpretive engine remains the differential oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from typing import Callable, List, Optional, Tuple

from repro.core.algebra.bind import MAX_MATCHES
from repro.errors import BindError
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    Filter,
    FRest,
    FStar,
    FVar,
)
from repro.model.indexes import DocumentIndex
from repro.model.trees import DataNode

__all__ = ["CompiledTwig", "compile_twig"]

_EMPTY: Tuple[int, ...] = ()


def _explosion() -> BindError:
    return BindError(
        f"filter produces more than {MAX_MATCHES} bindings "
        f"for one tree; refusing the cartesian explosion"
    )


# ---------------------------------------------------------------------------
# Item compilers: one closure per filter item, candidates from positions
# ---------------------------------------------------------------------------
#
# Every item closure has the signature ``fn(index, pos, children, claimed)
# -> list of binding tuples`` where ``children`` is the precomputed list
# of direct-child positions of ``pos`` (``None`` unless some item needs
# it) and ``claimed`` is the set of child positions matched by at least
# one sibling item (``None`` when the element has no rest item, so the
# bookkeeping costs nothing).  Binding tuples are in the item's own
# declaration order.

def _bound_cell(node: DataNode):
    atom = node.atom
    return atom if atom is not None else node


def _compile_leaf_elem_item(target: FElem):
    """A fused closure for the frequent leaf shapes, or ``None``.

    ``artist($a)``-style items — an element filter with a literal label
    and at most one variable/constant child — dominate real twigs (every
    Figure 4 / q1 field access is one).  Matching them through the
    generic ``elem_item`` → ``match_at`` pair costs two Python frames and
    several property lookups per candidate; these closures do the same
    work inline, one frame per *item* instead of per candidate.  The
    bindings are exactly ``match_at``'s for the same shape.
    """
    label = target.label
    if not isinstance(label, str):
        return None
    var = target.var
    declared = target.children

    if not declared:
        if var is None:

            def bare_item(index, pos, children, claimed, _label=label):
                candidates = index.children_map(_label).get(pos, _EMPTY)
                if claimed is not None:
                    claimed.update(candidates)
                return [()] * len(candidates)

            return bare_item

        def node_item(index, pos, children, claimed, _label=label):
            nodes = index.preorder_nodes
            candidates = index.children_map(_label).get(pos, _EMPTY)
            if claimed is not None:
                claimed.update(candidates)
            return [(_bound_cell(nodes[child]),) for child in candidates]

        return node_item

    if len(declared) != 1:
        return None
    inner = declared[0]

    if isinstance(inner, FVar):

        def leaf_var_item(index, pos, children, claimed,
                          _label=label, _own=var is not None):
            nodes = index.preorder_nodes
            ends = index.subtree_ends
            alts: List[tuple] = []
            for child in index.children_map(_label).get(pos, _EMPTY):
                node = nodes[child]
                atom = node.atom
                if atom is not None:
                    alts.append((atom, atom) if _own else (atom,))
                else:
                    matched = False
                    sub = child + 1
                    end = ends[child]
                    while sub < end:
                        leaf = nodes[sub]
                        cell = leaf.atom
                        if cell is None:
                            cell = leaf
                        alts.append((node, cell) if _own else (cell,))
                        matched = True
                        sub = ends[sub]
                    if not matched:
                        continue
                if claimed is not None:
                    claimed.add(child)
            return alts

        return leaf_var_item

    if isinstance(inner, FConst):
        value = inner.value

        def leaf_const_item(index, pos, children, claimed,
                            _label=label, _value=value,
                            _own=var is not None):
            nodes = index.preorder_nodes
            ends = index.subtree_ends
            alts: List[tuple] = []
            for child in index.children_map(_label).get(pos, _EMPTY):
                node = nodes[child]
                atom = node.atom
                if atom is not None:
                    if atom != _value:
                        continue
                    alts.append((atom,) if _own else ())
                else:
                    matched = False
                    sub = child + 1
                    end = ends[child]
                    while sub < end:
                        cell = nodes[sub].atom
                        if cell is not None and cell == _value:
                            alts.append((node,) if _own else ())
                            matched = True
                        sub = ends[sub]
                    if not matched:
                        continue
                if claimed is not None:
                    claimed.add(child)
            return alts

        return leaf_const_item

    return None


def _compile_item(target: Filter):
    """``(needs_children, fn)`` for one (star-unwrapped) item, or ``None``."""
    if isinstance(target, FElem):
        specialized = _compile_leaf_elem_item(target)
        if specialized is not None:
            return False, specialized
        compiled = _compile_elem(target)
        if compiled is None:
            return None
        sub_label, sub_fn = compiled

        def elem_item(index, pos, children, claimed,
                      _label=sub_label, _sub=sub_fn):
            alts: List[tuple] = []
            for child in index.children_map(_label).get(pos, _EMPTY):
                bindings = _sub(index, child)
                if bindings:
                    if claimed is not None:
                        claimed.add(child)
                    alts.extend(bindings)
            return alts

        return False, elem_item

    if isinstance(target, FVar):

        def var_item(index, pos, children, claimed):
            if claimed is not None:
                claimed.update(children)
            nodes = index.preorder_nodes
            return [(_bound_cell(nodes[child]),) for child in children]

        return True, var_item

    if isinstance(target, FConst):
        value = target.value

        def const_item(index, pos, children, claimed, _value=value):
            nodes = index.preorder_nodes
            alts: List[tuple] = []
            for child in children:
                atom = nodes[child].atom
                if atom is not None and atom == _value:
                    if claimed is not None:
                        claimed.add(child)
                    alts.append(())
            return alts

        return True, const_item

    if isinstance(target, FDescend):
        inner = target.child
        if isinstance(inner, FElem):
            compiled = _compile_elem(inner)
            if compiled is None:
                return None
            sub_label, sub_fn = compiled

            def descend_elem_item(index, pos, children, claimed,
                                  _label=sub_label, _sub=sub_fn):
                ends = index.subtree_ends
                positions = index.label_list(_label)
                alts: List[tuple] = []
                for child in children:
                    lo = bisect_left(positions, child)
                    hi = bisect_left(positions, ends[child], lo)
                    bindings: List[tuple] = []
                    for descendant in positions[lo:hi]:
                        bindings.extend(_sub(index, descendant))
                    if bindings:
                        if claimed is not None:
                            claimed.add(child)
                        alts.extend(bindings)
                return alts

            return True, descend_elem_item

        if isinstance(inner, FVar):

            def descend_var_item(index, pos, children, claimed):
                nodes = index.preorder_nodes
                ends = index.subtree_ends
                alts: List[tuple] = []
                for child in children:
                    # Every descendant (the child included) matches a
                    # bare variable, so the child is always claimed.
                    if claimed is not None:
                        claimed.add(child)
                    for descendant in range(child, ends[child]):
                        alts.append((_bound_cell(nodes[descendant]),))
                return alts

            return True, descend_var_item

        if isinstance(inner, FConst):
            value = inner.value

            def descend_const_item(index, pos, children, claimed,
                                   _value=value):
                nodes = index.preorder_nodes
                ends = index.subtree_ends
                alts: List[tuple] = []
                for child in children:
                    bindings: List[tuple] = []
                    for descendant in range(child, ends[child]):
                        atom = nodes[descendant].atom
                        if atom is not None and atom == _value:
                            bindings.append(())
                    if bindings:
                        if claimed is not None:
                            claimed.add(child)
                        alts.extend(bindings)
                return alts

            return True, descend_const_item

        return None

    # LabelVar/LabelRegex elements are rejected by _compile_elem; a
    # nested star (FStar(FStar(...))) or stray FRest lands here.
    return None


# Item kinds for the fused element matcher, pre-resolved at compile time.
_BARE = 0       # childless element, no variable: binding ()
_NODE = 1       # childless element binding the node (or its atom)
_LEAF_VAR = 2   # element whose single child is a variable
_LEAF_CONST = 3  # element whose single child is a constant


def _fused_entry(item, slot):
    """``(label, (slot, kind, own, value))`` for a simple item, or ``None``."""
    target = item.child if isinstance(item, FStar) else item
    if not isinstance(target, FElem) or not isinstance(target.label, str):
        return None
    own = target.var is not None
    declared = target.children
    if not declared:
        return target.label, (slot, _NODE if own else _BARE, own, None)
    if len(declared) != 1:
        return None
    inner = declared[0]
    if isinstance(inner, FVar):
        return target.label, (slot, _LEAF_VAR, own, None)
    if isinstance(inner, FConst):
        return target.label, (slot, _LEAF_CONST, own, inner.value)
    return None


def _compile_fused_elem(label, var, declared, leaf_fn):
    """A single-walk matcher when every item is a simple field access.

    The generic ``match_at`` probes one per-label children map per item;
    a Figure 4 ``work`` element pays that four times per node.  When all
    items are childless-or-leaf elements with literal labels the whole
    element matches in *one* pass over its direct children, dispatching
    each child by label — the TwigStack edge checks collapse into a dict
    probe.  Bindings, claiming and rest semantics are exactly the
    oracle's; anything more complex returns ``None`` and takes the
    per-item path.
    """
    dispatch = {}
    part_is_item: List[bool] = []
    has_rest = False
    slot = 0
    for item in declared:
        if isinstance(item, FRest):
            has_rest = True
            part_is_item.append(False)
            continue
        part_is_item.append(True)
        entry = _fused_entry(item, slot)
        if entry is None:
            return None
        item_label, record = entry
        dispatch.setdefault(item_label, []).append(record)
        slot += 1
    n_items = slot
    table = {key: tuple(records) for key, records in dispatch.items()}
    parts = tuple(part_is_item)
    rest_is_last = has_rest and part_is_item[-1] is False

    def fused_match_at(index, pos, _var=var, _leaf=leaf_fn, _table=table,
                       _n=n_items, _parts=parts, _has_rest=has_rest,
                       _rest_is_last=rest_is_last):
        nodes = index.preorder_nodes
        node = nodes[pos]
        atom = node.atom
        if atom is not None:
            if _leaf is None:
                return []
            inner = _leaf(atom)
            if not inner or _var is None:
                return inner
            return [(atom,) + binding for binding in inner]

        ends = index.subtree_ends
        alternatives = [[] for _ in range(_n)]
        rest: Optional[List] = [] if _has_rest else None
        child = pos + 1
        end = ends[pos]
        while child < end:
            cnode = nodes[child]
            entries = _table.get(cnode.label)
            matched = False
            if entries is not None:
                catom = cnode.atom
                for islot, kind, own, value in entries:
                    if kind == _LEAF_VAR:
                        if catom is not None:
                            alternatives[islot].append(
                                (catom, catom) if own else (catom,)
                            )
                            matched = True
                        else:
                            sub = child + 1
                            cend = ends[child]
                            while sub < cend:
                                leaf = nodes[sub]
                                cell = leaf.atom
                                if cell is None:
                                    cell = leaf
                                alternatives[islot].append(
                                    (cnode, cell) if own else (cell,)
                                )
                                matched = True
                                sub = ends[sub]
                    elif kind == _BARE:
                        alternatives[islot].append(())
                        matched = True
                    elif kind == _NODE:
                        alternatives[islot].append(
                            (catom,) if catom is not None else (cnode,)
                        )
                        matched = True
                    else:  # _LEAF_CONST
                        if catom is not None:
                            if catom == value:
                                alternatives[islot].append(
                                    (catom,) if own else ()
                                )
                                matched = True
                        else:
                            sub = child + 1
                            cend = ends[child]
                            while sub < cend:
                                cell = nodes[sub].atom
                                if cell is not None and cell == value:
                                    alternatives[islot].append(
                                        (cnode,) if own else ()
                                    )
                                    matched = True
                                sub = ends[sub]
            if not matched and rest is not None:
                rest.append(cnode)
            child = ends[child]

        singletons = True
        for alts in alternatives:
            if not alts:
                return []
            if len(alts) != 1:
                singletons = False

        own_cells = (node,) if _var is not None else ()
        if singletons:
            row = own_cells
            if _has_rest:
                rest_value = tuple(rest)
                if _rest_is_last:
                    for alts in alternatives:
                        row += alts[0]
                    return [row + (rest_value,)]
                cursor = 0
                for is_item in _parts:
                    if is_item:
                        row += alternatives[cursor][0]
                        cursor += 1
                    else:
                        row += (rest_value,)
                return [row]
            for alts in alternatives:
                row += alts[0]
            return [row]

        total = 1
        for alts in alternatives:
            total *= len(alts)
            if total > MAX_MATCHES:
                raise _explosion()
        if not _has_rest:
            results: List[tuple] = []
            for combo in product(*alternatives):
                row = own_cells
                for part in combo:
                    row += part
                results.append(row)
            return results
        rest_value = tuple(rest)
        results = []
        if _rest_is_last:
            tail = (rest_value,)
            for combo in product(*alternatives):
                row = own_cells
                for part in combo:
                    row += part
                results.append(row + tail)
            return results
        for combo in product(*alternatives):
            row = own_cells
            cursor = 0
            for is_item in _parts:
                if is_item:
                    row += combo[cursor]
                    cursor += 1
                else:
                    row += (rest_value,)
            results.append(row)
        return results

    return fused_match_at


def _compile_elem(flt: FElem):
    """``(label, match_at)`` for one element filter, or ``None``.

    ``match_at(index, pos)`` assumes the node at ``pos`` already carries
    the element's label (candidates come from label-keyed lookups); the
    root entry point checks it explicitly.
    """
    label = flt.label
    if not isinstance(label, str):
        return None
    var = flt.var
    declared = flt.children

    if not declared:
        if var is not None:

            def match_leaf_elem(index, pos):
                return [(_bound_cell(index.preorder_nodes[pos]),)]

            return label, match_leaf_elem

        def match_bare_elem(index, pos):
            return [()]

        return label, match_bare_elem

    # Atom-leaf content: an element filter whose single child is a
    # variable or constant can match an atom leaf (bind.py's
    # _match_leaf_content).  Built from the *raw* child — a starred or
    # rest single child never matches a leaf, exactly like the oracle.
    leaf_fn: Optional[Callable] = None
    if len(declared) == 1:
        raw = declared[0]
        if isinstance(raw, FVar):
            leaf_fn = lambda atom: [(atom,)]  # noqa: E731
        elif isinstance(raw, FConst):
            leaf_value = raw.value
            leaf_fn = (
                lambda atom, _v=leaf_value: [()] if atom == _v else []
            )  # noqa: E731

    fused = _compile_fused_elem(label, var, declared, leaf_fn)
    if fused is not None:
        return label, fused

    item_fns: List[Callable] = []
    part_is_item: List[bool] = []  # declared order; False marks the rest
    has_rest = False
    needs_children = False
    for item in declared:
        if isinstance(item, FRest):
            has_rest = True
            part_is_item.append(False)
            continue
        part_is_item.append(True)
        target = item.child if isinstance(item, FStar) else item
        compiled = _compile_item(target)
        if compiled is None:
            return None
        item_needs_children, fn = compiled
        needs_children = needs_children or item_needs_children
        item_fns.append(fn)
    needs_children = needs_children or has_rest
    rest_is_last = has_rest and part_is_item[-1] is False
    parts = tuple(part_is_item)
    items = tuple(item_fns)
    single_item = len(items) == 1 and not has_rest

    def match_at(index, pos, _var=var, _items=items, _parts=parts,
                 _leaf=leaf_fn, _has_rest=has_rest,
                 _needs_children=needs_children,
                 _rest_is_last=rest_is_last, _single=single_item):
        nodes = index.preorder_nodes
        node = nodes[pos]
        atom = node.atom
        if atom is not None:
            if _leaf is None:
                return []
            inner = _leaf(atom)
            if not inner or _var is None:
                return inner
            return [(atom,) + binding for binding in inner]

        claimed: Optional[set] = set() if _has_rest else None
        children: Optional[List[int]] = None
        if _needs_children:
            ends = index.subtree_ends
            children = []
            child = pos + 1
            end = ends[pos]
            while child < end:
                children.append(child)
                child = ends[child]

        alternatives: List[List[tuple]] = []
        singletons = True
        for fn in _items:
            alts = fn(index, pos, children, claimed)
            if not alts:
                return []
            if len(alts) != 1:
                singletons = False
            alternatives.append(alts)

        own = (node,) if _var is not None else ()
        if singletons:
            # One combination total (the overwhelmingly common case):
            # concatenate in place of the product machinery.
            row = own
            if _has_rest:
                rest_value = tuple(
                    nodes[child] for child in children
                    if child not in claimed
                )
                if _rest_is_last:
                    for alts in alternatives:
                        row += alts[0]
                    return [row + (rest_value,)]
                cursor = 0
                for is_item in _parts:
                    if is_item:
                        row += alternatives[cursor][0]
                        cursor += 1
                    else:
                        row += (rest_value,)
                return [row]
            for alts in alternatives:
                row += alts[0]
            return [row]

        total = 1
        for alts in alternatives:
            total *= len(alts)
            if total > MAX_MATCHES:
                raise _explosion()

        if not _has_rest:
            if _single:
                alts = alternatives[0]
                if _var is None:
                    return alts
                return [own + binding for binding in alts]
            results: List[tuple] = []
            for combo in product(*alternatives):
                row = own
                for part in combo:
                    row += part
                results.append(row)
            return results

        rest_value = tuple(
            nodes[child] for child in children if child not in claimed
        )
        results = []
        if _rest_is_last:
            tail = (rest_value,)
            for combo in product(*alternatives):
                row = own
                for part in combo:
                    row += part
                results.append(row + tail)
            return results
        for combo in product(*alternatives):
            row = own
            cursor = 0
            for is_item in _parts:
                if is_item:
                    row += combo[cursor]
                    cursor += 1
                else:
                    row += (rest_value,)
            results.append(row)
        return results

    return label, match_at


# ---------------------------------------------------------------------------
# Public surface
# ---------------------------------------------------------------------------

class CompiledTwig:
    """A filter compiled to a positional twig join over a DocumentIndex.

    :meth:`match` returns binding *tuples* whose cells line up with
    :attr:`variables` (the filter's declaration order) — Bind zips them
    straight into columns.  The caller is responsible for only offering
    roots the index covers (``index.covers(root)``).
    """

    __slots__ = ("filter", "variables", "_root_label", "_root_fn")

    def __init__(self, flt: Filter, root_label: str, root_fn: Callable) -> None:
        self.filter = flt
        self.variables: Tuple[str, ...] = flt.variables()
        self._root_label = root_label
        self._root_fn = root_fn

    def match(self, root: DataNode, index: DocumentIndex) -> List[tuple]:
        """All binding tuples of the filter against *root*, via *index*."""
        if root.label != self._root_label:
            return []
        return self._root_fn(index, index.position_of(root))


def compile_twig(flt: Filter) -> Optional[CompiledTwig]:
    """Compile *flt* to a twig join, or ``None`` outside the fragment."""
    if not isinstance(flt, FElem):
        return None
    compiled = _compile_elem(flt)
    if compiled is None:
        return None
    label, fn = compiled
    return CompiledTwig(flt, label, fn)
