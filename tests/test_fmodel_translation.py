"""What a wrapper's description admits, its translator runs (paper, §4).

A wrapper states once what it can evaluate: an Fmodel with
``bind``/``inst``/``descend`` flags and typed operation declarations.
Gottlob & Koch (cs/0310012) compare wrapper languages by the node sets
their programs select; this property compares each Fmodel with its own
translator the same way.  For O2, SQL, Wais and the sqlite store, a
Hypothesis strategy walks the ``FPat`` grammar of the source's ``bind``
filter spec, steered by the source's own data (labels and constants of
the seeded :class:`CulturalDataset`), draws selections from the declared
operations, and draws near-misses one mutation away (a label, a flag, a
star, a descent, a constant's type).  For every draw:

* the optimizer's matcher (over the catalog's XML re-import) and the
  wrapper's matcher (over its own interface) give one verdict;
* an admitted fragment runs through ``execute_pushed`` without a
  :class:`SourceError`;
* its Tab equals the same Bind + Select evaluated mediator-side over
  ``document()`` under ``ExecutionPolicy.serial()``.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mediator, O2Wrapper, SqlWrapper, StoreWrapper, WaisWrapper
from repro.capabilities.fmodel import FPat
from repro.capabilities.matcher import PREDICATE_OPERATION_NAMES
from repro.core.algebra.expressions import (
    BoolAnd, BoolNot, BoolOr, Cmp, Const, FunCall, Var,
)
from repro.core.algebra.operators import BindOp, SelectOp, SourceOp
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.core.algebra.tab import tab_to_xml
from repro.datasets import CulturalDataset
from repro.model.filters import FConst, FDescend, FElem, FStar, FVar, LabelVar
from repro.model.instantiation import is_instance
from repro.model.patterns import SYMBOL
from repro.model.trees import DataNode
from repro.sources.stored.source import StoredXmlSource

ATOM_TYPES = {"Int": int, "Float": float, "String": str, "Bool": bool}
COMPARISONS = {name: op for op, name in PREDICATE_OPERATION_NAMES.items()}


@lru_cache(maxsize=None)
def federation(name: str):
    """``(mediator, wrapper)`` for one source over the seeded dataset."""
    dataset = CulturalDataset(n_artifacts=6, seed=7)
    database, store = dataset.build()
    if name == "o2":
        wrapper = O2Wrapper("o2artifact", database)
    elif name == "sql":
        wrapper = SqlWrapper("salesdb", dataset.build_sales(database))
    elif name == "wais":
        wrapper = WaisWrapper("xmlartwork", store)
    else:
        stored = StoredXmlSource()
        stored.add_tree("artworks", store.collection_tree())
        stored.add_tree(
            "sales", SqlWrapper("s", dataset.build_sales(database)).document("sales")
        )
        stored.add_tree("artifacts", O2Wrapper("o", database).document("artifacts"))
        wrapper = StoreWrapper("depot", stored)
    mediator = Mediator(plan_cache_size=0)
    mediator.connect(wrapper)
    if name == "o2":
        # The mediator-side twin of each schema method, for the oracle.
        for method in database.schema.methods.values():
            mediator.functions[method.name] = (
                lambda node, method=method: method.implementation(database, node.ident)
            )
    return mediator, wrapper


def atoms_of(node: DataNode, index) -> list:
    """Every atom below *node*, references followed once."""
    seen, found, todo = set(), [], [node]
    while todo:
        current = todo.pop()
        if current.is_reference:
            if current.ref_target in seen or current.ref_target not in index:
                continue
            seen.add(current.ref_target)
            current = index[current.ref_target]
        if current.is_atom_leaf:
            found.append(current.atom)
        todo.extend(current.children)
    return found


class Walk:
    """One draw's state: the Fmodel walk over the data it is steered by."""

    def __init__(self, draw, interface, index) -> None:
        self.draw = draw
        self.interface = interface
        self.index = index
        self.names = 0
        # One descent and a few items per filter: each multiplies the
        # rows a filter binds, and more make a single draw take seconds.
        self.descended = False
        self.items = 5
        #: ``{variable: atoms it can bind}`` and ``{variable: nodes}``.
        self.leaves: dict = {}
        self.trees: dict = {}

    def fresh(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def deref(self, cand):
        if isinstance(cand, DataNode) and cand.is_reference:
            return self.index.get(cand.ref_target, cand)
        return cand

    def resolve(self, fp):
        """``(pattern, terminal)`` with refs followed; a structure-model
        ref is terminal: it types a whole subtree, nothing below it."""
        while fp.kind == "ref":
            model, pattern = fp.ref
            fmodel = self.interface.fmodels.get(model)
            if fmodel is not None and pattern in fmodel:
                resolved = fmodel.resolve(pattern)
                if fp.bind != "any":
                    resolved = with_(resolved, bind=fp.bind)
                fp = resolved
                continue
            target = self.interface.structures[model].resolve(pattern)
            label = getattr(target, "label", None)
            return FPat("node" if label else "any", label=label, bind=fp.bind), True
        return fp, False

    def fits(self, fp, cand) -> bool:
        fp, _terminal = self.resolve(fp)
        cand = self.deref(cand)
        if fp.kind == "union":
            return any(self.fits(alt, cand) for alt in fp.children)
        if fp.kind == "leaf":
            return not isinstance(cand, DataNode) and type(cand) is ATOM_TYPES[fp.label]
        if fp.kind == "node":
            return isinstance(cand, DataNode) and fp.label in (SYMBOL, cand.label)
        return True

    def item(self, fp, cands, depth):
        """A filter for the pattern position *fp* over the data *cands*."""
        fp, terminal = self.resolve(fp)
        if fp.kind == "union":
            fitting = [a for a in fp.children if any(self.fits(a, c) for c in cands)]
            chosen = self.draw(st.sampled_from(fitting or fp.children))
            return self.item(chosen, cands, depth)
        fitting = [c for c in cands if self.fits(fp, c)] or cands
        cand = self.deref(self.draw(st.sampled_from(fitting)))
        if fp.descend == "any" and isinstance(cand, DataNode) and not self.descended:
            below = list(cand.descendants())[1:]
            if below and self.draw(st.booleans()):
                self.descended = True
                return FDescend(self.item(fp, below, depth + 1))
        may_bind = fp.bind in ("any", "tree")
        if not isinstance(cand, DataNode):
            options = ["const"] + (["var"] if may_bind else [])
            if self.draw(st.sampled_from(options)) == "var":
                name = self.fresh()
                self.leaves[name] = [cand]
                return FVar(name)
            return FConst(cand)
        if may_bind and self.draw(st.integers(0, 3)) == 0:
            name = self.fresh()
            self.trees[name] = cand
            if cand.is_atom_leaf:
                self.leaves[name] = [cand.atom]
            return FVar(name)
        var = None
        if may_bind and self.draw(st.booleans()):
            var = self.fresh()
            self.trees[var] = cand
        if terminal or depth > 6:
            return FElem(cand.label, (), var=var)
        content = [cand.atom] if cand.is_atom_leaf else list(cand.children)
        children = []
        for position in fp.children if content else ():
            if position.kind != "star":
                if (self.items > 0 and any(self.fits(position, c) for c in content)
                        and self.draw(st.booleans())):
                    self.items -= 1
                    children.append(self.item(position, content, depth + 1))
                continue
            inner = position.children[0]
            ranged = [c for c in content if self.fits(inner, c)]
            if not ranged:
                continue
            if (self.items > 0 and position.inst != "ground"
                    and self.draw(st.booleans())):
                self.items -= 1
                children.append(FStar(self.item(inner, ranged, depth + 1)))
            if position.inst != "none":
                for c in self.draw(st.lists(st.sampled_from(ranged), max_size=2)):
                    if self.items <= 0:
                        break
                    self.items -= 1
                    children.append(self.item(inner, [c], depth + 1))
        return FElem(cand.label, tuple(children), var=var)

    def selection(self):
        """One predicate built from a declared operation, over the
        variables the filter binds and constants from the data."""
        built = []
        for name, decl in self.interface.operations.items():
            if name in COMPARISONS and self.leaves:
                variable = self.draw(st.sampled_from(sorted(self.leaves)))
                built.append(lambda variable=variable, name=name: Cmp(
                    COMPARISONS[name], Var(variable),
                    Const(self.draw(st.sampled_from(self.leaves[variable]))),
                ))
            elif decl.kind in ("external", "method") and self.trees:
                built.append(lambda decl=decl: self.call(decl))
        if not built:
            return None
        predicate = self.draw(st.sampled_from(built))()
        shape = self.draw(st.sampled_from(["plain", "not", "or", "and"]))
        if predicate is None or shape == "plain":
            return predicate
        if shape == "not":
            return BoolNot(predicate)
        other = self.draw(st.sampled_from(built))()
        if other is None:
            return predicate
        return (BoolOr if shape == "or" else BoolAnd)([predicate, other])

    def call(self, decl):
        """A call of *decl*: a receiver the filter binds to an instance
        of the declared pattern (the matcher cannot type a variable),
        and constants of the declared leaf types, or near-misses: a
        constant of another type, or a variable the filter binds."""
        args = []
        for spec in decl.inputs:
            if spec.role == "leaf":
                if self.draw(st.integers(0, 5)) == 0:  # a bound variable
                    args.append(Var(self.draw(st.sampled_from(sorted(self.trees)))))
                else:
                    args.append(Const(self.constant(spec.leaf_type)))
                continue
            library = self.interface.structures[spec.model]
            typed = sorted(
                name for name, node in self.trees.items()
                if is_instance(node, library.resolve(spec.pattern), library)
            )
            if not typed:
                return None
            args.append(Var(self.draw(st.sampled_from(typed))))
        call = FunCall(decl.name, args)
        if decl.output is not None and decl.output.leaf_type in ("Int", "Float"):
            bound = self.constant(decl.output.leaf_type, typed=True)
            return Cmp(">", call, Const(bound))
        return call

    def constant(self, type_name, typed=False):
        atoms = [
            atom for node in self.trees.values() for atom in atoms_of(node, self.index)
        ]
        # A near-miss argument (unless *typed*): any type the data holds.
        kind = ATOM_TYPES[type_name]
        matching = [a for a in atoms if type(a) is kind]
        if typed:
            return self.draw(st.sampled_from(matching or [kind()]))
        if matching and self.draw(st.integers(0, 4)) > 0:
            return self.draw(st.sampled_from(matching))
        return self.draw(st.sampled_from(atoms or [0]))


@lru_cache(maxsize=None)
def vocabulary(name: str):
    """``(labels, atoms)`` of *name*'s documents; the labels gain one the
    source never holds."""
    _mediator, wrapper = federation(name)
    labels, atoms = set(), set()
    for document in wrapper.document_names():
        for node in wrapper.document(document).descendants():
            labels.add(node.label)
            if node.is_atom_leaf:
                atoms.add(node.atom)
    return sorted(labels) + ["zz"], sorted(atoms, key=repr)


def mutated(draw, flt, name):
    """*flt* one mutation away: a label, a flag, a star or a descent."""
    labels, atoms = vocabulary(name)
    spots = [node for node in flt.walk() if isinstance(node, FElem)]
    target = draw(st.sampled_from(spots))
    kind = draw(st.sampled_from(
        ["label", "var", "labelvar", "star", "descend", "leaf"]
    ))
    if kind == "label":
        replacement = with_(target, label=draw(st.sampled_from(labels)))
    elif kind == "var":
        replacement = with_(target, var=None if target.var else "m0")
    elif kind == "labelvar":
        replacement = with_(target, label=LabelVar("m1"))
    elif target.children:
        index = draw(st.integers(0, len(target.children) - 1))
        child = target.children[index]
        if kind == "star":
            child = child.child if isinstance(child, FStar) else FStar(child)
        elif kind == "descend":
            child = FDescend(child.child if isinstance(child, FStar) else child)
        elif isinstance(child, FConst):
            child = FVar("m2")
        elif isinstance(child, FVar):
            child = FConst(draw(st.sampled_from(atoms)))
        else:
            child = None
        children = list(target.children)
        if child is None:
            del children[index]
        else:
            children[index] = child
        replacement = with_(target, children=tuple(children))
    else:
        replacement = with_(target, children=(FVar("m3"),))
    return replaced(flt, target, replacement)


def with_(node, **changes):
    """*node* with some of its fields changed."""
    return type(node)(*[changes.get(f, getattr(node, f)) for f in node._fields])


def replaced(flt, target, replacement):
    if flt is target:
        return replacement
    if isinstance(flt, FElem):
        children = tuple(replaced(c, target, replacement) for c in flt.children)
        return with_(flt, children=children)
    if isinstance(flt, (FStar, FDescend)):
        return type(flt)(replaced(flt.child, target, replacement))
    return flt


@st.composite
def fragments(draw, name):
    """``(document, filter, selections)`` drawn from *name*'s Fmodel."""
    mediator, wrapper = federation(name)
    interface = wrapper.interface()
    document = draw(st.sampled_from(sorted(wrapper.document_names())))
    walk = Walk(draw, interface, wrapper.ident_index())
    spec = interface.bind_filter_specs()[0]
    flt = walk.item(interface.fmodels[spec.model].resolve(spec.pattern),
                    [wrapper.document(document)], 0)
    if isinstance(flt, FElem) and draw(st.integers(0, 3)) == 0:
        flt = mutated(draw, flt, name)
    selections = [
        predicate
        for predicate in (walk.selection() for _ in range(draw(st.integers(0, 2))))
        if predicate is not None
    ]
    return document, flt, selections


def verdict(matcher, flt, selections):
    return bool(matcher.bind_admissible(flt)), tuple(
        bool(matcher.predicate_pushable(p)) for p in selections
    )


def check(name, drawn):
    mediator, wrapper = federation(name)
    document, flt, selections = drawn
    planned = mediator.optimizer_context().matcher(wrapper.name)
    own = wrapper.interface().matcher()
    assert verdict(planned, flt, selections) == verdict(own, flt, selections)
    if not own.bind_admissible(flt):
        return
    plan = BindOp(SourceOp(wrapper.name, document), flt, on=document)
    bound = set(flt.variables())
    for predicate in selections:
        if own.predicate_pushable(predicate) and set(predicate.variables()) <= bound:
            plan = SelectOp(plan, predicate)
    pushed, _native = wrapper.execute_pushed(plan)
    oracle = mediator.execute(plan, execution=ExecutionPolicy.serial()).tab
    assert tab_to_xml(pushed) == tab_to_xml(oracle)


@pytest.mark.parametrize("name", ["o2", "sql", "wais", "store"])
def test_every_admitted_fragment_runs_and_answers_like_the_mediator(name):
    @given(drawn=fragments(name))
    @settings(max_examples=80, deadline=None)
    def admitted(drawn):
        check(name, drawn)

    admitted()
