"""Every node class round-trips through ``Node`` and keys apart.

:class:`repro.model.node.Node` derives a node's key, equality, inputs and
rebuild from its ``__slots__``; these tests walk every node class of
``repro`` and hold each to that, and keep the hand-written copies from
coming back.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import pkgutil

import pytest

import repro
from repro.capabilities.equivalences import Equivalence, SelectionImplication
from repro.capabilities.fmodel import FPat
from repro.capabilities.interface import ArgSpec, OperationDecl
from repro.core.algebra.expressions import (
    BoolAnd,
    BoolNot,
    BoolOr,
    Cmp,
    Const,
    Expr,
    FunCall,
    Param,
    Var,
)
from repro.core.algebra.operators import (
    BindOp,
    DistinctOp,
    DJoinOp,
    FuseOp,
    GroupOp,
    IntersectOp,
    JoinOp,
    LiteralOp,
    MapOp,
    Plan,
    ProjectOp,
    PushedOp,
    ScatterOp,
    SelectOp,
    SortOp,
    SourceOp,
    TreeOp,
    UnionOp,
    UnitOp,
)
from repro.core.algebra.tab import Tab
from repro.core.algebra.tree import (
    CElem,
    CGroup,
    CIterate,
    CLeaf,
    CNest,
    Constructor,
    CRef,
    CValue,
)
from repro.mediator.plan_cache import BoundPlan
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    Filter,
    FRest,
    FStar,
    FVar,
    LabelRegex,
    LabelVar,
)
from repro.model.node import Node
from repro.model.patterns import (
    PAny,
    PAtomic,
    PConstLeaf,
    PNode,
    PRef,
    PStar,
    PUnion,
    Pattern,
)
from repro.sources.sharded.partition import HashPartition

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith("__main__"):
        importlib.import_module(_module.name)

#: The classes that only group a family; every other node class is
#: concrete and needs a fixture.
ABSTRACT = {Plan, Expr, Constructor, Filter, Pattern, Equivalence}

_bind = BindOp(SourceOp("s", "d"), FElem("d", [FVar("v")]), "d")
_pred = Cmp("=", Var("v"), Const(1))
_make = CElem("doc", [CLeaf("title", Var("v"))])

#: One example instance of every concrete node class.
FIXTURES = {
    SourceOp: SourceOp("s", "d"),
    LiteralOp: LiteralOp(Tab.from_tuples(("a",), [(1,), (2,)])),
    UnitOp: UnitOp(),
    BindOp: _bind,
    SelectOp: SelectOp(_bind, _pred),
    ProjectOp: ProjectOp(_bind, [("v", "w")]),
    JoinOp: JoinOp(_bind, SourceOp("t", "e"), _pred),
    DJoinOp: DJoinOp(_bind, UnitOp()),
    UnionOp: UnionOp(_bind, SourceOp("t", "e")),
    IntersectOp: IntersectOp(_bind, SourceOp("t", "e")),
    DistinctOp: DistinctOp(_bind),
    GroupOp: GroupOp(_bind, ["v"], "g"),
    SortOp: SortOp(_bind, ["v"], True),
    MapOp: MapOp(_bind, [("w", Const(2))]),
    TreeOp: TreeOp(_bind, _make, "answer"),
    FuseOp: FuseOp([TreeOp(_bind, _make, "answer")], "answer"),
    ScatterOp: ScatterOp(
        [_bind, SourceOp("s1", "d")], "s", HashPartition("v", 2),
        [Const("x")], "v",
    ),
    PushedOp: PushedOp("s", _bind, "select v", [("v", "w")]),
    BoundPlan: BoundPlan(SelectOp(_bind, _pred), ("x", 1)),
    Var: Var("v"),
    Const: Const(Param(0, str)),
    Cmp: _pred,
    BoolAnd: BoolAnd([_pred, Cmp("<", Var("w"), Const(2.5))]),
    BoolOr: BoolOr([_pred, Cmp("<", Var("w"), Const(2.5))]),
    BoolNot: BoolNot(_pred),
    FunCall: FunCall("contains", [Var("v"), Const("x")]),
    Param: Param(0, float),
    CElem: CElem("work", [_make], ("artwork", [Var("t")])),
    CLeaf: CLeaf("title", Var("t")),
    CValue: CValue(Var("t")),
    CGroup: CGroup([Var("a")], _make),
    CIterate: CIterate(_make, False, [Var("t")], True),
    CNest: CNest("g", _make),
    CRef: CRef("owner", "person", [Var("o")]),
    FVar: FVar("v"),
    FConst: FConst(1),
    FElem: FElem(LabelVar("l"), [FVar("v"), FRest("r")], "w"),
    FStar: FStar(FElem("work", [FVar("v")])),
    FRest: FRest("r"),
    FDescend: FDescend(FElem("work", [FVar("v")])),
    LabelVar: LabelVar("l"),
    LabelRegex: LabelRegex("ti.*"),
    PAny: PAny(),
    PAtomic: PAtomic("Int"),
    PConstLeaf: PConstLeaf("x"),
    PNode: PNode("work", [PAtomic("String"), PStar(PAny())], "set"),
    PStar: PStar(PAtomic("Int")),
    PUnion: PUnion([PAtomic("Int"), PRef("Artifact")]),
    PRef: PRef("Artifact"),
    FPat: FPat("node", "work", [FPat("leaf", "String")], bind="tree",
               inst="ground", ref=("o2", "Fclass"), collection="set",
               descend="any"),
    HashPartition: HashPartition("artist", 4),
    ArgSpec: ArgSpec("value", "o2", "Artifact"),
    OperationDecl: OperationDecl(
        "contains", "external", [ArgSpec.leaf("String")], ArgSpec.leaf("Bool")
    ),
    SelectionImplication: SelectionImplication("eq", "contains", "String", True),
}


def _repro_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
            yield from _repro_subclasses(sub)


NODE_CLASSES = sorted(set(_repro_subclasses(Node)), key=lambda c: c.__qualname__)
CONCRETE = [cls for cls in NODE_CLASSES if cls not in ABSTRACT]
#: A family root is a direct subclass of Node: what ``parts`` walks.
ROOTS = [cls for cls in NODE_CLASSES if Node in cls.__bases__]


def test_every_concrete_node_class_has_a_fixture():
    assert [cls.__qualname__ for cls in CONCRETE if cls not in FIXTURES] == []
    assert all(type(FIXTURES[cls]) is cls for cls in FIXTURES)


def test_class_names_are_unique():
    # A key starts with the class name, so two node classes of one name
    # would key alike.
    names = [cls.__name__ for cls in NODE_CLASSES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("cls", CONCRETE, ids=lambda cls: cls.__name__)
def test_identity_rebuild_is_the_node_itself(cls):
    node = FIXTURES[cls]
    for family in ROOTS:
        assert node.remade(family, lambda part: part) is node


@pytest.mark.parametrize(
    "cls", [cls for cls in CONCRETE if issubclass(cls, Plan)],
    ids=lambda cls: cls.__name__,
)
def test_plans_round_trip_their_children(cls):
    plan = FIXTURES[cls]
    rebuilt = plan.with_children(plan.children())
    assert rebuilt == plan
    assert hash(rebuilt) == hash(plan)


def test_a_rebuilt_plan_takes_its_new_inputs():
    plan = FIXTURES[JoinOp]
    rebuilt = plan.with_children([UnitOp(), plan.left])
    assert rebuilt.children() == (UnitOp(), plan.left)
    assert rebuilt.predicate is plan.predicate
    assert rebuilt != plan


def test_a_plan_derives_its_children_once():
    # The rewriter asks every unchanged subtree for its children after
    # each firing; the tuple is memoized, not re-gathered from the fields.
    plan = FIXTURES[JoinOp]
    assert plan.children() is plan.children()


def _alternatives(value, family):
    """Values unequal to *value* that a field holding it could take."""
    if isinstance(value, Node):
        return [
            other for other in FIXTURES.values()
            if isinstance(other, family) and other != value
        ]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [value + 1]
    if isinstance(value, str):
        # ...or another name of a closed vocabulary (atomic type names)
        return [value + "_", "String" if value == "Int" else "Int"]
    if isinstance(value, type):
        return [int if value is not int else str]
    if isinstance(value, tuple) and value:
        return [value[:-1], value + value[-1:]]
    if isinstance(value, Tab):
        return [Tab.from_tuples(value.columns, [("other",)])]
    return []


def _family(node):
    return next(root for root in ROOTS if isinstance(node, root))


@pytest.mark.parametrize(
    "cls", [cls for cls in CONCRETE if cls._fields], ids=lambda cls: cls.__name__,
)
def test_a_copy_with_one_field_changed_is_unequal(cls):
    node = FIXTURES[cls]
    values = [getattr(node, name) for name in cls._fields]
    changed = []
    for index, value in enumerate(values):
        family = _family(value) if isinstance(value, Node) else None
        for other in _alternatives(value, family):
            try:
                copy = cls(*values[:index], other, *values[index + 1:])
            except Exception:
                continue  # the constructor refuses this value
            if getattr(copy, cls._fields[index]) == value:
                continue  # the constructor normalized the change away
            assert copy != node, (cls._fields[index], other)
            changed.append(cls._fields[index])
            break
    assert changed, f"no field of {cls.__name__} could be changed"


@pytest.mark.parametrize("first, second", [
    (FIXTURES[UnionOp], IntersectOp(*FIXTURES[UnionOp].children())),
    (FIXTURES[BoolAnd], BoolOr(FIXTURES[BoolAnd].operands)),
    (FStar(FVar("v")), FDescend(FVar("v"))),
])
def test_classes_with_the_same_fields_are_unequal(first, second):
    assert first._fields == second._fields
    assert first != second


@pytest.mark.parametrize("cls", [Const, FConst, PConstLeaf])
def test_constants_of_different_types_are_unequal(cls):
    constants = [cls(1), cls(1.0), cls(True), cls("1")]
    for first, second in itertools.combinations(constants, 2):
        assert first != second
    assert len(set(constants)) == 4
    assert cls(1) == cls(1) and hash(cls(1)) == hash(cls(1))


#: Methods that ``Node`` derives; a class may override one only here.
DERIVED = ("_key", "__eq__", "__hash__", "children", "with_children",
           "substitute", "expressions")
ALLOWED = {
    ("LiteralOp", "_key"),  # a Tab is unhashable
    ("PushedOp", "children"),  # the fragment belongs to the wrapper
    ("PushedOp", "with_children"),
    ("Var", "substitute"),  # the one expression a mapping replaces
}


def test_no_node_class_hand_writes_what_node_derives():
    offenders = []
    for cls in NODE_CLASSES:
        for name, member in vars(cls).items():
            if not inspect.isfunction(member):
                continue  # a slot named ``children`` is a field
            derived = name in DERIVED or name.startswith("children_")
            if cls in ROOTS and name not in ("_key", "__eq__", "__hash__"):
                continue  # a family root spells the generic method
            if derived and (cls.__name__, name) not in ALLOWED:
                offenders.append(f"{cls.__module__}.{cls.__name__}.{name}")
    assert offenders == []


def test_slots_that_are_not_the_init_parameters_are_refused():
    with pytest.raises(TypeError, match="__init__ parameters"):

        class Swapped(Node):
            __slots__ = ("left", "right")

            def __init__(self, right, left) -> None:
                self.left, self.right = left, right

    with pytest.raises(TypeError, match="__init__ parameters"):

        class Extra(Node):
            __slots__ = ("name",)

            def __init__(self, name, flag=False) -> None:
                self.name = name


def test_private_slots_are_not_fields():
    class Memoized(Node):
        __slots__ = ("name", "_cache")

        def __init__(self, name) -> None:
            self.name = name

    node = Memoized("a")
    node._cache = "derived"
    assert Memoized._fields == ("name",)
    assert node == Memoized("a")
