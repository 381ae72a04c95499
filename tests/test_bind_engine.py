"""The Bind engine against its oracle — the one matcher differential.

``BindEngine.tuples`` (twig join over indexed trees, compiled scan kernel
otherwise) must equal the recursive ``FilterMatcher`` projected onto the
filter's declaration order: the same cells, the *same node objects*, in
the same order, or the same ``BindError`` message.  The property runs
over generated (filter, tree) pairs, stratified by the tree-pattern
classes of the Hachicha & Darmont survey (path, twig, ``**``, rest,
label variable / regex, value predicates) crossed with the tree kinds
the engine's selector distinguishes (below the index gate, above it,
reference-bearing, shared-node).  The hand-written cases that used to
live in per-matcher parity tests are inputs to the same assertion.
"""

import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.algebra import engine as engine_module
from repro.core.algebra.bind import FilterMatcher
from repro.core.algebra.engine import (
    BindCounters,
    BindEngine,
    bind_engine,
    engine_cache_stats,
)
from repro.core.algebra.evaluator import Environment
from repro.errors import BindError
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    FRest,
    FStar,
    FVar,
    LabelRegex,
    LabelVar,
    felem,
)
from repro.model.indexes import MIN_INDEX_NODES
from repro.model.trees import DataNode, atom_leaf, collection_node, elem, ref
from tests.test_evaluator import FakeSource

LABELS = ("a", "b", "c")
ATOMS = ("x", "y", 1)

#: Identifier index of the reference-bearing trees: a chain, a plain
#: target, and (absent) a dangling identifier.
IDENTS = {
    "r1": elem("b", atom_leaf("c", "x"), atom_leaf("a", 1), ident="r1"),
    "r2": DataNode("b", ref_target="r1", ident="r2"),
}


# ---------------------------------------------------------------------------
# The assertion
# ---------------------------------------------------------------------------

def _identity(cell):
    """A comparison key that tells apart equal-valued but distinct nodes
    and equal-valued atoms of different types (``1`` / ``True``)."""
    if isinstance(cell, DataNode):
        return ("node", id(cell))
    if isinstance(cell, tuple):
        return tuple(_identity(item) for item in cell)
    return (type(cell).__name__, cell)


def assert_engine_equals_oracle(
    target, flt, idents=None, max_rows=None
) -> BindCounters:
    """Engine and oracle agree on *target*; returns what the engine ran.

    *max_rows* discards generated examples whose answer is a large
    cartesian product: they cost seconds and test nothing a small one
    does not."""
    variables = flt.variables()
    matcher = FilterMatcher(index=idents)
    try:
        if isinstance(target, tuple):
            trees = [t for t in target if isinstance(t, DataNode)]
            bindings = matcher.match_collection(trees, flt)
        else:
            trees = [target]
            bindings = matcher.match(target, flt)
    except BindError as error:
        expected = str(error)
    else:
        if max_rows is not None:
            assume(len(bindings) <= max_rows)
        expected = [
            tuple(_identity(binding[var]) for var in variables)
            for binding in bindings
        ]
    engine = BindEngine(flt)
    assert engine.variables == variables
    counters = BindCounters()
    deref = Environment({"s": FakeSource({}, idents)}).deref()
    try:
        got = [
            tuple(_identity(cell) for cell in row)
            for row in engine.tuples(target, deref, counters)
        ]
    except BindError as error:
        got = str(error)
    assert got == expected
    assert counters.twig + counters.scanned <= len(trees)
    return counters


# ---------------------------------------------------------------------------
# Generated trees: four kinds, one per side of the engine's selector
# ---------------------------------------------------------------------------

PLAIN = ATOMS + (None,)
WITH_REFERENCES = PLAIN + ("&r1", "&r2", "&dangling")


def _nodes(contents):
    """A forest as a flat pre-order list of ``(depth, label, content)``,
    content being an atom, ``None`` (an element) or ``"&ident"`` (a
    reference) — one cheap draw that shrinks to small trees."""
    return st.lists(
        st.tuples(
            st.integers(1, 4), st.sampled_from(LABELS), st.sampled_from(contents),
        ),
        min_size=1, max_size=12,
    )


def build(nodes) -> list:
    """Fresh top-level trees (no object shared with any other build)."""
    position = 0

    def siblings(depth):
        nonlocal position
        made = []
        while position < len(nodes) and nodes[position][0] >= depth:
            _depth, label, content = nodes[position]
            position += 1
            if content is None:
                made.append(elem(label, *siblings(depth + 1)))
            elif isinstance(content, str) and content.startswith("&"):
                made.append(ref(label, content[1:]))
            else:
                made.append(atom_leaf(label, content))
        return made

    return siblings(1)


def _padded(forests) -> list:
    """Fresh children cycling through *forests* up to the index gate."""
    children, size = [], 1
    for nodes in itertools.cycle(forests):
        children.extend(build(nodes))
        size += len(nodes)
        if size >= MIN_INDEX_NODES:
            return children


@st.composite
def trees(draw, kind):
    if kind == "small":
        return elem("a", *build(draw(_nodes(PLAIN))))
    contents = WITH_REFERENCES if kind == "references" else PLAIN
    children = _padded(draw(st.lists(_nodes(contents), min_size=1, max_size=3)))
    if kind == "references":
        children.insert(0, ref("b", "r2"))
    if kind == "shared":
        children.append(children[draw(st.integers(0, len(children) - 1))])
    return elem("a", *children)


# ---------------------------------------------------------------------------
# Generated filters: one stratum per pattern class
# ---------------------------------------------------------------------------

STRATA = {
    "path": frozenset(),
    "twig": frozenset({"branch", "star"}),
    "descend": frozenset({"branch", "star", "descend"}),
    "rest": frozenset({"branch", "star", "rest"}),
    "label": frozenset({"branch", "star", "label"}),
    "value": frozenset({"branch", "star", "const"}),
    "mixed": frozenset({"branch", "star", "descend", "rest", "label", "const"}),
}


@st.composite
def filters(draw, features):
    counter = itertools.count()

    def fresh():
        return f"v{next(counter)}"

    def element(depth, label=None):
        if label is None:
            label = draw(st.sampled_from(LABELS))
            if "label" in features and draw(st.integers(0, 2)) == 0:
                label = LabelVar(fresh()) if draw(st.booleans()) else LabelRegex("a|b")
        var = fresh() if draw(st.integers(0, 3)) == 0 else None
        count = draw(st.integers(0 if depth else 1, 3)) if "branch" in features else 1
        items = [item(depth + 1) for _ in range(count)]
        if "rest" in features and draw(st.booleans()):
            items.insert(draw(st.integers(0, len(items))), FRest(fresh()))
        return FElem(label, items, var)

    def leaf(kinds, depth):
        kind = draw(st.sampled_from(kinds))
        if kind == "elem":
            return element(depth)
        if kind == "const":
            return FConst(draw(st.sampled_from(ATOMS)))
        return FVar(fresh())

    def item(depth):
        kinds = ["var"] + ["elem"] * (2 if depth < 3 else 0)
        if "const" in features:
            kinds.append("const")
        if "descend" in features and draw(st.integers(0, 3)) == 0:
            made = FDescend(leaf(kinds, depth))
        else:
            made = leaf(kinds, depth)
        if "star" in features and draw(st.booleans()):
            made = FStar(made)
        return made

    root = element(0, label="a")
    if "descend" in features and draw(st.integers(0, 5)) == 0:
        root = FDescend(root)
    return root


TREE_KINDS = ("small", "indexed", "references", "shared")


@pytest.mark.parametrize("kind", TREE_KINDS)
@pytest.mark.parametrize("stratum", sorted(STRATA))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_engine_equals_oracle(stratum, kind, data):
    flt = data.draw(filters(STRATA[stratum]))
    tree = data.draw(trees(kind))
    counters = assert_engine_equals_oracle(tree, flt, IDENTS, max_rows=500)
    # An answer past the explosion guard raises (equally, checked above)
    # before either path is counted; the hand-written guard cases cover it.
    assume(counters.twig + counters.scanned)
    # The selector is observable: only a twig-fragment filter over an
    # indexable tree takes the twig join; everything else is scanned.
    twig_fragment = BindEngine(flt).describe() != "scan"
    if kind == "indexed" and twig_fragment:
        assert (counters.twig, counters.scanned) == (1, 0)
    else:
        assert (counters.twig, counters.scanned) == (0, 1)
        assert counters.fallbacks == (1 if twig_fragment else 0)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_collection_targets_match_in_order(data):
    flt = data.draw(filters(STRATA["mixed"]))
    target = tuple(
        data.draw(st.one_of(st.sampled_from(ATOMS), trees(kind)))
        for kind in data.draw(st.lists(st.sampled_from(TREE_KINDS), max_size=4))
    )
    assert_engine_equals_oracle(target, flt, IDENTS, max_rows=500)


# ---------------------------------------------------------------------------
# Hand-written inputs to the same assertion
# ---------------------------------------------------------------------------

def works_tree(n: int = 20, special_at: int = 10) -> DataNode:
    """A works collection big enough to index, with one special artist."""
    works = []
    for i in range(n):
        artist = "Picasso" if i == special_at else f"artist-{i % 7}"
        works.append(elem(
            "work",
            elem("artist", atom_leaf("name", artist)),
            atom_leaf("title", f"title-{i}"),
            atom_leaf("style", "cubist" if i % 2 else "impressionist"),
            atom_leaf("year", 1900 + (i % 5) * 10),
        ))
    return DataNode("works", children=works, collection="set")


def figure4_works() -> DataNode:
    return elem(
        "works",
        elem(
            "work",
            atom_leaf("artist", "Claude Monet"),
            atom_leaf("title", "Nympheas"),
            atom_leaf("style", "Impressionist"),
            atom_leaf("size", "21 x 61"),
            atom_leaf("cplace", "Giverny"),
        ),
        elem(
            "work",
            atom_leaf("artist", "Claude Monet"),
            atom_leaf("title", "Waterloo Bridge"),
            atom_leaf("style", "Impressionist"),
            atom_leaf("size", "29.2 x 46.4"),
            elem("history", atom_leaf("technique", "Oil on canvas")),
        ),
    )


def per_work(*items, var=None):
    return felem("works", FStar(felem("work", *items, var=var)))


#: Filters over ``figure4_works()`` (scanned) and ``works_tree()`` (twig
#: joined where the filter allows): every shape the old per-matcher
#: parity suites exercised.
WORKS_FILTERS = {
    "figure4": per_work(
        felem("artist", FVar("a")), felem("title", FVar("t")),
        felem("style", FVar("s")), felem("size", FVar("si")), FRest("fields"),
    ),
    "rest-in-the-middle": per_work(
        felem("artist", FVar("a")), FRest("others"), felem("title", FVar("t")),
    ),
    "element-variable": per_work(felem("title", FVar("t")), var="w"),
    "rest-only-with-variable": per_work(FRest("r"), var="node"),
    "bare-element": per_work(),
    "bound-childless-element": per_work(var="w"),
    "bound-childless-item": per_work(felem("title", var="t")),
    "constant-hit": per_work(
        felem("style", FConst("Impressionist")), felem("title", FVar("t")),
    ),
    "constant-miss": per_work(felem("style", FConst("Baroque"))),
    "missing-mandatory-item": per_work(felem("price", FVar("p"))),
    "nested-constant": per_work(
        felem("artist", felem("name", FConst("Picasso"))),
        felem("title", FVar("t")), FRest("rest"), var="w",
    ),
    "star-of-variable": per_work(FStar(FVar("any"))),
    "descend-into-label": per_work(FDescend(felem("technique", FVar("q")))),
    "descend-to-constant": per_work(
        FDescend(FConst("Picasso")), felem("title", FVar("t")), FRest("rest"),
    ),
    "descend-under-item": per_work(felem("history", FDescend(FVar("d")))),
    "descend-from-root": felem("works", FDescend(felem("title", FVar("t")))),
    "descend-root": FDescend(felem("name", FVar("n"))),
    "root-label-mismatch": felem("sculptures", FVar("v")),
    "label-variables": felem("works", FStar(FElem(
        LabelVar("w"), [FElem(LabelVar("field"), [FVar("v")]), FRest("r")],
    ))),
    "label-variable-with-constant": per_work(
        FElem(LabelVar("field"), [FConst(1920)]), FRest("rest"),
    ),
    "label-regex": per_work(
        FElem(LabelRegex("ti.*|art.*"), [FVar("v")]), FRest("r"),
    ),
    "top-level-star": FStar(FVar("x")),
    "top-level-rest": FRest("r"),
}


@pytest.mark.parametrize("name", sorted(WORKS_FILTERS))
def test_works_cases(name):
    flt = WORKS_FILTERS[name]
    assert assert_engine_equals_oracle(figure4_works(), flt).twig == 0
    twig_fragment = BindEngine(flt).describe() != "scan"
    counters = assert_engine_equals_oracle(works_tree(), flt)
    assert counters.twig == (1 if twig_fragment else 0)


def wide(count=1001) -> DataNode:
    return elem("doc", *[atom_leaf("k", i) for i in range(count)])


#: Shapes that need their own tree.
OTHER_CASES = {
    "cartesian-product": (
        elem("works", elem(
            "work", atom_leaf("artist", "Monet"), atom_leaf("artist", "Renoir"),
            atom_leaf("title", "Joint"), atom_leaf("title", "Effort"),
        )),
        per_work(felem("artist", FVar("a")), felem("title", FVar("t")), FRest("r")),
    ),
    "duplicate-labels-keep-document-order": (
        elem("doc", atom_leaf("k", "first"), atom_leaf("k", "second"),
             atom_leaf("k", "third")),
        felem("doc", felem("k", FVar("a")), felem("k", FVar("b")), FRest("r")),
    ),
    "atom-leaf-content-variable": (
        elem("works", atom_leaf("work", "just text")),
        felem("works", FStar(felem("work", FVar("content")))),
    ),
    "atom-leaf-content-constant-hit": (
        elem("works", atom_leaf("work", "just text")),
        felem("works", FStar(felem("work", FConst("just text")))),
    ),
    "atom-leaf-content-constant-miss": (
        elem("works", atom_leaf("work", "just text")),
        felem("works", FStar(felem("work", FConst("other")))),
    ),
    "deep-nesting": (
        elem("set", *[
            elem("class", elem("artifact", elem(
                "tuple", atom_leaf("title", title), atom_leaf("year", year),
            )))
            for title, year in (("Vase", "1910"), ("Bowl", "1920"))
        ]),
        felem("set", FStar(felem("class", felem("artifact", felem(
            "tuple", felem("title", FVar("t")), felem("year", FVar("y")),
        ))))),
    ),
    "direct-variable-items": (
        elem("pair", atom_leaf("k", "x"), atom_leaf("k", "y")),
        felem("pair", FVar("v"), FVar("w")),
    ),
    "collection-node": (
        collection_node("set", "set", [atom_leaf("value", i) for i in range(4)]),
        FElem("set", [FStar(felem("value", FVar("v")))]),
    ),
    "wide-element": (
        elem("rec", *[atom_leaf(f"f{i}", i) for i in range(60)]),
        felem("rec", felem("f3", FVar("a")), felem("f27", FVar("b")), FRest("rest")),
    ),
    "dangling-reference": (
        elem("owner", ref("painting", "gone")),
        felem("owner", FStar(FVar("x"))),
    ),
    "reference-followed": (
        elem("owner", ref("b", "r2")),
        felem("owner", felem("b", felem("c", FVar("t")))),
    ),
    # 1001 x 1001 alternatives trip the per-tree guard before any
    # product is enumerated; the message is the oracle's, byte for byte,
    # from the twig join (literal labels) and from the kernel (regex).
    "explosion-guard-twig": (
        wide(), felem("doc", felem("k", FVar("a")), felem("k", FVar("b"))),
    ),
    "explosion-guard-kernel": (
        wide(),
        felem("doc", FElem(LabelRegex("k"), [FVar("a")]), felem("k", FVar("b"))),
    ),
    # The guard runs only after every item matched: a failing later item
    # returns [] instead of raising.
    "failing-later-item-suppresses-the-guard": (
        wide(),
        felem("doc", felem("k", FVar("a")), felem("k", FVar("b")),
              felem("absent", FVar("c"))),
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_CASES))
def test_other_cases(name):
    tree, flt = OTHER_CASES[name]
    assert_engine_equals_oracle(tree, flt, IDENTS)


def test_explosion_guard_cases_really_raise():
    for name in ("explosion-guard-twig", "explosion-guard-kernel"):
        tree, flt = OTHER_CASES[name]
        with pytest.raises(BindError, match="for one tree"):
            BindEngine(flt).tuples(tree, lambda node: node, BindCounters())


def test_collection_guard_message_is_the_oracles(monkeypatch):
    # 4 works x 4 children: 16 bindings per tree, 48 across three.
    flt = FElem("works", [FStar(FElem("work", [FVar("w")], var="x"))])
    small, large = works_tree(4), works_tree(20)
    monkeypatch.setattr(engine_module, "MAX_MATCHES", 40)
    with pytest.raises(BindError) as from_oracle:
        FilterMatcher(max_matches=40).match_collection([small] * 3, flt)
    assert "across a collection" in str(from_oracle.value)
    for target in ((small, small, small), (large,) * 3, (small, large)):
        with pytest.raises(BindError) as from_engine:
            BindEngine(flt).tuples(target, lambda node: node, BindCounters())
        assert str(from_engine.value) == str(from_oracle.value)
    monkeypatch.setattr(engine_module, "MAX_MATCHES", 48)
    assert len(
        BindEngine(flt).tuples((small,) * 3, lambda node: node, BindCounters())
    ) == 48


def test_one_memo_entry_per_filter_whatever_the_fragment():
    twig_able, scan_only = WORKS_FILTERS["figure4"], FVar("v")
    before = engine_cache_stats()
    engines = [bind_engine(twig_able), bind_engine(scan_only)]
    assert [engine.describe() for engine in engines] == [
        "twig-join if indexed, else scan", "scan",
    ]
    assert bind_engine(twig_able) is engines[0]
    assert bind_engine(scan_only) is engines[1]
    after = engine_cache_stats()
    assert after["misses"] == before["misses"] + 2
    assert after["hits"] == before["hits"] + 2
