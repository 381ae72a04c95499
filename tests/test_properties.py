"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra.bind import match_filter
from repro.core.algebra.tab import Row, Tab, tab_to_xml, xml_to_tab
from repro.core.optimizer import OptimizerContext, split_nested_collection
from repro.core.algebra.evaluator import Environment, evaluate
from repro.core.algebra.operators import BindOp, LiteralOp
from repro.model.filters import FStar, FVar, felem
from repro.model.instantiation import is_instance, subsumes
from repro.model.patterns import PAny, PAtomic, PNode, PStar, PUnion
from repro.model.trees import DataNode, atom_leaf, elem
from repro.model.values import atom_type_name
from repro.model.xml_io import tree_to_xml, xml_to_tree
from repro.sources.wais.index import InvertedIndex, document_contains, tokenize
from repro.sources.wais.query import WaisQuery, WaisTerm
from tests.xml_oracle import oracle_tree_xml

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

labels = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)

atoms = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(alphabet=string.printable, max_size=20),
    st.booleans(),
)


@st.composite
def data_trees(draw, max_depth=3):
    label = draw(labels)
    if max_depth == 0 or draw(st.booleans()):
        return atom_leaf(label, draw(atoms))
    children = draw(
        st.lists(data_trees(max_depth=max_depth - 1), max_size=4)
    )
    collection = draw(st.sampled_from([None, "set", "bag", "list"]))
    return DataNode(label, children=children, collection=collection)


@st.composite
def type_patterns(draw, max_depth=2):
    if max_depth == 0:
        return draw(
            st.one_of(
                st.builds(PAtomic, st.sampled_from(["Int", "Bool", "Float", "String"])),
                st.just(PAny()),
            )
        )
    kind = draw(st.sampled_from(["node", "star", "union", "leaf"]))
    if kind == "leaf":
        return draw(type_patterns(max_depth=0))
    if kind == "star":
        return PStar(draw(type_patterns(max_depth=max_depth - 1)))
    if kind == "union":
        alternatives = draw(
            st.lists(type_patterns(max_depth=max_depth - 1), min_size=1, max_size=3)
        )
        return PUnion(alternatives)
    children = draw(
        st.lists(type_patterns(max_depth=max_depth - 1), max_size=3)
    )
    return PNode(draw(labels), children)


# ---------------------------------------------------------------------------
# XML round-trips
# ---------------------------------------------------------------------------

class TestXmlRoundTrips:
    @given(data_trees())
    @settings(max_examples=150, deadline=None)
    def test_tree_round_trip(self, tree):
        assert xml_to_tree(tree_to_xml(tree)) == tree

    @given(data_trees())
    @settings(max_examples=150, deadline=None)
    def test_tree_writer_matches_oracle(self, tree):
        assert tree_to_xml(tree) == oracle_tree_xml(tree)

    @given(st.lists(st.tuples(labels, atoms), min_size=0, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_tab_round_trip(self, pairs):
        columns = tuple(f"c{i}" for i in range(len(pairs)))
        row = Row(columns, tuple(atom_leaf(l, a) for l, a in pairs))
        tab = Tab(columns, [row])
        assert xml_to_tab(tab_to_xml(tab)) == tab


# ---------------------------------------------------------------------------
# Instantiation invariants
# ---------------------------------------------------------------------------

class TestInstantiationProperties:
    @given(data_trees())
    @settings(max_examples=100, deadline=None)
    def test_everything_instantiates_top(self, tree):
        assert is_instance(tree, PAny())

    @given(type_patterns())
    @settings(max_examples=100, deadline=None)
    def test_subsumption_reflexive(self, pattern):
        assert subsumes(pattern, pattern)

    @given(type_patterns())
    @settings(max_examples=100, deadline=None)
    def test_top_subsumes_everything(self, pattern):
        assert subsumes(PAny(), pattern)

    @given(data_trees())
    @settings(max_examples=100, deadline=None)
    def test_atom_leaves_instantiate_their_type(self, tree):
        for node in tree.descendants():
            if node.is_atom_leaf:
                pattern = PNode(node.label, [PAtomic(atom_type_name(node.atom))])
                assert is_instance(node, pattern)


# ---------------------------------------------------------------------------
# Bind invariants
# ---------------------------------------------------------------------------

class TestBindProperties:
    @given(data_trees())
    @settings(max_examples=100, deadline=None)
    def test_variable_always_matches_once(self, tree):
        rows = match_filter(tree, FVar("x"))
        assert len(rows) == 1

    @given(st.lists(st.tuples(labels, atoms), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_star_row_count_equals_child_count(self, pairs):
        doc = DataNode("doc", children=[atom_leaf(l, a) for l, a in pairs])
        rows = match_filter(doc, felem("doc", FStar(FVar("v"))))
        assert len(rows) == len(pairs)

    @given(st.lists(st.tuples(labels, atoms), min_size=1, max_size=5),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_rest_and_match_partition_children(self, pairs, pick):
        from repro.model.filters import FRest

        target_label = pairs[pick % len(pairs)][0]
        doc = DataNode("doc", children=[atom_leaf(l, a) for l, a in pairs])
        flt = felem("doc", felem(target_label, FVar("v")), FRest("rest"))
        for row in match_filter(doc, flt):
            rest_labels = [n.label for n in row["rest"]]
            assert target_label not in rest_labels
            assert len(row["rest"]) == sum(
                1 for l, _ in pairs if l != target_label
            )


# ---------------------------------------------------------------------------
# Algebraic equivalences on random data
# ---------------------------------------------------------------------------

@st.composite
def artifact_documents(draw):
    """Random documents shaped like the O2 export encoding."""
    n = draw(st.integers(min_value=0, max_value=5))
    classes = []
    for i in range(n):
        n_members = draw(st.integers(min_value=0, max_value=3))
        members = DataNode(
            "list",
            children=[
                DataNode(
                    "class",
                    children=[
                        DataNode(
                            "person",
                            children=[
                                DataNode(
                                    "tuple",
                                    children=[atom_leaf("name", draw(labels))],
                                    collection="set",
                                )
                            ],
                        )
                    ],
                )
                for _ in range(n_members)
            ],
            collection="list",
        )
        classes.append(
            DataNode(
                "class",
                children=[
                    DataNode(
                        "artifact",
                        children=[
                            DataNode(
                                "tuple",
                                children=[
                                    atom_leaf("title", draw(labels)),
                                    DataNode("owners", children=[members]),
                                ],
                                collection="set",
                            )
                        ],
                    )
                ],
                ident=f"a{i}",
            )
        )
    return DataNode("set", children=classes, collection="set")


class TestBindSplitProperty:
    @given(artifact_documents())
    @settings(max_examples=60, deadline=None)
    def test_djoin_split_preserves_rows(self, document):
        """Figure 7's Bind-split equivalence on random data."""
        flt = felem(
            "set",
            FStar(
                felem(
                    "class",
                    felem(
                        "artifact",
                        felem(
                            "tuple",
                            felem("title", FVar("t")),
                            felem(
                                "owners",
                                felem(
                                    "list",
                                    FStar(
                                        felem(
                                            "class",
                                            felem("person",
                                                  felem("tuple",
                                                        felem("name", FVar("n")))),
                                        )
                                    ),
                                ),
                            ),
                        ),
                    ),
                )
            ),
        )
        tab = Tab(("d",), [Row(("d",), (document,))])
        bind = BindOp(LiteralOp(tab), flt, on="d")
        context = OptimizerContext()
        split = split_nested_collection(bind, context)
        assert split is not None
        env = Environment({})
        original = {r._value_key() for r in evaluate(bind, env)}
        rewritten = {r._value_key() for r in evaluate(split, Environment({}))}
        assert original == rewritten


# ---------------------------------------------------------------------------
# Full-text index invariants
# ---------------------------------------------------------------------------

class TestIndexProperties:
    @given(st.lists(st.tuples(labels, st.text(max_size=30)), min_size=1, max_size=5),
           st.text(max_size=15))
    @settings(max_examples=100, deadline=None)
    def test_index_agrees_with_reference_semantics(self, fields, needle):
        document = DataNode(
            "work", children=[atom_leaf(l, text) for l, text in fields]
        )
        index = InvertedIndex()
        index.add_document("d1", document)
        indexed = "d1" in index.lookup(needle)
        assert indexed == document_contains(document, needle)

    @given(st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_tokenize_idempotent_words(self, text):
        for word in tokenize(text):
            assert tokenize(word) == (word,)
