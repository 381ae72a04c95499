"""Unit tests for the XML wire format of trees and patterns."""

import pytest

from repro.errors import XmlFormatError
from repro.model.patterns import (
    PAny,
    PAtomic,
    PConstLeaf,
    PNode,
    PRef,
    PStar,
    PUnion,
)
from repro.model.trees import DataNode, atom_leaf, collection_node, elem, ref
from repro.model.xml_io import (
    pattern_to_xml,
    serialized_size,
    tree_to_xml,
    xml_to_pattern,
    xml_to_tree,
)
from repro.server.workload import PORTAL
from tests.conftest import Q1, Q2, build_mediator
from tests.xml_oracle import oracle_tree_xml

# '"', '&', '\n' and '\t': what attribute escaping must turn into references.
UNSAFE_ATTR = 'a"b&c\nd\te'


def assert_matches_oracle(tree):
    """The writer prints the ElementTree oracle's text, and the size is
    that text's UTF-8 length."""
    expected = oracle_tree_xml(tree)
    assert tree_to_xml(tree) == expected
    assert serialized_size(tree) == len(expected.encode("utf-8"))


@pytest.fixture
def work():
    return elem(
        "work",
        atom_leaf("artist", "Claude Monet"),
        atom_leaf("year", 1897),
        atom_leaf("price", 2.5),
        atom_leaf("sold", True),
        collection_node("list", "owners", [ref("class", "p1")]),
        ident="a1",
    )


class TestTreeRoundTrip:
    def test_round_trip_preserves_value(self, work):
        assert xml_to_tree(tree_to_xml(work)) == work

    def test_round_trip_preserves_ident(self, work):
        parsed = xml_to_tree(tree_to_xml(work))
        assert parsed.ident == "a1"

    def test_round_trip_preserves_collection_kind(self, work):
        parsed = xml_to_tree(tree_to_xml(work))
        assert parsed.child("owners").collection == "list"

    def test_round_trip_preserves_atom_types(self, work):
        parsed = xml_to_tree(tree_to_xml(work))
        assert parsed.child("year").atom == 1897
        assert parsed.child("price").atom == 2.5
        assert parsed.child("sold").atom is True
        assert parsed.child("artist").atom == "Claude Monet"

    def test_reference_round_trip(self, work):
        parsed = xml_to_tree(tree_to_xml(work))
        owners = parsed.child("owners")
        assert owners.children[0].ref_target == "p1"

    def test_untyped_text_becomes_string_atom(self):
        parsed = xml_to_tree("<title>Nympheas</title>")
        assert parsed.atom == "Nympheas"

    def test_malformed_xml_raises(self):
        with pytest.raises(XmlFormatError):
            xml_to_tree("<broken")

    def test_bad_typed_atom_raises(self):
        with pytest.raises(XmlFormatError):
            xml_to_tree('<year type="Int">not a number</year>')

    def test_serialized_size_is_positive_bytes(self, work):
        assert_matches_oracle(work)
        assert serialized_size(work) > 50

    @pytest.mark.parametrize(
        "tree",
        [
            atom_leaf("t", 'a & b < c > d "quoted"'),
            atom_leaf("t", "tabs\tand\nnewlines\r"),
            atom_leaf("t", "control\x00chars"),  # forces base64 encoding
            atom_leaf("t", ""),  # falsy text takes the short form
            atom_leaf("t", "ünïcødé £€"),
            atom_leaf("t", True),
            atom_leaf("t", -0.125),
            elem("empty"),
            ref("painting", "p1"),
            elem("outer", elem("inner", atom_leaf("x", 1)), ident="o1"),
            collection_node(
                "list", "items", [atom_leaf("value", i) for i in range(3)],
                ident="c1",
            ),
            elem("e", atom_leaf("x", 1), ident=UNSAFE_ATTR),
            ref("painting", UNSAFE_ATTR),
            DataNode("c", collection=UNSAFE_ATTR),
        ],
    )
    def test_serialized_size_matches_encoder_on_edge_cases(self, tree):
        # Escaping, base64 fallback, short empty elements, attributes.
        assert_matches_oracle(tree)

    @pytest.mark.parametrize("text", [Q1, Q2, PORTAL], ids=["q1", "q2", "portal"])
    def test_answers_match_the_oracle(self, cultural_sources, text):
        answer = build_mediator(*cultural_sources).query(text).document()
        assert_matches_oracle(answer)


class TestPatternRoundTrip:
    @pytest.mark.parametrize(
        "pattern",
        [
            PAny(),
            PAtomic("Int"),
            PConstLeaf("Giverny"),
            PConstLeaf(42),
            PRef("Fclass"),
            PStar(PAtomic("String")),
            PUnion([PAtomic("Int"), PAtomic("Bool")]),
            PNode("tuple", [PStar(PNode("Symbol", [PAtomic("Int")]))],
                  collection="set"),
        ],
        # Fixed ids: ids derived from ``hash(p)`` changed with the
        # per-process string hash seed, so test names differed run to run.
        ids=[
            "PAny31", "PAtomic90", "PConstLeaf46", "PConstLeaf72",
            "PRef77", "PStar71", "PUnion37", "PNode96",
        ],
    )
    def test_round_trip(self, pattern):
        assert xml_to_pattern(pattern_to_xml(pattern)) == pattern

    def test_missing_label_rejected(self):
        with pytest.raises(XmlFormatError):
            xml_to_pattern("<leaf/>")

    def test_star_arity_enforced(self):
        with pytest.raises(XmlFormatError):
            xml_to_pattern('<star><leaf label="Int"/><leaf label="Int"/></star>')

    def test_unknown_element_rejected(self):
        with pytest.raises(XmlFormatError):
            xml_to_pattern("<mystery/>")
