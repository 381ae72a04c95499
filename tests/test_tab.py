"""Unit tests for the Tab structure and its XML wire format."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AlgebraError, UnknownVariableError, XmlFormatError
from repro.core.algebra.tab import (
    Row,
    Tab,
    tab_serialized_size,
    tab_to_xml,
    xml_to_tab,
)
from repro.model.filters import MISSING
from repro.model.trees import atom_leaf, elem, ref
from tests.xml_oracle import oracle_tab_xml


def assert_matches_oracle(tab):
    """The writer prints the ElementTree oracle's text, and the size is
    that text's UTF-8 length."""
    expected = oracle_tab_xml(tab)
    assert tab_to_xml(tab) == expected
    assert tab_serialized_size(tab) == len(expected.encode("utf-8"))


@pytest.fixture
def tab():
    columns = ("t", "a", "fields")
    rows = [
        Row(columns, ("Nympheas", "Monet", (atom_leaf("cplace", "Giverny"),))),
        Row(columns, ("Bridge", "Monet", ())),
    ]
    return Tab(columns, rows)


ATOMS = st.one_of(
    st.booleans(),
    st.integers(),
    st.sampled_from([2**53 + 1, -(2**53) - 1, 0]),
    st.floats(allow_nan=False),
    st.text(max_size=12),  # XML-unsafe characters and \x00 included
    st.sampled_from(["", "a & b", '<"q">', "\r\n\t", "é€😀"]),
)
LABELS = st.sampled_from(["w", "title", "coll", "é"])
TREES = st.recursive(
    st.one_of(
        st.builds(atom_leaf, LABELS, ATOMS),
        st.builds(ref, LABELS, st.sampled_from(["o1", "a&b"])),
    ),
    lambda children: st.builds(
        lambda label, kids: elem(label, *kids), LABELS,
        st.lists(children, max_size=3),
    ),
    max_leaves=5,
)
CELLS = st.recursive(
    st.one_of(ATOMS, TREES, st.just(MISSING)),
    lambda items: st.lists(items, max_size=3).map(tuple),
    max_leaves=6,
)


@st.composite
def generated_tabs(draw):
    columns = tuple(draw(st.lists(
        st.sampled_from(["a", "t", "y'", "é", "x&y"]), max_size=3, unique=True
    )))
    length = draw(st.integers(0, 4))
    data = [
        draw(st.lists(CELLS, min_size=length, max_size=length))
        for _ in columns
    ]
    return Tab.from_columns(columns, data, length)


TABS = generated_tabs()


class TestRow:
    def test_lookup(self, tab):
        assert tab.rows[0]["t"] == "Nympheas"

    def test_unknown_column_raises(self, tab):
        with pytest.raises(UnknownVariableError):
            tab.rows[0]["missing"]

    def test_get_with_default(self, tab):
        assert tab.rows[0].get("missing", 7) == 7

    def test_arity_checked(self):
        with pytest.raises(AlgebraError):
            Row(("a", "b"), (1,))

    def test_extended(self, tab):
        row = tab.rows[0].extended(("x",), (1,))
        assert row["x"] == 1
        assert row["t"] == "Nympheas"

    def test_projected_reorders(self, tab):
        row = tab.rows[0].projected(("a", "t"))
        assert row.columns == ("a", "t")
        assert row.cells == ("Monet", "Nympheas")

    def test_renamed(self, tab):
        row = tab.rows[0].renamed({"t": "title"})
        assert row["title"] == "Nympheas"

    def test_value_equality_includes_trees(self):
        a = Row(("x",), (elem("w", atom_leaf("t", 1)),))
        b = Row(("x",), (elem("w", atom_leaf("t", 1)),))
        assert a == b
        assert hash(a) == hash(b)

    def test_as_dict(self, tab):
        assert tab.rows[1].as_dict()["t"] == "Bridge"


class TestTab:
    def test_column_consistency_enforced(self):
        with pytest.raises(AlgebraError):
            Tab(("a",), [Row(("b",), (1,))])

    def test_from_dicts_fills_missing(self):
        tab = Tab.from_dicts(("a", "b"), [{"a": 1}])
        assert tab.rows[0]["b"] is MISSING

    def test_project(self, tab):
        projected = tab.project(("t",))
        assert projected.columns == ("t",)
        assert len(projected) == 2

    def test_rename(self, tab):
        renamed = tab.rename({"t": "title"})
        assert "title" in renamed.columns

    def test_distinct(self):
        rows = [Row(("a",), (1,)), Row(("a",), (1,)), Row(("a",), (2,))]
        assert len(Tab(("a",), rows).distinct()) == 2

    def test_pretty_truncates(self):
        tab = Tab(("a",), [Row(("a",), (i,)) for i in range(30)])
        assert "more rows" in tab.pretty(limit=5)


class TestTabWireFormat:
    def test_round_trip(self, tab):
        assert xml_to_tab(tab_to_xml(tab)) == tab

    def test_round_trip_missing(self):
        tab = Tab.from_dicts(("a", "b"), [{"a": 1}])
        parsed = xml_to_tab(tab_to_xml(tab))
        assert parsed.rows[0]["b"] is MISSING

    def test_round_trip_nested_collection_of_trees(self, tab):
        parsed = xml_to_tab(tab_to_xml(tab))
        fields = parsed.rows[0]["fields"]
        assert isinstance(fields, tuple)
        assert fields[0].label == "cplace"

    def test_round_trip_atom_types(self):
        tab = Tab(("x", "y", "z"), [Row(("x", "y", "z"), (1, 2.5, True))])
        parsed = xml_to_tab(tab_to_xml(tab))
        assert parsed.rows[0].cells == (1, 2.5, True)

    def test_serialized_size(self, tab):
        assert_matches_oracle(tab)

    @pytest.mark.parametrize(
        "tab",
        [
            Tab((), []),
            Tab(("a",), []),
            Tab(("a", "b"), [Row(("a", "b"), ("x & y", MISSING))]),
            Tab(("a",), [Row(("a",), ((),))]),  # empty nested collection
            Tab(("a",), [Row(("a",), ((1, "two", 3.0),))]),
            Tab(
                ("t",),
                [Row(("t",), (elem("doc", atom_leaf("x", "a<b")),))],
            ),
            Tab(("t",), [Row(("t",), ("\x00binary",))]),
            Tab.from_columns(('a"b&c\nd\te',), [(1, MISSING)]),
            Tab.from_columns(("t",), [(elem("coll", atom_leaf("x", 1)),)]),
            Tab.from_columns(("é€",), [("ü", (elem("coll"),))]),
        ],
    )
    def test_serialized_size_matches_encoder_on_edge_cases(self, tab):
        assert_matches_oracle(tab)

    @given(tab=st.deferred(lambda: TABS))
    @example(tab=Tab.from_columns((), (), 3))
    @settings(max_examples=60, deadline=None)
    def test_serialized_size_matches_encoder(self, tab):
        # The writer and its accounting against the oracle, over generated
        # Tabs; the cases above are its pinned examples.
        assert_matches_oracle(tab)

    def test_empty_tab(self):
        tab = Tab((), [])
        assert xml_to_tab(tab_to_xml(tab)) == tab

    def test_malformed_rejected(self):
        with pytest.raises(XmlFormatError):
            xml_to_tab("<nottab/>")
