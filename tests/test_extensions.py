"""Integration tests for language/system features beyond the core figures.

Covers the descendant axis (generalized path expressions), schema-method
pushdown through the mediator, multi-rule programs and views over views,
the Z39.50 retrievable restriction seen through the wrapper, and the
recorded native queries.
"""

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.core.algebra.operators import PushedOp
from repro.datasets import CulturalDataset, VIEW1_YAT, small_figure1_pair
from repro.model.filters import FDescend
from repro.sources.wais.store import WaisStore
from repro.yatl import parse_filter

from tests.conftest import build_mediator


class TestDescendantAxis:
    def test_parses_to_fdescend(self):
        flt = parse_filter("doc .. technique . $x")
        assert isinstance(flt.children[0], FDescend)

    def test_finds_deep_content(self, figure1_mediator):
        result = figure1_mediator.query(
            "MAKE $x MATCH artworks WITH doc .. technique . $x"
        )
        values = [c.atom for c in result.document().children]
        assert values == ["Oil on canvas"]

    def test_spaced_dots_equivalent(self):
        assert parse_filter("a .. b") == parse_filter("a . . b")

    def test_descendant_axis_not_pushable_to_wais(self, figure1_sources):
        _db, store = figure1_sources
        matcher = WaisWrapper("xmlartwork", store).interface().matcher()
        flt = parse_filter("works .. technique . $x")
        verdict = matcher.bind_admissible(flt)
        assert not verdict

    def test_descendant_under_view_composition(self, figure1_mediator):
        # navigating the view with .. exercises Bind over the Tree result
        result = figure1_mediator.query(
            "MAKE $t MATCH artworks WITH doc . work [ title . $t, more .. technique . $x ]"
        )
        titles = [c.atom for c in result.document().children]
        assert titles == ["Waterloo Bridge"]


class TestMethodPushdown:
    """Schema methods (Section 4's current_price) through the mediator."""

    def query_text(self, bound):
        return f"""
        MAKE doc [ * item [ title: $t ] ]
        MATCH artifacts WITH set *class $x : artifact:
            tuple [ title: $t, year: $y ]
        WHERE current_price($x) > {bound}
        """

    def test_method_predicate_pushed_to_o2(self, figure1_mediator):
        result = figure1_mediator.query(self.query_text(2_000_000.0))
        titles = [i.child("title").atom for i in result.document().children]
        assert titles == ["Nympheas"]  # 2.0M * 1.1 = 2.2M > 2.0M
        natives = result.report.stats.distinct_native_queries()
        assert any("current_price()" in native for _s, native in natives)

    def test_method_result_matches_source_semantics(self, figure1_mediator):
        # bound above every premium price: nothing survives
        result = figure1_mediator.query(self.query_text(99_000_000.0))
        assert result.document().children == ()

    def test_method_unavailable_at_mediator(self, figure1_mediator):
        # without optimization the method cannot be evaluated: the plan
        # keeps a FunCall the mediator has no implementation for
        from repro.errors import EvaluationError

        with pytest.raises(EvaluationError):
            figure1_mediator.query(self.query_text(2_000_000.0), optimize=False)


class TestMultiRulePrograms:
    PROGRAM = VIEW1_YAT + """
    impressionists() :=
    MAKE doc [ * work [ title: $t, artist: $a ] ]
    MATCH artworks WITH doc . work [ title . $t, artist . $a, style . $s ]
    WHERE $s = "Impressionist"
    """

    def test_view_over_view(self, figure1_sources):
        database, store = figure1_sources
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.connect(WaisWrapper("xmlartwork", store))
        mediator.declare_containment("artworks", "artifacts")
        names = mediator.load_program(self.PROGRAM)
        assert names == ("artworks", "impressionists")
        result = mediator.query(
            "MAKE $t MATCH impressionists WITH doc . work [ title . $t ]"
        )
        titles = sorted(c.atom for c in result.document().children)
        assert titles == ["Nympheas", "Waterloo Bridge"]

    def test_view_over_view_matches_naive(self, figure1_sources):
        database, store = figure1_sources
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.connect(WaisWrapper("xmlartwork", store))
        mediator.declare_containment("artworks", "artifacts")
        mediator.load_program(self.PROGRAM)
        text = "MAKE $t MATCH impressionists WITH doc . work [ title . $t ]"
        assert (
            mediator.query(text).document()
            == mediator.query(text, optimize=False).document()
        )


class TestRetrievableRestriction:
    """Z39.50's retrieve/query split, observed through the wrapper."""

    def test_restricted_store_prunes_answers(self):
        from repro.model.trees import atom_leaf, elem

        store = WaisStore(retrievable_fields=("artist", "title", "style", "size"))
        store.add(
            elem(
                "work",
                atom_leaf("artist", "Claude Monet"),
                atom_leaf("title", "Nympheas"),
                atom_leaf("style", "Impressionist"),
                atom_leaf("size", "21 x 61"),
                atom_leaf("cplace", "Giverny"),
            )
        )
        mediator = Mediator()
        mediator.connect(WaisWrapper("xmlartwork", store))
        # cplace is queryable (it is indexed) but never retrieved
        hit = mediator.query(
            "MAKE $t MATCH artworks WITH works *work [ title . $t ]"
        )
        assert [c.atom for c in hit.document().children] == ["Nympheas"]
        pruned = mediator.query(
            "MAKE $c MATCH artworks WITH works *work [ cplace . $c ]"
        )
        assert pruned.document().children == ()


class TestNativeQueryRecording:
    def test_q2_records_wais_and_o2_queries(self, cultural_mediator):
        from repro.datasets import Q2

        result = cultural_mediator.query(Q2)
        natives = result.report.stats.native_queries
        sources = {source for source, _n in natives}
        assert sources == {"xmlartwork", "o2artifact"}
        wais_queries = [n for s, n in natives if s == "xmlartwork"]
        # the scoped predicate (free-WAIS-sf structured field) is preferred
        assert wais_queries[0] == "wais-search style=(Impressionist)"

    def test_distinct_preserves_order(self):
        from repro.core.algebra.stats import ExecutionStats

        stats = ExecutionStats()
        stats.record_native("a", "q1")
        stats.record_native("b", "q2")
        stats.record_native("a", "q1")
        assert stats.distinct_native_queries() == [("a", "q1"), ("b", "q2")]
