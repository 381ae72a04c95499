"""Integration tests for the mediator: connect/import/load/query."""

import pytest

from repro.errors import MediatorError, UnknownDocumentError, ViewError
from repro import ExecutionPolicy, Mediator, O2Wrapper, WaisWrapper
from repro.core.algebra.operators import PushedOp, SourceOp
from repro.datasets import CulturalDataset, small_figure1_pair
from repro.yatl import parse_query

from tests.conftest import (
    Q1, Q2, VIEW1_YAT, build_mediator, transfer, wan_ms,
)

#: EXPERIMENTS E1, Q2 over seed-1 data at n=100: rounds -> (bytes, calls,
#: mediator rows, modeled WAN ms).  ``None`` is the naive plan.
ROUND_ABLATION = [
    (None, (54_120, 2, 824, 94.1)),
    ((1,), (54_120, 2, 619, 94.1)),
    ((1, 2), (42_589, 2, 377, 82.6)),
    ((1, 2, 3), (8_812, 2, 161, 48.8)),
]
#: The last prefix under ``serial()``: the paper's per-row bind join.
PER_ROW = (9_325, 21, 161, 429.3)


def ablation_counters(result):
    stats = result.report.stats
    return (*transfer(result), stats.mediator_rows, round(wan_ms(stats), 1))


class TestSetup:
    def test_connect_imports_via_xml(self, figure1_sources):
        database, _store = figure1_sources
        mediator = Mediator()
        interface = mediator.connect(O2Wrapper("o2artifact", database))
        # the imported interface is a re-parsed copy, not the wrapper's object
        wrapper_interface = O2Wrapper("o2artifact", database).interface()
        assert interface is not wrapper_interface
        assert set(interface.operations) == set(wrapper_interface.operations)

    def test_duplicate_source_rejected(self, figure1_sources):
        database, _store = figure1_sources
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        with pytest.raises(MediatorError):
            mediator.connect(O2Wrapper("o2artifact", database))

    def test_duplicate_document_rejected(self, figure1_sources):
        _database, store = figure1_sources
        mediator = Mediator()
        mediator.connect(WaisWrapper("w1", store))
        with pytest.raises(MediatorError):
            mediator.connect(WaisWrapper("w2", store))

    def test_load_program_registers_views(self, figure1_mediator):
        assert "artworks" in figure1_mediator.views

    def test_same_named_rules_fuse(self, figure1_mediator):
        # A second rule with the same name adds to the view via Skolem
        # fusion rather than clashing (paper, Section 2).
        from repro.core.algebra.operators import FuseOp

        figure1_mediator.load_program(VIEW1_YAT)
        assert isinstance(figure1_mediator.views.plan("artworks"), FuseOp)

    def test_unknown_document_reported(self, figure1_mediator):
        with pytest.raises(UnknownDocumentError):
            figure1_mediator.query("MAKE $t MATCH ghosts WITH x: $t")


class TestViewShadowing:
    def test_view_shadows_source_document_for_queries(self, figure1_mediator):
        naive, _opt, _trace = figure1_mediator.plan_query(
            parse_query(Q1), optimize=False
        )
        # the composed plan reads both underlying sources (view expanded)
        assert set(naive.sources()) == {"o2artifact", "xmlartwork"}

    def test_rule_body_sees_source_document(self, figure1_mediator):
        view_plan = figure1_mediator.views.plan("artworks")
        sources = {
            node.source for node in view_plan.walk() if isinstance(node, SourceOp)
        }
        assert sources == {"o2artifact", "xmlartwork"}


class TestQ1:
    def test_naive_and_optimized_agree(self, figure1_mediator):
        naive = figure1_mediator.query(Q1, optimize=False)
        optimized = figure1_mediator.query(Q1)
        assert naive.document() == optimized.document()

    def test_q1_answer(self, figure1_mediator):
        result = figure1_mediator.query(Q1)
        titles = [c.atom for c in result.document().children]
        assert titles == ["Nympheas"]

    def test_optimized_uses_single_source_call(self, figure1_mediator):
        result = figure1_mediator.query(Q1)
        assert result.report.stats.total_source_calls == 1
        assert "o2artifact" not in result.report.stats.bytes_transferred

    def test_optimized_transfers_less(self, cultural_mediator):
        naive = cultural_mediator.query(Q1, optimize=False)
        optimized = cultural_mediator.query(Q1)
        assert naive.document() == optimized.document()
        assert (
            optimized.report.stats.total_bytes_transferred
            < naive.report.stats.total_bytes_transferred
        )

    def test_trace_contains_paper_steps(self, figure1_mediator):
        result = figure1_mediator.query(Q1)
        names = result.trace.rule_names()
        assert "BindTreeElimination" in names
        assert "JoinBranchElimination" in names
        assert "CapabilityPushdown" in names


class TestQ2:
    def test_naive_and_optimized_agree(self, cultural_mediator):
        naive = cultural_mediator.query(Q2, optimize=False)
        optimized = cultural_mediator.query(Q2)
        assert naive.document() == optimized.document()

    def test_figure9_plan_shape(self, figure1_mediator):
        result = figure1_mediator.query(Q2)
        plan = result.plan
        pushed_sources = [
            node.source for node in plan.walk() if isinstance(node, PushedOp)
        ]
        # both fragments pushed; presence of a DJoin for information passing
        assert "xmlartwork" in pushed_sources
        from repro.core.algebra.operators import DJoinOp

        djoins = [node for node in plan.walk() if isinstance(node, DJoinOp)]
        assert djoins, plan.pretty()

    def test_contains_pushed_to_wais(self, figure1_mediator):
        result = figure1_mediator.query(Q2)
        text = result.plan.pretty()
        assert "contains" in text
        assert "Pushed@xmlartwork" in text

    def test_round_ablation(self):
        """Each added round preserves the answer and never raises the
        modeled WAN time."""
        mediator = build_mediator(
            *CulturalDataset(n_artifacts=100, seed=1).build()
        )
        reference = mediator.query(Q2, optimize=False).document()
        wan = []
        for rounds, expected in ROUND_ABLATION:
            if rounds is None:
                result = mediator.query(Q2, optimize=False)
            else:
                result = mediator.query(Q2, rounds=rounds)
            assert result.document() == reference, rounds
            assert ablation_counters(result) == expected, rounds
            wan.append(wan_ms(result.report.stats))
        assert wan == sorted(wan, reverse=True)
        per_row = mediator.query(
            Q2, rounds=(1, 2, 3), execution=ExecutionPolicy.serial()
        )
        assert per_row.document() == reference
        assert ablation_counters(per_row) == PER_ROW


class TestMediatorFallbacks:
    def test_contains_evaluates_at_mediator_when_not_pushed(self, figure1_mediator):
        # Disable optimization: the contains predicate (if any) would have
        # to run at the mediator.  Use a query with explicit contains.
        query = (
            'MAKE $t MATCH artworks WITH doc . work $w [ title . $t ] '
            'WHERE contains($w, "Giverny")'
        )
        result = figure1_mediator.query(query, optimize=False)
        titles = [c.atom for c in result.document().children]
        assert titles == ["Nympheas"]

    def test_execute_accepts_raw_plans(self, figure1_mediator):
        naive, optimized, _trace = figure1_mediator.plan_query(parse_query(Q1))
        report = figure1_mediator.execute(optimized)
        assert len(report.tab) == 1

    def test_query_result_repr(self, figure1_mediator):
        result = figure1_mediator.query(Q1)
        assert "rewrites" in repr(result)
        assert result.report.elapsed >= 0


class TestConsistencyAtScale:
    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_q1_consistent_across_sizes(self, n):
        database, store = CulturalDataset(n_artifacts=n, seed=n).build()
        mediator = build_mediator(database, store)
        naive = mediator.query(Q1, optimize=False)
        optimized = mediator.query(Q1)
        assert naive.document() == optimized.document()

    def test_q2_consistent_with_extra_unmatched_works(self):
        # extra works break the containment used by Q1's branch
        # elimination, but Q2 never relies on it.
        database, store = CulturalDataset(
            n_artifacts=15, extra_works=10, seed=5
        ).build()
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.connect(WaisWrapper("xmlartwork", store))
        mediator.load_program(VIEW1_YAT)
        naive = mediator.query(Q2, optimize=False)
        optimized = mediator.query(Q2)
        assert naive.document() == optimized.document()
