"""Tests for the rewrite framework, the three-round planner, and costs."""

import pytest

from repro.core.algebra.expressions import (
    BoolAnd,
    Cmp,
    Const,
    Var,
    eq,
)
from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    JoinOp,
    LiteralOp,
    PushedOp,
    SelectOp,
    SourceOp,
)
from repro.core.algebra.tab import Row, Tab
from repro.core.optimizer import (
    CostHints,
    Optimizer,
    OptimizerContext,
    RewriteRule,
    RewriteTrace,
    estimate,
    estimate_cost,
    rewrite_fixpoint,
)
from repro.core.optimizer.rules import RewriteBudgetExceeded, apply_rules_once
from repro.datasets.cultural import small_figure1_pair
from repro.model.filters import FStar, FVar, felem
from repro.wrappers import O2Wrapper, WaisWrapper

from tests.conftest import Q1, Q2, build_mediator


class _CountingRule(RewriteRule):
    """Fires once per distinct Select constant, bumping it by one."""

    name = "Counting"

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def apply(self, plan, context):
        if isinstance(plan, SelectOp) and isinstance(plan.predicate, Cmp):
            value = plan.predicate.right.value
            if value < self.limit:
                return SelectOp(
                    plan.input,
                    Cmp(plan.predicate.op, plan.predicate.left, Const(value + 1)),
                )
        return None


def _select_plan(value=0):
    tab = Tab(("x",), [Row(("x",), (1,))])
    return SelectOp(LiteralOp(tab), Cmp(">", Var("x"), Const(value)))


class TestRewriteFramework:
    def test_fixpoint_reaches_limit_value(self):
        context = OptimizerContext()
        trace = RewriteTrace()
        result = rewrite_fixpoint(_select_plan(), [_CountingRule(3)], context, trace)
        assert result.predicate.right.value == 3
        assert len(trace) == 3
        assert trace.rule_names() == ("Counting",) * 3

    def test_budget_exceeded_raises(self):
        context = OptimizerContext()
        with pytest.raises(RewriteBudgetExceeded):
            rewrite_fixpoint(
                _select_plan(), [_CountingRule(10_000)], context, max_applications=5
            )

    def test_apply_once_reports_no_change(self):
        context = OptimizerContext()
        plan = _select_plan(100)
        result, changed = apply_rules_once(plan, [_CountingRule(3)], context)
        assert not changed
        assert result is plan

    def test_trace_summary_readable(self):
        context = OptimizerContext()
        trace = RewriteTrace()
        rewrite_fixpoint(_select_plan(), [_CountingRule(1)], context, trace)
        assert "Counting" in trace.summary()
        assert RewriteTrace().summary() == "(no rewrites applied)"

    def test_fresh_variables_unique(self):
        context = OptimizerContext()
        names = {context.fresh_variable("w") for _ in range(100)}
        assert len(names) == 100


class TestOptimizerRounds:
    def test_unknown_round_rejected(self, figure1_mediator):
        with pytest.raises(ValueError):
            figure1_mediator.query(Q1, rounds=(9,))

    def test_round_one_alone_never_pushes(self, figure1_mediator):
        result = figure1_mediator.query(Q2, rounds=(1,))
        assert not any(isinstance(n, PushedOp) for n in result.plan.walk())

    def test_round_two_pushes(self, figure1_mediator):
        result = figure1_mediator.query(Q2, rounds=(1, 2))
        assert any(isinstance(n, PushedOp) for n in result.plan.walk())
        assert not any(isinstance(n, DJoinOp) for n in result.plan.walk())

    def test_round_three_adds_information_passing(self, figure1_mediator):
        result = figure1_mediator.query(Q2, rounds=(1, 2, 3))
        assert any(isinstance(n, DJoinOp) for n in result.plan.walk())

    def test_all_round_subsets_agree_on_answers(self, cultural_mediator):
        reference = cultural_mediator.query(Q2, optimize=False).document()
        for rounds in [(1,), (2,), (3,), (1, 2), (2, 3), (1, 2, 3)]:
            result = cultural_mediator.query(Q2, rounds=rounds)
            assert result.document() == reference, rounds


class TestCostModel:
    def _plans(self):
        database, store = small_figure1_pair()
        flt = felem("works", FStar(felem("work", var="w")))
        bind = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        pushed = PushedOp("xmlartwork", bind)
        return bind, pushed

    def test_pushed_cheaper_than_full_transfer(self):
        bind, pushed = self._plans()
        hints = CostHints(document_sizes={"artworks": 100_000})
        assert estimate_cost(pushed, hints) < estimate_cost(bind, hints)

    def test_djoin_scales_with_outer_cardinality(self):
        bind, pushed = self._plans()
        left_small = LiteralOp(Tab(("k",), [Row(("k",), (1,))]))
        big_rows = [Row(("k",), (i,)) for i in range(100)]
        left_big = LiteralOp(Tab(("k",), big_rows))
        small = estimate(DJoinOp(left_small, pushed))
        big = estimate(DJoinOp(left_big, pushed))
        assert big.cost > small.cost

    def test_selection_reduces_cardinality(self):
        bind, _ = self._plans()
        selected = SelectOp(bind, Cmp("=", Var("w"), Const("x")))
        assert estimate(selected).rows < estimate(bind).rows

    def test_hints_override_defaults(self):
        bind, _ = self._plans()
        cheap = CostHints(document_sizes={"artworks": 10})
        expensive = CostHints(document_sizes={"artworks": 1_000_000})
        assert estimate_cost(bind, cheap) < estimate_cost(bind, expensive)

    def test_optimized_q2_estimated_cheaper(self, figure1_mediator):
        naive, optimized, _trace = figure1_mediator.plan_query(
            parse_query_q2(), optimize=True
        )
        hints = CostHints(document_sizes={"artworks": 50_000, "artifacts": 50_000})
        assert estimate_cost(optimized, hints) < estimate_cost(naive, hints)


def parse_query_q2():
    from repro.yatl import parse_query

    return parse_query(Q2)


class TestCostHintsSelectivity:
    def test_one_conjunct_keeps_the_default_fraction(self):
        hints = CostHints(default_selectivity=0.25)
        predicate = eq(Var("s"), Const("whatever"))
        assert hints.predicate_selectivity(predicate) == pytest.approx(0.25)

    def test_conjunction_multiplies(self):
        hints = CostHints(default_selectivity=0.5)
        predicate = BoolAnd(
            [eq(Var("x"), Const("a")), Cmp(">", Var("y"), Const(1))]
        )
        assert hints.predicate_selectivity(predicate) == pytest.approx(0.25)

    def test_capped_at_one(self):
        hints = CostHints(default_selectivity=1.5)
        predicate = eq(Var("x"), Const("a"))
        assert hints.predicate_selectivity(predicate) == 1.0
