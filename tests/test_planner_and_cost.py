"""Tests for the rewrite framework and the three-round planner."""

import pytest

from repro.core.algebra.expressions import Cmp, Const, Var
from repro.core.algebra.operators import DJoinOp, LiteralOp, PushedOp, SelectOp
from repro.core.algebra.tab import Row, Tab
from repro.core.optimizer import (
    OptimizerContext,
    RewriteRule,
    RewriteTrace,
    rewrite_fixpoint,
)
from repro.core.optimizer.rules import RewriteBudgetExceeded, apply_rules_once

from tests.conftest import Q1, Q2


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
