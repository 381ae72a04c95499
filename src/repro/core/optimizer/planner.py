"""The three-round heuristic optimizer (paper, Sections 5 and 6).

"The implementation of the optimizer is ... based on heuristics and a
simple linear search strategy consisting of the three rewriting rounds
presented in last section":

1. **Composition & simplification** — eliminate Bind–Tree frontiers,
   push selections and projections, eliminate join branches under
   declared containments, merge Bind chains, then simplify Binds with
   type information where the query does not read what they bind
   (Figures 7 and 8);
2. **Capability-based rewriting** — apply declared equivalences and push
   admissible fragments to their sources (Figure 9, first part);
3. **Information passing** — turn equi-joins over pushed fragments into
   bind joins (Figure 9, second part), then narrow every pushed fragment
   to what the query reads.

Each round runs its rule set to a fixpoint; rounds run once, in order.
Rounds one and three end with one demand-narrowing pass over the whole
plan (:mod:`repro.core.optimizer.demand`).
:class:`Optimizer` records every application in a
:class:`~repro.core.optimizer.rules.RewriteTrace` so callers can print
the full derivation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.algebra.operators import Plan
from repro.core.optimizer.bind_simplify import LabelVarExpansionRule
from repro.core.optimizer.bind_split import MergeBindChainRule
from repro.core.optimizer.bind_tree import BindTreeEliminationRule
from repro.core.optimizer.capabilities import (
    CapabilityPushdownRule,
    EquivalenceInsertionRule,
)
from repro.core.optimizer.demand import DemandNarrowingRule
from repro.core.optimizer.info_passing import BindJoinRule
from repro.core.optimizer.pushdown import (
    DropNoopProjectRule,
    JoinBranchEliminationRule,
    ProjectComposeRule,
    SelectPushdownRule,
)
from repro.core.optimizer.rules import (
    OptimizerContext,
    RewriteRule,
    RewriteTrace,
    rewrite_fixpoint,
)
from repro.core.optimizer.sharding import ShardExpansionRule


def round_one_rules() -> List[RewriteRule]:
    """Composition elimination and classical/type-driven simplification."""
    return [
        BindTreeEliminationRule(),
        ProjectComposeRule(),
        SelectPushdownRule(),
        JoinBranchEliminationRule(),
        LabelVarExpansionRule(),
        MergeBindChainRule(),
        DropNoopProjectRule(),
    ]


def round_two_rules() -> List[RewriteRule]:
    """Capability-based rewriting (and shard expansion, which must see
    the Bind chain before pushdown replaces it with a Pushed fragment)."""
    return [
        ShardExpansionRule(),
        EquivalenceInsertionRule(),
        CapabilityPushdownRule(),
    ]


def round_three_rules() -> List[RewriteRule]:
    """Information passing between sources."""
    return [
        BindJoinRule(),
    ]


class Optimizer:
    """The linear three-round strategy over an :class:`OptimizerContext`."""

    def __init__(self, context: OptimizerContext) -> None:
        self.context = context

    def optimize(
        self,
        plan: Plan,
        rounds: Sequence[int] = (1, 2, 3),
        trace: Optional[RewriteTrace] = None,
    ) -> Tuple[Plan, RewriteTrace]:
        """Run the selected rounds (default: all three, in order).

        ``rounds`` exists for the ablation benchmarks: passing ``(1,)``
        or ``(1, 2)`` measures what each round contributes.
        """
        if trace is None:
            trace = RewriteTrace()
        rule_sets = {
            1: round_one_rules(),
            2: round_two_rules(),
            3: round_three_rules(),
        }
        for round_number in rounds:
            rules = rule_sets.get(round_number)
            if rules is None:
                raise ValueError(f"unknown optimization round: {round_number}")
            plan = rewrite_fixpoint(plan, rules, self.context, trace)
            if round_number in (1, 3):
                # Once, at the root: demand flows top-down over the whole
                # plan, and fragments can only be narrowed once round
                # three has built the DJoins whose keys they must return.
                narrowing = DemandNarrowingRule()
                narrowed = narrowing.apply(plan, self.context)
                if narrowed is not None:
                    trace.record(narrowing, plan, narrowed)
                    plan = narrowed
        return plan, trace
