"""The three-round heuristic optimizer (paper, Section 5)."""

from repro.core.optimizer.bind_simplify import (
    LabelVarExpansionRule,
    ProjectDrivenBindSimplifyRule,
)
from repro.core.optimizer.bind_split import (
    REF_IS,
    MergeBindChainRule,
    navigation_to_extent_join,
    ref_is,
    split_below_root,
    split_nested_collection,
)
from repro.core.optimizer.bind_tree import BindTreeEliminationRule
from repro.core.optimizer.capabilities import (
    CapabilityPushdownRule,
    EquivalenceInsertionRule,
)
from repro.core.optimizer.cost import (
    CostHints,
    Estimate,
    estimate,
    estimate_cost,
)
from repro.core.optimizer.info_passing import BindJoinRule
from repro.core.optimizer.planner import (
    Optimizer,
    optimize,
    round_one_rules,
    round_three_rules,
    round_two_rules,
)
from repro.core.optimizer.pushdown import (
    DropNoopProjectRule,
    JoinBranchEliminationRule,
    ProjectComposeRule,
    SelectPushdownRule,
)
from repro.core.optimizer.tree_decompose import (
    TreeDecompositionRule,
    decompose_tree,
)
from repro.core.optimizer.rules import (
    OptimizerContext,
    RewriteRule,
    RewriteTrace,
    apply_rules_once,
    rewrite_fixpoint,
)

__all__ = [
    "BindJoinRule",
    "BindTreeEliminationRule",
    "CapabilityPushdownRule",
    "CostHints",
    "DropNoopProjectRule",
    "EquivalenceInsertionRule",
    "Estimate",
    "JoinBranchEliminationRule",
    "LabelVarExpansionRule",
    "MergeBindChainRule",
    "Optimizer",
    "OptimizerContext",
    "ProjectComposeRule",
    "ProjectDrivenBindSimplifyRule",
    "REF_IS",
    "RewriteRule",
    "RewriteTrace",
    "SelectPushdownRule",
    "TreeDecompositionRule",
    "decompose_tree",
    "apply_rules_once",
    "estimate",
    "estimate_cost",
    "navigation_to_extent_join",
    "optimize",
    "ref_is",
    "rewrite_fixpoint",
    "round_one_rules",
    "round_three_rules",
    "round_two_rules",
    "split_below_root",
    "split_nested_collection",
]
