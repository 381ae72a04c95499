"""The rewrite-rule framework of the optimizer.

The paper's optimizer is "based on heuristics and a simple linear search
strategy consisting of the three rewriting rounds" (Section 6).  This
module provides the machinery those rounds share:

* :class:`RewriteRule` — one equivalence, applied at a single plan node;
* :class:`OptimizerContext` — what rules may consult: imported source
  interfaces, capability matchers, document structure patterns, declared
  containments;
* :class:`RewriteTrace` — a record of every application, so examples can
  print the Figure 8/9 derivations;
* :func:`rewrite_fixpoint` — repeated top-down application to a fixpoint.

Rules are *pure*: they return a replacement plan or ``None``; they never
mutate their input.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import YatError
from repro.capabilities.interface import SourceInterface
from repro.capabilities.matcher import CapabilityMatcher
from repro.core.algebra.operators import Plan


class OptimizerContext:
    """Everything rules may consult about the integration setup.

    ``containments`` declares semantic inclusions between documents:
    ``("artifacts", "artworks")`` means every entity of ``artifacts`` also
    appears in ``artworks``, which licenses join-branch elimination (the
    "all artifacts are available in the XML source" step of Figure 8).
    Containments are metadata the integration administrator supplies; the
    optimizer never guesses them.
    """

    def __init__(
        self,
        interfaces: Optional[Dict[str, SourceInterface]] = None,
        containments: Optional[Set[Tuple[str, str]]] = None,
        shards: Optional[Dict[str, object]] = None,
    ) -> None:
        self.interfaces: Dict[str, SourceInterface] = dict(interfaces or {})
        self.containments: Set[Tuple[str, str]] = set(containments or ())
        #: ``{logical source name: ShardTopology}`` for partitioned
        #: sources; consulted by the shard-expansion rule.
        self.shards: Dict[str, object] = dict(shards or {})
        self._fresh_counter = 0

    def matcher(self, source: str) -> Optional[CapabilityMatcher]:
        """Capability matcher for *source* (``None`` if unknown, or a
        sharded logical source: only its shards take fragments)."""
        if source not in self.interfaces or source in self.shards:
            return None
        return self.interfaces[source].matcher()

    def interface(self, source: str) -> Optional[SourceInterface]:
        return self.interfaces.get(source)

    def declare_containment(self, subset_document: str, superset_document: str) -> None:
        """Declare that every entity of the first document appears in the second."""
        self.containments.add((subset_document, superset_document))

    def contained(self, subset_document: str, superset_document: str) -> bool:
        return (subset_document, superset_document) in self.containments

    def fresh_variable(self, stem: str = "v") -> str:
        """A variable name no user query will collide with."""
        self._fresh_counter += 1
        return f"_{stem}{self._fresh_counter}"


class RewriteRule(ABC):
    """One algebraic equivalence, applied at a single node."""

    #: Short name shown in traces (defaults to the class name).
    name: str = ""

    def __init__(self) -> None:
        if not self.name:
            self.name = type(self).__name__

    @abstractmethod
    def apply(self, plan: Plan, context: OptimizerContext) -> Optional[Plan]:
        """Rewritten plan rooted at *plan*, or ``None`` when not applicable."""


class RewriteStep:
    """One recorded rule application."""

    __slots__ = ("rule_name", "before", "after")

    def __init__(self, rule_name: str, before: Plan, after: Plan) -> None:
        self.rule_name = rule_name
        self.before = before
        self.after = after

    def __repr__(self) -> str:
        return f"RewriteStep({self.rule_name}: {self.before.describe()} -> {self.after.describe()})"


class RewriteTrace:
    """The derivation: every rule application, in order."""

    def __init__(self) -> None:
        self.steps: List[RewriteStep] = []

    def record(self, rule: RewriteRule, before: Plan, after: Plan) -> None:
        self.steps.append(RewriteStep(rule.name, before, after))

    def rule_names(self) -> Tuple[str, ...]:
        return tuple(step.rule_name for step in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def summary(self) -> str:
        if not self.steps:
            return "(no rewrites applied)"
        lines = []
        for index, step in enumerate(self.steps, start=1):
            lines.append(
                f"{index}. {step.rule_name}: {step.before.describe()} "
                f"=> {step.after.describe()}"
            )
        return "\n".join(lines)


class RewriteBudgetExceeded(YatError):
    """The fixpoint loop did not converge within its application budget."""


def apply_rules_once(
    plan: Plan,
    rules: Sequence[RewriteRule],
    context: OptimizerContext,
    trace: Optional[RewriteTrace] = None,
) -> Tuple[Plan, bool]:
    """Apply the first applicable rule at the topmost applicable node.

    Returns ``(new plan, changed?)``.  Top-down order means composition
    eliminations fire before the rewrites they enable, matching the
    paper's narrative for Figures 8 and 9.
    """
    for rule in rules:
        replacement = rule.apply(plan, context)
        if replacement is not None and replacement != plan:
            if trace is not None:
                trace.record(rule, plan, replacement)
            return replacement, True
    children = plan.children()
    for index, child in enumerate(children):
        new_child, changed = apply_rules_once(child, rules, context, trace)
        if changed:
            new_children = list(children)
            new_children[index] = new_child
            return plan.with_children(new_children), True
    return plan, False


def rewrite_fixpoint(
    plan: Plan,
    rules: Sequence[RewriteRule],
    context: OptimizerContext,
    trace: Optional[RewriteTrace] = None,
    max_applications: int = 200,
) -> Plan:
    """Apply *rules* repeatedly until no rule fires anywhere.

    ``max_applications`` bounds runaway rule sets; exceeding it raises
    :class:`RewriteBudgetExceeded` (a rule-authoring bug, not a user
    error).
    """
    for _iteration in range(max_applications):
        plan, changed = apply_rules_once(plan, rules, context, trace)
        if not changed:
            return plan
    raise RewriteBudgetExceeded(
        f"rewriting did not converge within {max_applications} applications; "
        f"applied: {trace.rule_names() if trace else '(untraced)'}"
    )
