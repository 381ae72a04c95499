"""Unit tests for individual optimizer rules, verified by execution.

Every rewrite is checked two ways: the plan has the expected *shape*, and
evaluating both plans against real sources yields the same rows (up to
set semantics, which is what the algebra's collections guarantee).
"""

import pytest

from repro.core.algebra.evaluator import Environment, evaluate
from repro.core.algebra.expressions import Cmp, Const, FunCall, Var, eq
from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    DistinctOp,
    JoinOp,
    LiteralOp,
    MapOp,
    ProjectOp,
    PushedOp,
    SelectOp,
    SourceOp,
    TreeOp,
    UnionOp,
)
from repro.core.algebra.tab import Row, Tab
from repro.core.algebra.tree import CElem, CGroup, CIterate, CLeaf, CValue
from repro.core.optimizer import (
    BindJoinRule,
    BindTreeEliminationRule,
    CapabilityPushdownRule,
    DemandNarrowingRule,
    EquivalenceInsertionRule,
    JoinBranchEliminationRule,
    LabelVarExpansionRule,
    MergeBindChainRule,
    OptimizerContext,
    ProjectComposeRule,
    RewriteTrace,
    SelectPushdownRule,
    navigation_to_extent_join,
    ref_is,
    rewrite_fixpoint,
    split_below_root,
    split_nested_collection,
)
from repro.core.optimizer.pushdown import DropNoopProjectRule
from repro.datasets.cultural import small_figure1_pair
from repro.model.filters import FElem, FStar, FVar, LabelVar, felem
from repro.sources.wais.index import document_contains
from repro.wrappers import O2Wrapper, WaisWrapper


@pytest.fixture
def setup():
    from repro.mediator.mediator import _field_contains

    database, store = small_figure1_pair()
    o2 = O2Wrapper("o2artifact", database)
    wais = WaisWrapper("xmlartwork", store)
    functions = {"ref_is": ref_is, "contains": _contains}
    for label in store.element_labels():
        functions.setdefault(f"contains_{label}", _field_contains(label))
    env_factory = lambda: Environment(
        {"o2artifact": o2, "xmlartwork": wais},
        functions=functions,
    )
    context = OptimizerContext(
        interfaces={
            "o2artifact": o2.interface(),
            "xmlartwork": wais.interface(),
        }
    )
    return env_factory, context


def _contains(document, text):
    return document_contains(document, text)


def rows_set(plan, env_factory):
    tab = evaluate(plan, env_factory())
    return {row._value_key() for row in tab.distinct()}


def assert_equivalent(plan_a, plan_b, env_factory):
    assert rows_set(plan_a, env_factory) == rows_set(plan_b, env_factory)


def artifacts_bind():
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
                        felem("year", FVar("y")),
                        felem(
                            "owners",
                            felem(
                                "list",
                                FStar(
                                    felem(
                                        "class",
                                        felem("person",
                                              felem("tuple",
                                                    felem("name", FVar("o")))),
                                    )
                                ),
                            ),
                        ),
                    ),
                ),
            )
        ),
    )
    return BindOp(SourceOp("o2artifact", "artifacts"), flt, on="artifacts")


def works_bind():
    flt = felem(
        "works",
        FStar(
            felem(
                "work",
                felem("artist", FVar("a")),
                felem("title", FVar("t")),
                felem("style", FVar("s")),
            )
        ),
    )
    return BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")


class TestBindSplit:
    def test_djoin_split_equivalent(self, setup):
        """Figure 7 top: Bind == Project(DJoin(Bind, Bind))."""
        env_factory, context = setup
        bind = artifacts_bind()
        split = split_nested_collection(bind, context)
        assert split is not None
        assert isinstance(split, ProjectOp)
        assert isinstance(split.input, DJoinOp)
        assert_equivalent(bind, split, env_factory)

    def test_djoin_split_none_without_navigation(self, setup):
        _env, context = setup
        assert split_nested_collection(works_bind(), context) is None

    def test_linear_split_equivalent(self, setup):
        """Figure 7 bottom left: Bind == Bind after Bind."""
        env_factory, context = setup
        bind = works_bind()
        split = split_below_root(bind, context)
        assert split is not None
        outer, full = split
        assert outer.filter.variables() != bind.filter.variables()
        assert_equivalent(bind, full, env_factory)

    def test_linear_split_keeps_explicit_variable(self, setup):
        env_factory, context = setup
        flt = felem("works", FStar(felem("work", felem("title", FVar("t")),
                                         var="w")))
        bind = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        _outer, full = split_below_root(bind, context)
        assert "w" in full.output_columns()
        assert_equivalent(bind, full, env_factory)

    def test_merge_bind_chain_inverts_linear_split(self, setup):
        env_factory, context = setup
        bind = works_bind()
        _outer, full = split_below_root(bind, context)
        merged = MergeBindChainRule().apply(full, context)
        assert merged is not None
        assert isinstance(merged, BindOp)
        assert not isinstance(merged.input, BindOp)
        assert_equivalent(bind, merged, env_factory)

    def test_extent_join_equivalent(self, setup):
        """Figure 7 top right: navigation == Join with the persons extent."""
        env_factory, context = setup
        bind = artifacts_bind()
        joined = navigation_to_extent_join(bind, context)
        assert joined is not None
        assert isinstance(joined, ProjectOp)
        assert isinstance(joined.input, JoinOp)
        native = joined.input.predicate.text()
        assert "ref_is" in native
        assert_equivalent(bind, joined, env_factory)

    def test_extent_join_none_without_extent(self, setup):
        _env, context = setup
        # the works source has no extents to exploit
        assert navigation_to_extent_join(works_bind(), context) is None

    def test_ref_is_semantics(self):
        from repro.model.trees import elem, ref

        target = elem("class", ident="p1")
        assert ref_is(ref("class", "p1"), target)
        assert not ref_is(ref("class", "p2"), target)
        assert not ref_is(target, target)
        assert not ref_is("p1", target)


class TestBindTreeElimination:
    def _view_plan(self):
        """A small Tree over a literal Tab standing in for a view."""
        columns = ("t", "a", "f")
        fields1 = (__import__("repro.model.trees", fromlist=["atom_leaf"])
                   .atom_leaf("cplace", "Giverny"),)
        rows = [
            Row(columns, ("Nympheas", "Monet", fields1)),
            Row(columns, ("Bridge", "Monet", ())),
        ]
        constructor = CElem(
            "doc",
            [
                CGroup(
                    [Var("t")],
                    CElem(
                        "work",
                        [CLeaf("title", Var("t")), CLeaf("artist", Var("a")),
                         CLeaf("more", Var("f"))],
                        skolem=("w", [Var("t")]),
                    ),
                )
            ],
        )
        return TreeOp(LiteralOp(Tab(columns, rows)), constructor, "view")

    def test_variable_resolution_becomes_projection(self, setup):
        env_factory, context = setup
        tree = self._view_plan()
        query = BindOp(
            tree,
            felem("doc", felem("work", felem("title", FVar("x")))),
            on="view",
        )
        rewritten = BindTreeEliminationRule().apply(query, context)
        assert rewritten is not None
        assert isinstance(rewritten, DistinctOp)
        assert_equivalent(DistinctOp(query), rewritten, env_factory)

    def test_constant_becomes_selection(self, setup):
        env_factory, context = setup
        tree = self._view_plan()
        query = BindOp(
            tree,
            felem("doc", felem("work", felem("title", FConst_("Nympheas")),
                               felem("artist", FVar("who")))),
            on="view",
        )
        rewritten = BindTreeEliminationRule().apply(query, context)
        assert rewritten is not None
        assert any(isinstance(node, SelectOp) for node in rewritten.walk())
        assert_equivalent(DistinctOp(query), rewritten, env_factory)

    def test_splice_navigation_becomes_residual_bind(self, setup):
        env_factory, context = setup
        tree = self._view_plan()
        query = BindOp(
            tree,
            felem("doc", felem("work", felem("title", FVar("x")),
                               felem("more", felem("cplace", FVar("cl"))))),
            on="view",
        )
        rewritten = BindTreeEliminationRule().apply(query, context)
        assert rewritten is not None
        assert any(
            isinstance(node, BindOp) and node.on == "f"
            for node in rewritten.walk()
        )
        assert_equivalent(DistinctOp(query), rewritten, env_factory)

    def test_impossible_label_proves_empty(self, setup):
        env_factory, context = setup
        tree = self._view_plan()
        query = BindOp(
            tree,
            felem("doc", felem("sculpture", felem("title", FVar("x")))),
            on="view",
        )
        rewritten = BindTreeEliminationRule().apply(query, context)
        assert rewritten is not None
        assert rows_set(rewritten, env_factory) == set()

    def test_tree_variable_declines(self, setup):
        _env, context = setup
        tree = self._view_plan()
        query = BindOp(tree, felem("doc", felem("work", var="w")), on="view")
        assert BindTreeEliminationRule().apply(query, context) is None


def FConst_(value):
    from repro.model.filters import FConst

    return FConst(value)


class TestPushdownRules:
    def test_select_through_join_sides(self, setup):
        env_factory, context = setup
        plan = SelectOp(
            JoinOp(artifacts_bind(), works_bind(), eq(Var("o"), Var("a"))),
            Cmp(">", Var("y"), Const(1800)),
        )
        rewritten = SelectPushdownRule().apply(plan, context)
        assert rewritten is not None
        assert isinstance(rewritten, JoinOp)
        assert isinstance(rewritten.left, SelectOp)
        assert_equivalent(plan, rewritten, env_factory)

    def test_select_through_project_renames_back(self, setup):
        env_factory, context = setup
        plan = SelectOp(
            ProjectOp(works_bind(), [("t", "title")]),
            eq(Var("title"), Const("Nympheas")),
        )
        rewritten = SelectPushdownRule().apply(plan, context)
        assert rewritten is not None
        assert isinstance(rewritten, ProjectOp)
        assert isinstance(rewritten.input, SelectOp)
        assert rewritten.input.predicate.variables() == ("t",)
        assert_equivalent(plan, rewritten, env_factory)

    def test_select_stays_when_variables_split(self, setup):
        _env, context = setup
        plan = SelectOp(
            JoinOp(artifacts_bind(), works_bind(), eq(Var("o"), Var("a"))),
            eq(Var("y"), Var("s")),  # $y is O2-only, $s is Wais-only
        )
        assert SelectPushdownRule().apply(plan, context) is None

    def test_project_compose(self, setup):
        env_factory, context = setup
        plan = ProjectOp(
            ProjectOp(works_bind(), [("t", "x"), ("a", "a")]), [("x", "final")]
        )
        rewritten = ProjectComposeRule().apply(plan, context)
        assert rewritten is not None
        assert isinstance(rewritten.input, BindOp)
        assert rewritten.items == (("t", "final"),)
        assert_equivalent(plan, rewritten, env_factory)

    def test_drop_noop_project(self, setup):
        _env, context = setup
        bind = works_bind()
        plan = ProjectOp.keep(bind, bind.output_columns())
        assert DropNoopProjectRule().apply(plan, context) is bind

    def _distinct_works_bind(self):
        """A works Bind with variable names disjoint from the O2 side."""
        flt = felem(
            "works",
            FStar(
                felem(
                    "work",
                    felem("artist", FVar("wa")),
                    felem("title", FVar("wt")),
                    felem("style", FVar("ws")),
                )
            ),
        )
        return BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")

    def test_join_branch_elimination_requires_containment(self, setup):
        env_factory, context = setup
        join = JoinOp(
            SelectOp(artifacts_bind(), Cmp(">", Var("y"), Const(1800))),
            self._distinct_works_bind(),
            Cmp("=", Var("t"), Var("wt")),
        )
        plan = ProjectOp(join, [("ws", "ws")])
        assert JoinBranchEliminationRule().apply(plan, context) is None
        context.declare_containment("artworks", "artifacts")
        rewritten = JoinBranchEliminationRule().apply(plan, context)
        assert rewritten is not None
        assert "o2artifact" not in rewritten.sources()

    def test_join_branch_elimination_remaps_columns(self, setup):
        env_factory, context = setup
        context.declare_containment("artworks", "artifacts")
        join = JoinOp(
            artifacts_bind(),
            self._distinct_works_bind(),
            Cmp("=", Var("t"), Var("wt")),
        )
        plan = ProjectOp(join, [("t", "wanted")])
        rewritten = JoinBranchEliminationRule().apply(plan, context)
        assert rewritten is not None
        # $t (dropped side) recovered through the equality as $wt
        assert rewritten.items == (("wt", "wanted"),)


class TestBindSimplify:
    def test_project_driven_simplification(self, setup):
        env_factory, context = setup
        plan = ProjectOp(works_bind(), [("t", "t")])
        rewritten = DemandNarrowingRule().apply(plan, context)
        # The projection no longer changes anything, so it goes too.
        assert isinstance(rewritten, BindOp)
        assert set(rewritten.filter.variables()) == {"t"}
        assert_equivalent(plan, rewritten, env_factory)

    def test_needed_variables_survive(self, setup):
        _env, context = setup
        plan = ProjectOp(
            SelectOp(works_bind(), eq(Var("s"), Const("Impressionist"))),
            [("t", "t")],
        )
        rewritten = DemandNarrowingRule().apply(plan, context)
        assert rewritten is not None
        bind = rewritten.input.input
        assert set(bind.filter.variables()) == {"t", "s"}

    def test_label_var_expansion(self, setup):
        """Figure 7 bottom right: attribute names of person objects."""
        env_factory, context = setup
        flt = felem(
            "set",
            FStar(
                felem(
                    "class",
                    felem("person",
                          felem("tuple", FElem(LabelVar("l"), (FVar("v"),)))),
                )
            ),
        )
        bind = BindOp(SourceOp("o2artifact", "persons"), flt, on="persons")
        rewritten = LabelVarExpansionRule().apply(bind, context)
        assert rewritten is not None
        assert isinstance(rewritten, UnionOp)
        labels = rows_set(ProjectOp(rewritten, [("l", "l")]), env_factory)
        assert labels == rows_set(ProjectOp(bind, [("l", "l")]), env_factory)
        # every branch is now admissible for O2
        matcher = context.matcher("o2artifact")
        for node in rewritten.walk():
            if isinstance(node, BindOp):
                assert matcher.bind_admissible(node.filter)
        assert_equivalent(bind, rewritten, env_factory)


class TestCapabilityRules:
    def test_pushdown_whole_fragment(self, setup):
        env_factory, context = setup
        plan = SelectOp(artifacts_bind(), Cmp(">", Var("y"), Const(1800)))
        rewritten = CapabilityPushdownRule().apply(plan, context)
        assert isinstance(rewritten, PushedOp)
        assert_equivalent(plan, rewritten, env_factory)

    def test_pushdown_keeps_unpushable_select(self, setup):
        env_factory, context = setup
        plan = SelectOp(
            SelectOp(artifacts_bind(), Cmp(">", Var("y"), Const(1800))),
            FunCall("mystery", [Var("t")]),
        )
        rewritten = CapabilityPushdownRule().apply(plan, context)
        assert isinstance(rewritten, SelectOp)
        assert rewritten.predicate.functions() == ("mystery",)
        assert isinstance(rewritten.input, PushedOp)

    def test_pushdown_splits_for_wais(self, setup):
        env_factory, context = setup
        inner = felem("work", felem("title", FVar("t")), var="w")
        flt = felem("works", FStar(inner))
        bind = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        plan = SelectOp(bind, FunCall("contains", [Var("w"), Const("Giverny")]))
        rewritten = CapabilityPushdownRule().apply(plan, context)
        assert rewritten is not None
        assert isinstance(rewritten, BindOp)  # residual navigation
        assert isinstance(rewritten.input, PushedOp)
        assert_equivalent(plan, rewritten, env_factory)

    def test_no_split_push_without_predicate(self, setup):
        _env, context = setup
        # pushing a bare whole-document bind wins nothing
        flt = felem("works", FStar(felem("work", felem("title", FVar("t")))))
        bind = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        assert CapabilityPushdownRule().apply(bind, context) is None

    def test_equivalence_insertion_adds_contains(self, setup):
        env_factory, context = setup
        flt = felem("works", FStar(felem("work", felem("style", FVar("s")))))
        bind = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        plan = SelectOp(bind, eq(Var("s"), Const("Impressionist")))
        rewritten = EquivalenceInsertionRule().apply(plan, context)
        assert rewritten is not None
        # A fresh document variable was added, so the rewrite restores the
        # schema with a projection; below it sits the derived selection.
        assert isinstance(rewritten, ProjectOp)
        assert rewritten.output_columns() == plan.output_columns()
        derived = rewritten.input.input
        assert isinstance(derived, SelectOp)
        # $s is bound under <style>, so the field-scoped predicate wins
        assert derived.predicate.functions() == ("contains_style",)
        assert_equivalent(plan, rewritten, env_factory)

    def test_equivalence_insertion_idempotent(self, setup):
        _env, context = setup
        flt = felem("works", FStar(felem("work", felem("style", FVar("s")))))
        bind = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        plan = SelectOp(bind, eq(Var("s"), Const("Impressionist")))
        once = EquivalenceInsertionRule().apply(plan, context)
        inner_select = once.input
        assert EquivalenceInsertionRule().apply(inner_select, context) is None

    def test_equivalence_requires_string_constant(self, setup):
        _env, context = setup
        flt = felem("works", FStar(felem("work", felem("year", FVar("y")))))
        bind = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        plan = SelectOp(bind, eq(Var("y"), Const(1897)))
        assert EquivalenceInsertionRule().apply(plan, context) is None


class TestBindJoin:
    def test_join_over_pushed_becomes_djoin(self, setup):
        env_factory, context = setup
        pushed = PushedOp("o2artifact", artifacts_bind())
        plan = JoinOp(works_bind(), pushed, Cmp("=", Var("a"), Var("o")))
        rewritten = BindJoinRule().apply(plan, context)
        assert rewritten is not None
        assert any(isinstance(n, DJoinOp) for n in rewritten.walk())
        assert_equivalent(plan, rewritten, env_factory)

    def test_swapped_side_parameterized_with_projection(self, setup):
        env_factory, context = setup
        pushed = PushedOp("o2artifact", artifacts_bind())
        plan = JoinOp(pushed, works_bind(), Cmp("=", Var("o"), Var("a")))
        rewritten = BindJoinRule().apply(plan, context)
        assert rewritten is not None
        assert isinstance(rewritten, ProjectOp)  # column order restored
        assert rewritten.output_columns() == plan.output_columns()
        assert_equivalent(plan, rewritten, env_factory)

    def test_wais_side_never_parameterized(self, setup):
        _env, context = setup
        inner = felem("work", var="w")
        flt = felem("works", FStar(inner))
        wais_pushed = PushedOp(
            "xmlartwork",
            BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks"),
        )
        plan = JoinOp(artifacts_bind(), wais_pushed, Cmp("=", Var("t"), Var("w")))
        # wais declares no eq: the rule must decline rather than build an
        # unexecutable parameterized fragment
        assert BindJoinRule().apply(plan, context) is None
