"""Per-figure reproduction tests: each class regenerates one paper artifact.

These are the executable counterparts of the experiment index in
DESIGN.md; EXPERIMENTS.md records their outcomes, and every number in
its F7, F8 and F9 tables is pinned here.
"""

import pytest

from repro import ExecutionPolicy, Mediator, O2Wrapper, WaisWrapper
from repro.capabilities import o2_fmodel, xml_to_interface
from repro.core.algebra.bind import match_filter
from repro.core.algebra.evaluator import Environment, evaluate
from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    DistinctOp,
    JoinOp,
    ProjectOp,
    PushedOp,
    SelectOp,
    SourceOp,
    TreeOp,
)
from repro.core.algebra.tab import Tab
from repro.core.algebra.tree import CElem, CGroup, CIterate, CLeaf
from repro.core.algebra.expressions import Var
from repro.core.optimizer import (
    DemandNarrowingRule,
    OptimizerContext,
    navigation_to_extent_join,
    ref_is,
    split_below_root,
    split_nested_collection,
)
from repro.datasets import CulturalDataset
from repro.datasets.cultural import small_figure1_pair
from repro.model.filters import FRest, FStar, FVar, felem
from repro.model.instantiation import is_instance, subsumes
from repro.model.patterns import PAny, PRef, odmg_model_library
from repro.model.xml_io import tree_to_xml
from repro.sources.wais.index import document_contains
from repro.yatl import parse_program, parse_query, translate_query, translate_rule

from tests.conftest import Q1, Q2, VIEW1_YAT, build_mediator, transfer


@pytest.fixture
def mediator(figure1_sources):
    database, store = figure1_sources
    return build_mediator(database, store)


@pytest.fixture(scope="module", params=[25, 100, 400])
def seeded_mediator(request):
    """The federation over seed-1 data of n artifacts, the sizes of
    EXPERIMENTS F8 and F9."""
    n = request.param
    return n, build_mediator(*CulturalDataset(n_artifacts=n, seed=1).build())


def works_filter():
    """Figure 4's Bind filter over the works collection."""
    return felem("works", FStar(felem(
        "work", felem("artist", FVar("a")), felem("title", FVar("t")),
        felem("style", FVar("s")), felem("size", FVar("si")),
        FRest("fields"),
    )))


def navigation_bind():
    """Figure 7's Bind over the view's O2 branch: titles and owner names."""
    owner = felem("class", felem("person", felem("tuple",
                                                 felem("name", FVar("o")))))
    artifact = felem("tuple", felem("title", FVar("t")),
                     felem("owners", felem("list", FStar(owner))))
    flt = felem("set", FStar(felem("class", felem("artifact", artifact))))
    return BindOp(SourceOp("o2artifact", "artifacts"), flt, on="artifacts")


def value_keys(tab):
    return {row._value_key() for row in tab}


class TestFigure1SampleData:
    """Figure 1: sample XML data for cultural goods."""

    def test_o2_export_carries_figure1_content(self, figure1_sources):
        database, _ = figure1_sources
        xml = tree_to_xml(database.export_extent("artifacts"))
        for fragment in ("Nympheas", "1897", "Claude Monet"):
            assert fragment in xml

    def test_works_export_carries_figure1_content(self, figure1_sources):
        _, store = figure1_sources
        xml = tree_to_xml(store.collection_tree())
        for fragment in ("Impressionist", "21 x 61", "Giverny", "Oil on canvas"):
            assert fragment in xml

    def test_partially_structured_documents(self, figure1_sources):
        # one work has cplace, the other history: the semistructured mix
        _, store = figure1_sources
        works = store.collection_tree().children
        assert works[0].child("cplace") is not None
        assert works[0].child("history") is None
        assert works[1].child("history") is not None


class TestFigure2Installation:
    """Figure 2: installing wrappers and mediators."""

    def test_connect_import_load_query_session(self, figure1_sources):
        database, store = figure1_sources
        mediator = Mediator("yat")
        o2_interface = mediator.connect(O2Wrapper("o2artifact", database))
        wais_interface = mediator.connect(WaisWrapper("xmlartwork", store))
        assert o2_interface.name == "o2artifact"
        assert wais_interface.name == "xmlartwork"
        views = mediator.load_program(VIEW1_YAT)
        assert views == ("artworks",)
        result = mediator.query("MAKE $t MATCH artworks WITH doc . work [ title . $t ]")
        assert len(result.document().children) == 2


class TestFigure3Metadata:
    """Figure 3: structural metadata and the instantiation chain."""

    def test_artifact_data_instance_of_artifact_schema(self, figure1_sources):
        database, _ = figure1_sources
        library = database.schema.to_pattern_library()
        tree = database.export_object("a1")
        assert is_instance(tree, library.resolve("artifact"), library)

    def test_artifact_schema_instance_of_odmg_model(self, figure1_sources):
        database, _ = figure1_sources
        library = database.schema.to_pattern_library()
        odmg = odmg_model_library()
        assert subsumes(PRef("Class"), library.resolve("artifact"), odmg)

    def test_odmg_model_instance_of_yat_model(self):
        odmg = odmg_model_library()
        assert subsumes(PAny(), odmg.resolve("Class"), odmg)
        assert subsumes(PAny(), odmg.resolve("Type"), odmg)

    def test_artworks_structure_mixes_mandatory_and_open(self, figure1_sources):
        _, store = figure1_sources
        wrapper = WaisWrapper("xmlartwork", store)
        library = wrapper.interface().structures["Artworks_Structure"]
        work = library.resolve("work")
        labels = [getattr(c, "label", None) for c in work.children]
        assert labels[:4] == ["artist", "title", "style", "size"]
        # the trailing star captures fields "not known in advance"
        for doc in store.collection_tree().children:
            assert is_instance(doc, work, library)


class TestFigure4BindAndTree:
    """Figure 4: the Bind and Tree operators on the works collection."""

    def test_bind_produces_figure4_tab(self, figure1_sources):
        _, store = figure1_sources
        rows = match_filter(store.collection_tree(), works_filter())
        assert len(rows) == 2
        assert rows[0]["t"] == "Nympheas"
        assert rows[0]["si"] == "21 x 61"
        assert [n.label for n in rows[0]["fields"]] == ["cplace"]
        assert [n.label for n in rows[1]["fields"]] == ["history"]

    def test_tree_regroups_by_artist(self, figure1_sources):
        _, store = figure1_sources
        rows = match_filter(store.collection_tree(), works_filter())
        columns = ("a", "t", "s", "si", "fields")
        tab = Tab.from_dicts(columns, rows)
        constructor = CElem(
            "result",
            [
                CGroup(
                    [Var("a")],
                    CElem(
                        "artist",
                        [CLeaf("name", Var("a")),
                         CIterate(CLeaf("title", Var("t")))],
                        skolem=("artist", [Var("a")]),
                    ),
                )
            ],
        )
        from repro.core.algebra.tree import construct

        tree = construct(tab, constructor)
        artists = tree.children_with_label("artist")
        assert len(artists) == 1  # both works are Monet's
        titles = [n.atom for n in artists[0].children_with_label("title")]
        assert titles == ["Nympheas", "Waterloo Bridge"]


class TestFigure5Algebraization:
    """Figure 5: translation of the view and Q1 into the algebra."""

    def test_view_translation_shape(self):
        program = parse_program(VIEW1_YAT)
        resolve = lambda d: {"artifacts": "o2artifact",
                             "artworks": "xmlartwork"}[d]
        plan = translate_rule(program.rules[0], resolve)
        assert isinstance(plan, TreeOp)
        join = plan.input
        assert isinstance(join, JoinOp)
        assert isinstance(join.left, SelectOp)       # $y > 1800
        assert isinstance(join.left.input, BindOp)   # artifacts Bind
        assert isinstance(join.right, BindOp)        # artworks Bind

    def test_q1_translation_shape(self):
        plan = translate_query(parse_query(Q1), lambda d: "mediator")
        assert isinstance(plan, TreeOp)
        select = plan.input
        assert isinstance(select, SelectOp)
        assert select.predicate.text() == "$cl = 'Giverny'"
        assert isinstance(select.input, BindOp)


class TestFigure6CapabilityInterface:
    """Figure 6: the O2 filter patterns and operational interface."""

    def test_wrapper_emits_figure6_document(self, figure1_sources):
        database, _ = figure1_sources
        text = O2Wrapper("o2artifact", database).interface_xml()
        assert '<fpattern name="Fclass">' in text
        assert '<fpattern name="Ftype">' in text
        assert 'bind="tree"' in text and 'bind="none"' in text
        assert 'inst="ground"' in text and 'inst="none"' in text
        assert '<operation name="bind" kind="algebra">' in text
        assert 'name="select" kind="algebra"' in text

    def test_interface_round_trips_through_wire(self, figure1_sources):
        database, _ = figure1_sources
        wrapper = O2Wrapper("o2artifact", database)
        parsed = xml_to_interface(wrapper.interface_xml())
        assert parsed.fmodels["o2fmodel"].resolve("Fclass") == o2_fmodel().resolve(
            "Fclass"
        )

    def test_section41_oql_generation(self, figure1_sources):
        """The pushed view fragment becomes the paper's OQL query."""
        database, _ = figure1_sources
        wrapper = O2Wrapper("o2artifact", database)
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
                            felem("creator", FVar("c")),
                            felem("price", FVar("p")),
                            felem(
                                "owners",
                                felem(
                                    "list",
                                    FStar(
                                        felem(
                                            "class",
                                            felem(
                                                "person",
                                                felem(
                                                    "tuple",
                                                    felem("name", FVar("n")),
                                                    felem("auction", FVar("au")),
                                                ),
                                            ),
                                        )
                                    ),
                                ),
                            ),
                        ),
                    ),
                )
            ),
        )
        from repro.core.algebra.expressions import Cmp, Const

        plan = SelectOp(
            BindOp(SourceOp("o2artifact", "artifacts"), flt, on="artifacts"),
            Cmp(">", Var("y"), Const(1800)),
        )
        _tab, native = wrapper.execute_pushed(plan)
        # Same shape as the paper's query:
        #   select t: A.title, ..., n: O.name, au: O.auction
        #   from A in artifacts, O in A.owners where A.year > 1800
        assert "from R1 in artifacts, R2 in R1.owners" in native
        assert "where R1.year > 1800" in native
        for projection in ("t: R1.title", "n: R2.name", "au: R2.auction"):
            assert projection in native


class TestFigure7Equivalences:
    """Figure 7: the algebraic equivalences (see also test_optimizer_rules)."""

    def test_bind_split_on_view_filter(self, figure1_sources):
        database, store = figure1_sources
        o2 = O2Wrapper("o2artifact", database)
        context = OptimizerContext(interfaces={"o2artifact": o2.interface()})
        bind = navigation_bind()
        split = split_nested_collection(bind, context)
        env = Environment({"o2artifact": o2}, functions={"ref_is": ref_is})
        original = evaluate(bind, Environment({"o2artifact": o2}))
        rewritten = evaluate(split, env)
        assert value_keys(original) == value_keys(
            rewritten.project(original.columns)
        )

    def test_each_form_gives_its_originals_rows(self):
        """EXPERIMENTS F7 at n=150: seven forms, three row sets."""
        database, store = CulturalDataset(n_artifacts=150, seed=1).build()
        adapters = {
            "o2artifact": O2Wrapper("o2artifact", database),
            "xmlartwork": WaisWrapper("xmlartwork", store),
        }
        context = OptimizerContext(interfaces={
            name: wrapper.interface() for name, wrapper in adapters.items()
        })
        navigation = navigation_bind()
        works = BindOp(SourceOp("xmlartwork", "artworks"), works_filter(),
                       on="artworks")
        titles = ProjectOp(works, [("t", "t")])
        cases = [
            (navigation, [split_nested_collection(navigation, context),
                          navigation_to_extent_join(navigation, context)], 300),
            (works, [split_below_root(works, context)[1]], 150),
            (titles, [DemandNarrowingRule().apply(titles, context)], 150),
        ]

        def run(plan):
            return evaluate(
                plan, Environment(adapters, functions={"ref_is": ref_is})
            )

        for original, rewrites, rows in cases:
            expected = run(original)
            assert len(expected) == rows
            for form in rewrites:
                tab = run(form)
                assert len(tab) == rows
                assert value_keys(tab.project(expected.columns)) == value_keys(
                    expected
                )


#: EXPERIMENTS F8 over seed-1 data: n -> Q1's (bytes, calls), naive and
#: optimized.  Only the ``contains`` matches travel once optimized.
Q1_TRANSFER = {
    25: ((13_324, 2), (532, 1)),
    100: ((54_120, 2), (1_770, 1)),
    400: ((217_507, 2), (9_553, 1)),
}

#: EXPERIMENTS F9 over seed-1 data: n -> Q2 optimized (bytes, calls,
#: passed keys) and the paper's per-row bind join under ``serial()``
#: (bytes, calls).  Naive Q2 ships the same whole view as naive Q1.  The
#: per-row plan runs at the two smaller sizes only: at n=400 its 116 calls
#: through the interpretive oracle would be the slowest test here.
Q2_TRANSFER = {
    25: ((1_193, 2, 3), (1_247, 4)),
    100: ((8_812, 2, 20), (9_325, 21)),
    400: ((49_128, 2, 115), None),
}


class TestFigure8Q1Optimization:
    """Figure 8: optimization of Q1 composed with the view."""

    def test_final_plan_has_no_o2_branch(self, mediator):
        result = mediator.query(Q1)
        assert "o2artifact" not in result.plan.sources()

    def test_naive_and_optimized_answers_equal(self, mediator):
        naive = mediator.query(Q1, optimize=False)
        optimized = mediator.query(Q1)
        assert naive.document() == optimized.document()

    def test_derivation_follows_the_paper(self, mediator):
        result = mediator.query(Q1)
        names = list(result.trace.rule_names())
        # Bind-Tree elimination first, branch elimination before pushdown.
        assert names.index("BindTreeElimination") < names.index(
            "JoinBranchElimination"
        )
        assert names.index("JoinBranchElimination") < names.index(
            "CapabilityPushdown"
        )

    def test_optimized_transfers_fraction_of_naive(self, cultural_mediator):
        naive = cultural_mediator.query(Q1, optimize=False)
        optimized = cultural_mediator.query(Q1)
        assert (
            optimized.report.stats.total_bytes_transferred
            < naive.report.stats.total_bytes_transferred / 2
        )

    def test_transfer_counters(self, seeded_mediator):
        n, mediator = seeded_mediator
        naive = mediator.query(Q1, optimize=False)
        optimized = mediator.query(Q1)
        assert naive.document() == optimized.document()
        assert (transfer(naive), transfer(optimized)) == Q1_TRANSFER[n]


class TestFigure9Q2Optimization:
    """Figure 9: algebraic translation and optimization of Q2."""

    def test_plan_shape(self, mediator):
        plan = mediator.query(Q2).plan
        pushed = [n for n in plan.walk() if isinstance(n, PushedOp)]
        sources = {p.source for p in pushed}
        assert sources == {"xmlartwork", "o2artifact"}
        assert any(isinstance(n, DJoinOp) for n in plan.walk())

    def test_wais_asked_for_impressionist_only(self, figure1_sources):
        database, store = figure1_sources
        mediator = build_mediator(database, store)
        result = mediator.query(Q2)
        # the pushed Wais fragment carries the contains predicate
        wais_pushed = next(
            n for n in result.plan.walk()
            if isinstance(n, PushedOp) and n.source == "xmlartwork"
        )
        assert "contains" in wais_pushed.plan.pretty()

    def test_o2_called_per_work_with_parameters(self, mediator):
        result = mediator.query(Q2)
        stats = result.report.stats
        # one call to wais plus one O2 call per selected work
        assert stats.source_calls["xmlartwork"] == 1
        assert stats.source_calls["o2artifact"] >= 1

    def test_answers_match_reference_semantics(self, mediator, figure1_sources):
        database, store = figure1_sources
        result = mediator.query(Q2)
        items = result.document().children
        expected = set()
        works = {
            (w.child("title").atom, w.child("artist").atom): w
            for w in store.collection_tree().children
        }
        for oid in database.extent("artifacts"):
            values = database.get(oid).values
            work = works.get((values["title"], values["creator"]))
            if work is None or values["year"] <= 1800:
                continue
            if work.child("style").atom == "Impressionist" and values[
                "price"
            ] < 2_000_000.0:
                expected.add(values["title"])
        assert {i.child("title").atom for i in items} == expected

    def test_transfer_counters(self, seeded_mediator):
        n, mediator = seeded_mediator
        expected, per_row_expected = Q2_TRANSFER[n]
        naive = mediator.query(Q2, optimize=False)
        optimized = mediator.query(Q2)
        assert naive.document() == optimized.document()
        assert transfer(naive) == Q1_TRANSFER[n][0]
        stats = optimized.report.stats
        assert (*transfer(optimized), stats.passed_keys) == expected
        if per_row_expected is not None:
            per_row = mediator.query(Q2, execution=ExecutionPolicy.serial())
            assert per_row.document() == optimized.document()
            assert transfer(per_row) == per_row_expected
