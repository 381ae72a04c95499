"""Integration tests for the three generic wrappers."""

import pytest

from repro.errors import PushdownRejectedError, SourceError
from repro.core.algebra.expressions import Cmp, Const, FunCall, Var, eq
from repro.core.algebra.operators import (
    BindOp,
    ProjectOp,
    SelectOp,
    SourceOp,
)
from repro.core.algebra.tab import Row, Tab
from repro.datasets.cultural import CulturalDataset, small_figure1_pair
from repro.model.filters import FStar, FVar, felem
from repro.wrappers import O2Wrapper, SqlWrapper, WaisWrapper
from repro.wrappers.base import analyze_fragment


def o2_filter():
    return felem(
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
                    ),
                ),
            )
        ),
    )


@pytest.fixture
def sources():
    return small_figure1_pair()


@pytest.fixture
def o2(sources):
    return O2Wrapper("o2artifact", sources[0])


@pytest.fixture
def wais(sources):
    return WaisWrapper("xmlartwork", sources[1])


class TestAnalyzeFragment:
    def test_decomposes_chain(self):
        plan = ProjectOp(
            SelectOp(
                SelectOp(
                    BindOp(SourceOp("s", "d"), o2_filter(), on="d"),
                    eq(Var("t"), Const("x")),
                ),
                Cmp(">", Var("y"), Const(1800)),
            ),
            [("t", "t")],
        )
        fragment = analyze_fragment(plan, "s")
        assert fragment.document == "d"
        assert len(fragment.selections) == 2
        # bottom-up order: the innermost selection comes first
        assert fragment.selections[0].op == "="
        assert fragment.projection == (("t", "t"),)

    def test_wrong_source_rejected(self):
        plan = BindOp(SourceOp("other", "d"), o2_filter(), on="d")
        with pytest.raises(SourceError):
            analyze_fragment(plan, "s")

    def test_non_fragment_rejected(self):
        with pytest.raises(SourceError):
            analyze_fragment(SourceOp("s", "d"), "s")


class TestO2Wrapper:
    def test_exports_documents(self, o2):
        assert set(o2.document_names()) == {"artifacts", "persons"}

    def test_interface_exported_via_xml(self, o2):
        text = o2.interface_xml()
        assert '<fpattern name="Fclass">' in text
        assert '<operation name="current_price" kind="method">' in text

    def test_pushed_bind_generates_oql(self, o2):
        plan = BindOp(SourceOp("o2artifact", "artifacts"), o2_filter(),
                      on="artifacts")
        tab, native = o2.execute_pushed(plan)
        assert native.startswith("select ")
        assert "from R1 in artifacts" in native
        assert len(tab) == 2

    def test_pushed_select_in_where_clause(self, o2):
        plan = SelectOp(
            BindOp(SourceOp("o2artifact", "artifacts"), o2_filter(), on="artifacts"),
            Cmp(">", Var("y"), Const(1898)),
        )
        tab, native = o2.execute_pushed(plan)
        assert "where R1.year > 1898" in native
        assert [row["t"] for row in tab] == ["Waterloo Bridge"]

    def test_pushed_method_call(self, o2):
        flt = felem(
            "set",
            FStar(felem("class", felem("artifact", felem("tuple",
                  felem("title", FVar("t")))), var="x")),
        )
        plan = SelectOp(
            BindOp(SourceOp("o2artifact", "artifacts"), flt, on="artifacts"),
            Cmp(">", FunCall("current_price", [Var("x")]), Const(2_000_000.0)),
        )
        tab, native = o2.execute_pushed(plan)
        assert "current_price()" in native
        assert [row["t"] for row in tab] == ["Nympheas"]

    def test_pushed_projection_restricts_oql_select(self, o2):
        plan = ProjectOp(
            BindOp(SourceOp("o2artifact", "artifacts"), o2_filter(), on="artifacts"),
            [("t", "title")],
        )
        tab, native = o2.execute_pushed(plan)
        assert tab.columns == ("title",)
        assert "R1.year" not in native.split("from")[0]

    def test_outer_parameters_inlined(self, o2):
        plan = SelectOp(
            BindOp(SourceOp("o2artifact", "artifacts"), o2_filter(), on="artifacts"),
            eq(Var("t"), Var("outer_title")),
        )
        outer = Row(("outer_title",), ("Nympheas",))
        tab, native = o2.execute_pushed(plan, outer)
        assert '"Nympheas"' in native
        assert len(tab) == 1

    def test_missing_outer_parameter_raises(self, o2):
        plan = SelectOp(
            BindOp(SourceOp("o2artifact", "artifacts"), o2_filter(), on="artifacts"),
            eq(Var("t"), Var("nowhere")),
        )
        with pytest.raises(SourceError):
            o2.execute_pushed(plan)

    def test_object_variable_returns_exported_tree(self, o2):
        flt = felem("set", FStar(felem("class", var="x")))
        plan = BindOp(SourceOp("o2artifact", "persons"), flt, on="persons")
        tab, _native = o2.execute_pushed(plan)
        assert len(tab) == 3
        assert tab.rows[0]["x"].label == "class"

    def test_inadmissible_filter_rejected_by_validation(self, o2):
        from repro.model.filters import LabelVar, FElem

        flt = felem("set", FStar(felem("class", FElem(LabelVar("l")))))
        plan = BindOp(SourceOp("o2artifact", "artifacts"), flt, on="artifacts")
        with pytest.raises(SourceError):
            o2.execute_pushed(plan)

    def test_a_kept_fragment_is_validated_again_by_another_wrapper(
        self, o2, sources
    ):
        # One plan object through two wrappers of one source name: the
        # fragment the first accepted is kept on the plan, and must not
        # spare the second, which declares no range comparison, its check.
        class EqualityOnly(O2Wrapper):
            def build_interface(self):
                interface = super().build_interface()
                for name in ("lt", "lte", "gt", "gte"):
                    del interface.operations[name]
                return interface

        plan = SelectOp(
            BindOp(SourceOp("o2artifact", "artifacts"), o2_filter(), on="artifacts"),
            Cmp(">", Var("y"), Const(1898)),
        )
        strict = EqualityOnly("o2artifact", sources[0])
        for _ in range(2):
            assert len(o2.execute_pushed(plan)[0]) == 1
            with pytest.raises(PushdownRejectedError, match="'>'"):
                strict.execute_pushed(plan)

    def test_nested_collection_navigation(self, o2):
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
                            felem(
                                "owners",
                                felem(
                                    "list",
                                    FStar(
                                        felem(
                                            "class",
                                            felem("person",
                                                  felem("tuple",
                                                        felem("name", FVar("n")))),
                                        )
                                    ),
                                ),
                            ),
                        ),
                    ),
                )
            ),
        )
        plan = BindOp(SourceOp("o2artifact", "artifacts"), flt, on="artifacts")
        tab, native = o2.execute_pushed(plan)
        assert "R2 in R1.owners" in native
        assert len(tab) == 4  # 3 owners of a1 + 1 owner of a2


class TestWaisWrapper:
    def test_document_export(self, wais):
        tree = wais.document("artworks")
        assert tree.label == "works"
        assert len(tree.children) == 2

    def test_pushed_bind_with_contains(self, wais):
        flt = felem("works", FStar(felem("work", var="w")))
        plan = SelectOp(
            BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks"),
            FunCall("contains", [Var("w"), Const("Giverny")]),
        )
        tab, native = wais.execute_pushed(plan)
        assert native == "wais-search any=(Giverny)"
        assert len(tab) == 1
        assert tab.rows[0]["w"].child("title").atom == "Nympheas"

    def test_pushed_bind_without_predicate_returns_all(self, wais):
        flt = felem("works", FStar(felem("work", var="w")))
        plan = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        tab, native = wais.execute_pushed(plan)
        assert len(tab) == 2
        assert native == "wais-search *"

    def test_deep_filter_rejected(self, wais):
        flt = felem("works", FStar(felem("work", felem("title", FVar("t")))))
        plan = BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks")
        with pytest.raises(SourceError):
            wais.execute_pushed(plan)

    def test_non_contains_predicate_rejected(self, wais):
        flt = felem("works", FStar(felem("work", var="w")))
        plan = SelectOp(
            BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks"),
            eq(Var("w"), Const("x")),
        )
        with pytest.raises(SourceError):
            wais.execute_pushed(plan)

    def test_contains_parameter_from_outer_row(self, wais):
        flt = felem("works", FStar(felem("work", var="w")))
        plan = SelectOp(
            BindOp(SourceOp("xmlartwork", "artworks"), flt, on="artworks"),
            FunCall("contains", [Var("w"), Var("needle")]),
        )
        outer = Row(("needle",), ("Giverny",))
        tab, _native = wais.execute_pushed(plan, outer)
        assert len(tab) == 1

    def test_equivalence_declared(self, wais):
        equivalences = wais.interface().equivalences
        assert len(equivalences) == 1
        assert equivalences[0].source_predicate == "contains"


class TestSqlWrapper:
    @pytest.fixture
    def sql(self):
        dataset = CulturalDataset(n_artifacts=10, seed=3)
        database, _store = dataset.build()
        return SqlWrapper("salesdb", dataset.build_sales(database))

    def sales_filter(self):
        return felem(
            "rows",
            FStar(
                felem(
                    "row",
                    felem("title", FVar("t")),
                    felem("price", FVar("p")),
                )
            ),
        )

    def test_document_export(self, sql):
        tree = sql.document("sales")
        assert tree.label == "rows"
        assert len(tree.children) == 10

    def test_pushed_bind_generates_sql(self, sql):
        plan = BindOp(SourceOp("salesdb", "sales"), self.sales_filter(), on="sales")
        tab, native = sql.execute_pushed(plan)
        assert native.startswith("SELECT")
        assert len(tab) == 10

    def test_pushed_select_parameterized(self, sql):
        plan = SelectOp(
            BindOp(SourceOp("salesdb", "sales"), self.sales_filter(), on="sales"),
            Cmp("<", Var("p"), Const(1_000_000.0)),
        )
        tab, native = sql.execute_pushed(plan)
        assert "WHERE price < ?" in native
        assert all(row["p"] < 1_000_000.0 for row in tab)

    def test_constant_in_filter_becomes_where(self, sql):
        flt = felem(
            "rows",
            FStar(felem("row", felem("title", FVar("t")),
                        felem("year", FVar("y")))),
        )
        plan = BindOp(SourceOp("salesdb", "sales"), flt, on="sales")
        tab, _ = sql.execute_pushed(plan)
        year = tab.rows[0]["y"]
        from repro.model.filters import FConst

        flt2 = felem(
            "rows",
            FStar(felem("row", felem("title", FVar("t")),
                        felem("year", FConst(year)))),
        )
        plan2 = BindOp(SourceOp("salesdb", "sales"), flt2, on="sales")
        tab2, native2 = sql.execute_pushed(plan2)
        assert "year = ?" in native2
        assert len(tab2) >= 1

    def test_unknown_column_rejected(self, sql):
        flt = felem("rows", FStar(felem("row", felem("ghost", FVar("g")))))
        plan = BindOp(SourceOp("salesdb", "sales"), flt, on="sales")
        with pytest.raises(SourceError):
            sql.execute_pushed(plan)

    def test_same_answers_as_o2_for_shared_data(self, sql):
        """Section 4.1: SQL wraps 'in a similar manner' — same rows out."""
        dataset = CulturalDataset(n_artifacts=10, seed=3)
        database, _store = dataset.build()
        o2 = O2Wrapper("o2artifact", database)
        o2_flt = felem(
            "set",
            FStar(felem("class", felem("artifact", felem("tuple",
                  felem("title", FVar("t")), felem("price", FVar("p")))))),
        )
        o2_plan = SelectOp(
            BindOp(SourceOp("o2artifact", "artifacts"), o2_flt, on="artifacts"),
            Cmp("<", Var("p"), Const(1_000_000.0)),
        )
        sql_plan = SelectOp(
            BindOp(SourceOp("salesdb", "sales"), self.sales_filter(), on="sales"),
            Cmp("<", Var("p"), Const(1_000_000.0)),
        )
        o2_tab, oql = o2.execute_pushed(o2_plan)
        sql_tab, native = sql.execute_pushed(sql_plan)
        assert {(r["t"], r["p"]) for r in o2_tab} == {
            (r["t"], r["p"]) for r in sql_tab
        }
        # The two native texts EXPERIMENTS E2 quotes.
        assert oql == ("select t: R1.title, p: R1.price from R1 in artifacts "
                       "where R1.price < 1000000.0")
        assert native == ("SELECT title AS t, price AS p FROM sales "
                          "WHERE price < ? -- params (1000000.0,)")
