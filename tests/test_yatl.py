"""Unit tests for the YAT_L language: lexer, parser, translator."""

import pytest

from repro import ExecutionPolicy
from repro.datasets import CulturalDataset
from repro.errors import YatlSyntaxError, YatlTranslationError
from repro.core.algebra.expressions import BoolAnd, Cmp, FunCall, Var
from repro.core.algebra.operators import (
    BindOp,
    JoinOp,
    SelectOp,
    SourceOp,
    TreeOp,
)
from repro.core.algebra.tree import CElem, CGroup, CIterate, CLeaf, CRef, CValue
from repro.model.filters import FConst, FElem, FRest, FStar, FVar, LabelVar
from repro.model.xml_io import tree_to_xml
from repro.yatl import parse_filter, parse_program, parse_query, translate_query
from repro.yatl.lexer import tokenize

from tests.conftest import Q1, VIEW1_YAT, build_mediator


class TestLexer:
    def test_variables_with_primes(self):
        tokens = [t for t in tokenize("$t' $t''")]
        assert [t.value for t in tokens[:-1]] == ["t'", "t''"]

    def test_keywords_case_insensitive(self):
        tokens = [t for t in tokenize("MAKE make Make")]
        assert all(t.kind == "kw" and t.value == "make" for t in tokens[:-1])

    def test_positions_tracked(self):
        tokens = list(tokenize("a\n  b"))
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_comments_skipped(self):
        tokens = list(tokenize("a // comment\nb"))
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_unexpected_character(self):
        with pytest.raises(YatlSyntaxError):
            list(tokenize("a @ b"))


class TestFilterParsing:
    def test_figure4_filter(self):
        flt = parse_filter(
            "works *work [ artist: $a, title: $t', style: $s, *($fields) ]"
        )
        assert flt.label == "works"
        star = flt.children[0]
        assert isinstance(star, FStar)
        work = star.child
        assert work.children[0] == FElem("artist", (FVar("a"),))
        assert work.children[1] == FElem("title", (FVar("t'"),))
        assert isinstance(work.children[3], FRest)

    def test_dotted_paths(self):
        flt = parse_filter("doc . work [ title . $t, more . cplace . $cl ]")
        assert flt.label == "doc"
        work = flt.children[0]
        title = work.children[0]
        assert title.children[0] == FVar("t")
        more = work.children[1]
        assert more.children[0].label == "cplace"

    def test_colon_and_dot_equivalent(self):
        assert parse_filter("a: b: $x") == parse_filter("a . b . $x")

    def test_tree_variable_capture(self):
        flt = parse_filter("works *work $w")
        assert flt.children[0].child.var == "w"

    def test_label_variable(self):
        flt = parse_filter("tuple [ $l: $v ]")
        item = flt.children[0]
        assert item.label == LabelVar("l")
        assert item.children[0] == FVar("v")

    def test_constant_leaf(self):
        flt = parse_filter('work [ style: "Impressionist", year: 1897 ]')
        assert flt.children[0].children[0] == FConst("Impressionist")
        assert flt.children[1].children[0] == FConst(1897)

    def test_star_over_variable(self):
        flt = parse_filter("owners *$o")
        assert flt.children[0] == FStar(FVar("o"))

    def test_nested_view_filter(self):
        flt = parse_filter(
            "set *class: artifact: tuple [ title: $t, "
            "owners: list *class: person: tuple [ name: $o ] ]"
        )
        assert flt.label == "set"
        klass = flt.children[0].child
        assert klass.label == "class"
        tuple_filter = klass.children[0].children[0]
        owners = tuple_filter.children[1]
        inner_star = owners.children[0].children[0]
        assert isinstance(inner_star, FStar)


class TestQueryParsing:
    def test_q1(self):
        query = parse_query(Q1)
        assert len(query.matches) == 1
        assert query.matches[0].document == "artworks"
        assert isinstance(query.make, CValue)
        assert isinstance(query.where, Cmp)

    def test_view_program(self):
        program = parse_program(VIEW1_YAT)
        assert [r.name for r in program.rules] == ["artworks"]
        query = program.rules[0].query
        assert len(query.matches) == 2
        assert isinstance(query.where, BoolAnd)

    def test_view_make_grouping_and_skolem(self):
        program = parse_program(VIEW1_YAT)
        make = program.rules[0].query.make
        assert isinstance(make, CElem)
        group = make.children[0]
        assert isinstance(group, CGroup)
        work = group.child
        assert work.skolem[0] == "artwork"
        assert [e.name for e in work.skolem[1]] == ["t", "c"]

    def test_make_iterate_and_leaf(self):
        query = parse_query(
            "MAKE doc [ * item [ title: $t ] ] MATCH d WITH x: $t"
        )
        item = query.make.children[0]
        assert isinstance(item, CIterate)
        assert isinstance(item.child.children[0], CLeaf)

    def test_make_function_call_in_where(self):
        query = parse_query(
            'MAKE $t MATCH d WITH works *work $w '
            'WHERE contains($w, "impressionist")'
        )
        assert isinstance(query.where, FunCall)
        assert query.where.name == "contains"

    def test_empty_program_rejected(self):
        with pytest.raises(YatlSyntaxError):
            parse_program("   ")

    @pytest.mark.parametrize(
        "bad",
        [
            "MAKE $t",                     # missing MATCH
            "MATCH d WITH x: $t",          # missing MAKE
            "MAKE $t MATCH d x: $t",       # missing WITH
            "MAKE $t MATCH d WITH x: $t WHERE",
            "rule() = MAKE $t MATCH d WITH x: $t",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(YatlSyntaxError):
            parse_query(bad) if "rule" not in bad else parse_program(bad)


class TestTranslation:
    def resolve(self, document):
        return {"artifacts": "o2", "artworks": "wais", "d": "s"}[document]

    def test_figure5_shape(self):
        """Translation steps 1-5 produce the Figure 5 operator tree."""
        program = parse_program(VIEW1_YAT)
        plan = translate_query(program.rules[0].query, self.resolve, "artworks")
        assert isinstance(plan, TreeOp)
        join = plan.input
        assert isinstance(join, JoinOp)
        # $y > 1800 sits on the artifacts branch (step 4)
        assert isinstance(join.left, SelectOp)
        assert join.left.predicate.text() == "$y > 1800"
        assert isinstance(join.left.input, BindOp)
        assert isinstance(join.left.input.input, SourceOp)
        assert join.left.input.input.source == "o2"
        # the join carries the cross-source equalities (step 3)
        assert set(join.predicate.variables()) == {"c", "a", "t", "t'"}
        # the artworks branch is a bare Bind
        assert isinstance(join.right, BindOp)
        assert join.right.input.source == "wais"

    def test_bare_make_wrapped_with_iteration(self):
        query = parse_query("MAKE $t MATCH d WITH x: $t")
        plan = translate_query(query, self.resolve)
        root = plan.constructor
        assert isinstance(root, CElem)
        assert isinstance(root.children[0], CIterate)

    def test_unbound_variable_rejected(self):
        query = parse_query("MAKE $t MATCH d WITH x: $t WHERE $ghost = 1")
        with pytest.raises(YatlTranslationError):
            translate_query(query, self.resolve)

    def test_single_source_predicate_stays_on_branch(self):
        query = parse_query(
            "MAKE $t MATCH d WITH x [ a: $t, b: $y ] WHERE $y > 5"
        )
        plan = translate_query(query, self.resolve)
        assert isinstance(plan.input, SelectOp)
        assert isinstance(plan.input.input, BindOp)

    def test_three_way_join_attaches_predicates_when_available(self):
        query = parse_query(
            "MAKE $a MATCH d WITH x: $a, d WITH y: $b, d WITH z: $c "
            "WHERE $a = $b AND $b = $c"
        )
        plan = translate_query(query, self.resolve)
        outer_join = plan.input
        assert isinstance(outer_join, JoinOp)
        assert outer_join.predicate.text() == "$b = $c"
        inner_join = outer_join.left
        assert isinstance(inner_join, JoinOp)
        assert inner_join.predicate.text() == "$a = $b"


#: A reference MAKE: each item holds a reference to the Skolem identifier
#: ``artwork($t)``, not a copy of the work (paper, Section 2).
REFERENCE_MAKE = (
    "MAKE doc [ * item [ &artwork($t): work ] ] "
    "MATCH artworks WITH doc . work [ title . $t ]"
)


class TestReferenceMake:
    def test_parses_to_a_reference_constructor(self):
        item = parse_query(REFERENCE_MAKE).make.children[0].child
        assert isinstance(item.children[0], CRef)

    @pytest.mark.parametrize(
        "execution", [None, ExecutionPolicy.serial()], ids=["default", "serial"]
    )
    def test_builds_one_reference_per_title(self, execution):
        mediator = build_mediator(*CulturalDataset(n_artifacts=6, seed=3).build())
        result = mediator.query(REFERENCE_MAKE, execution=execution)
        assert tree_to_xml(result.document()) == "<doc>" + "".join(
            f'<item><work ref="artwork_{index}" /></item>' for index in range(1, 7)
        ) + "</doc>"
