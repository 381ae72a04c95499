"""Differential tests for the compiled OQL engine.

:mod:`repro.sources.objectdb.oql.compiled` promises byte-identical
behavior to the interpretive :func:`evaluate_oql` engine: same rows, same
order, and the same :class:`~repro.errors.OqlError` message on the same
bad input.  Every test here runs both engines and compares — including
the conjunct-hoisting optimizer, whose loop restructuring must never
change an answer.
"""

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.datasets import CulturalDataset, Q2, VIEW1_YAT
from repro.errors import OqlError
from repro.model.xml_io import tree_to_xml
from repro.sources.objectdb import (
    AtomicType,
    ClassDef,
    CollectionType,
    MethodDef,
    ObjectDatabase,
    Oid,
    RefType,
    Schema,
    TupleType,
    evaluate_oql,
    parse_oql,
)
from repro.sources.objectdb.oql.ast import OqlCompare, OqlPath, OqlSelect
from repro.sources.objectdb.oql.compiled import compile_select


@pytest.fixture
def db():
    schema = Schema("art")
    schema.add_class(
        ClassDef(
            "person",
            TupleType(
                [("name", AtomicType("String")), ("auction", AtomicType("Float"))]
            ),
            extent="persons",
        )
    )
    schema.add_class(
        ClassDef(
            "artifact",
            TupleType(
                [
                    ("title", AtomicType("String")),
                    ("year", AtomicType("Int")),
                    ("price", AtomicType("Float")),
                    ("owners", CollectionType("list", RefType("person"))),
                ]
            ),
            extent="artifacts",
        )
    )
    schema.add_method(
        MethodDef(
            "current_price",
            "artifact",
            AtomicType("Float"),
            lambda database, oid: database.get(oid).values["price"] * 1.1,
        )
    )
    database = ObjectDatabase(schema)
    p1 = database.insert("person", {"name": "Doctor X", "auction": 1.5e6})
    p2 = database.insert("person", {"name": "Ms Y", "auction": 2.0e6})
    database.insert(
        "artifact",
        {"title": "Nympheas", "year": 1897, "price": 2e6,
         "owners": [Oid(p1), Oid(p2)]},
    )
    database.insert(
        "artifact",
        {"title": "Old Piece", "year": 1600, "price": 100.0,
         "owners": [Oid(p2)]},
    )
    database.insert(
        "artifact",
        {"title": "New Piece", "year": 1999, "price": 50.0, "owners": []},
    )
    return database


def run_both(database, query):
    """Both engines' answers for *query* (text or AST), compared."""
    if isinstance(query, str):
        query = parse_oql(query)
    interpreted = evaluate_oql(query, database)
    compiled = compile_select(query).run(database)
    assert compiled == interpreted
    return compiled


def raise_both(database, query):
    """Both engines' errors for *query*, message-compared."""
    if isinstance(query, str):
        query = parse_oql(query)
    with pytest.raises(OqlError) as interpreted:
        evaluate_oql(query, database)
    with pytest.raises(OqlError) as compiled:
        compile_select(query).run(database)
    assert str(compiled.value) == str(interpreted.value)
    return str(compiled.value)


class TestAnswerParity:
    @pytest.mark.parametrize(
        "text",
        [
            "select t: A.title from A in artifacts",
            "select t: A.title, y: A.year from A in artifacts where A.year > 1800",
            'select t: A.title from A in artifacts where A.title = "Nympheas"',
            "select t: A.title, n: O.name from A in artifacts, O in A.owners",
            "select t: A.title, n: O.name from A in artifacts, O in A.owners "
            "where A.year > 1800 and O.auction > 1600000.0",
            "select t: A.title from A in artifacts "
            "where A.year > 1800 and A.price < 10.0 or A.year = 1600",
            "select t: A.title from A in artifacts where not A.year > 1800",
            "select p: A.current_price() from A in artifacts where A.year > 1800",
            "select n: P.name from P in persons, A in artifacts "
            "where P.auction > 1600000.0 and A.year > 1800",
            'select t: A.title from A in artifacts where "x" = "x"',
            "select o: O from A in artifacts, O in A.owners",
        ],
    )
    def test_rows_and_order(self, db, text):
        run_both(db, text)

    def test_hoisted_outer_conjunct_prunes_without_changing_rows(self, db):
        # A.year > 1800 only mentions the outer range; the compiler
        # evaluates it before entering O's loop.  Same rows either way.
        rows = run_both(
            db,
            "select t: A.title, n: O.name from A in artifacts, O in A.owners "
            "where A.year > 1800 and O.name = \"Ms Y\"",
        )
        assert {row["t"] for row in rows} == {"Nympheas"}

    def test_empty_dependent_range_short_circuits(self, db):
        # "New Piece" has no owners: the inner loop is empty, so nothing
        # with its title survives, under either engine.
        rows = run_both(
            db,
            "select t: A.title, n: O.name from A in artifacts, O in A.owners",
        )
        assert all(row["t"] != "New Piece" for row in rows)

    def test_unknown_comparison_op_falls_through_identically(self, db):
        # The interpretive ladder evaluates any unknown operator as >=;
        # the compiled form must mirror the quirk, not fix it.
        parsed = parse_oql("select t: A.title from A in artifacts where A.year > 0")
        where = OqlCompare("~", parsed.where.left, parsed.where.right)
        query = OqlSelect(parsed.projections, parsed.ranges, where)
        run_both(db, query)


class TestKeyProbeParity:
    """The disjunction a set-valued information-passing call states —
    ``(e1 = k and e2 = k') or ...`` — compiles to one trie probe per
    candidate; the interpreter compares key by key.  Same rows, same
    order, same errors."""

    @pytest.mark.parametrize(
        "where",
        [
            '(A.title = "Nympheas") or (A.title = "New Piece") or (A.title = "x")',
            '((A.title = "Nympheas") and (A.year = 1897)) or '
            '((A.title = "Nympheas") and (A.year = 1600)) or '
            '((A.title = "Old Piece") and (A.year = 1600))',
            # 1 = 1.0 = true and 2000000 = 2e6: a dict lookup agrees with "=".
            "(A.price = 2000000) or (A.price = 100) or (A.year = 1999.0)",
            "((A.year = 1600.0) and (A.price = 100)) or "
            "((A.year = true) and (A.price = 1))",
            # An unhashable candidate value (a list) is compared key by key.
            '(A.owners = "nobody") or (A.owners = 5)',
            # Mixed shapes stay an ordinary disjunction.
            '(A.title = "Nympheas") or (A.year > 1900)',
            '((A.title = "Nympheas") and (A.year = 1897)) or (A.year = 1600)',
            # Inside a conjunction, hoisted above the dependent range.
            '(A.year > 1000) and (((A.title = "Nympheas") and (A.year = 1897)) '
            'or ((A.title = "Old Piece") and (A.year = 1600)))',
        ],
    )
    def test_rows_and_order(self, db, where):
        run_both(
            db,
            "select t: A.title, n: O.name from A in artifacts, O in A.owners "
            f"where {where}",
        )

    def test_later_key_expression_is_only_evaluated_after_a_match(self, db):
        # A.nothing would raise; no key matches on the title, so neither
        # engine ever evaluates it.
        rows = run_both(
            db,
            "select t: A.title from A in artifacts where "
            '((A.title = "absent") and (A.nothing = 1)) or '
            '((A.title = "gone") and (A.nothing = 2))',
        )
        assert rows == []

    def test_error_in_a_reached_key_expression_is_the_same(self, db):
        raise_both(
            db,
            "select t: A.title from A in artifacts where "
            '((A.title = "Nympheas") and (A.nothing = 1)) or '
            '((A.title = "gone") and (A.nothing = 2))',
        )


class TestErrorParity:
    def test_unbound_variable(self, db):
        message = raise_both(
            db, 'select t: A.title from A in artifacts where B.title = "x"'
        )
        assert "B" in message

    def test_unknown_attribute(self, db):
        raise_both(db, "select t: A.nothing from A in artifacts")

    def test_range_over_scalar(self, db):
        raise_both(db, "select t: A.title from A in artifacts, X in A.title")

    def test_navigation_from_atom(self, db):
        raise_both(db, "select t: A.title.deeper from A in artifacts")

    def test_comparison_type_error(self, db):
        raise_both(db, "select t: A.title from A in artifacts where A.title > 5")

    def test_unknown_method(self, db):
        raise_both(db, "select v: A.appraise() from A in artifacts")

    def test_method_on_wrong_class(self, db):
        raise_both(db, "select v: P.current_price() from P in persons")

    def test_non_boolean_predicate(self, db):
        raise_both(db, "select t: A.title from A in artifacts where A.title")


class TestResultFreshness:
    def test_compiled_select_sees_database_updates(self, db):
        query = parse_oql("select t: A.title from A in artifacts")
        compiled = compile_select(query)
        before = compiled.run(db)
        db.insert(
            "artifact",
            {"title": "Fresh", "year": 2000, "price": 1.0, "owners": []},
        )
        after = compiled.run(db)
        assert len(after) == len(before) + 1
        assert after == evaluate_oql(query, db)

    def test_warm_mediator_answer_survives_a_source_update(self):
        """An insert after the plan cache and every wrapper memo are
        warm must change the answer exactly the way a cold mediator's
        would."""
        def fresh_mediator(database, store):
            mediator = Mediator()
            mediator.connect(O2Wrapper("o2artifact", database))
            mediator.connect(WaisWrapper("xmlartwork", store))
            mediator.declare_containment("artworks", "artifacts")
            mediator.load_program(VIEW1_YAT)
            return mediator

        database, store = CulturalDataset(n_artifacts=10, seed=3).build()
        warm = fresh_mediator(database, store)
        for _ in range(3):  # fill the plan cache and the wrapper memos
            answer = warm.query(Q2).document()
        stale = tree_to_xml(answer)

        # Duplicate an artifact already in the answer: the new object
        # matches the same Wais work, so the answer must gain a row.
        item = answer.children[0]
        owner = next(iter(database.extent("persons")))
        database.insert(
            "artifact",
            {
                "title": item.child("title").atom,
                "year": 1901,
                "creator": item.child("artist").atom,
                "price": 1234.56,
                "owners": [Oid(owner)],
            },
        )
        updated = tree_to_xml(warm.query(Q2).document())
        reference = tree_to_xml(fresh_mediator(database, store).query(Q2).document())
        assert updated == reference
        assert updated != stale
