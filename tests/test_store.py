"""The out-of-core document store: shredding, hydration, SQL pushdown.

The contract under test is *byte-identical answers*: whatever a stored
document is asked, the result must equal what the in-memory engines
(:class:`~repro.core.algebra.bind.FilterMatcher`, the compiled scan
kernel) produce over the same tree — same values, same order, same error
messages.  The pushdown pass earns its keep separately: the lazy-
hydration tests prove that a selective interval join materializes only a
small fraction of the document's nodes.
"""

import random
import re
import sqlite3
import sys
import threading
import time

import pytest

from repro import Mediator, StoredXmlSource, StoreWrapper
from repro.datasets import CulturalDataset
from repro.errors import BindError, SourceError
from repro.model.filters import (
    FConst,
    FDescend,
    FElem,
    FRest,
    FStar,
    FVar,
    LabelVar,
)
from repro.model.trees import DataNode, atom_leaf, elem, ref
from repro.model.xml_io import tree_to_xml
from repro.core.algebra.bind import FilterMatcher, match_filter
from repro.core.algebra.expressions import Param
from repro.core.algebra.lowering import lower
from repro.observability.context import RequestContext, activate_context
from repro.store import DocumentStore, compile_pushdown, document_store, shred
from repro.yatl.parser import parse_filter


def cultural_tree(n_artifacts=40, seed=7) -> DataNode:
    _database, wais = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    return wais.collection_tree()


def preorder(tree):
    """``(node, parent position or None)`` per node, in pre-order."""
    walk = []

    def visit(node, parent):
        position = len(walk)
        walk.append((node, parent))
        for child in node.children:
            visit(child, position)

    visit(tree, None)
    return walk


def work_positions(tree):
    return [pre for pre, (node, _) in enumerate(preorder(tree)) if node.label == "work"]


def statement(store, compiled, document):
    """*compiled*'s SQL as it runs on *document*'s table."""
    return compiled.sql.format(table=store.meta(document).table)


def pushdown_rows(store, document, flt, bound=1_000_000):
    """Execute a compiled pushdown and decode its binding tuples."""
    compiled = compile_pushdown(flt)
    assert compiled is not None, f"filter did not compile: {flt!r}"
    raw = store.fetch_bounded(
        statement(store, compiled, document), compiled.bind_params(), bound
    )
    from repro.model.values import parse_atom

    rows = []
    for record in raw:
        cells = []
        for i in range(len(compiled.variables)):
            pre, kind, vtype, value = record[4 * i : 4 * i + 4]
            if kind == "atom":
                cells.append(parse_atom(vtype, value))
            else:
                cells.append(store.hydrate(document, pre))
        rows.append(tuple(cells))
    return compiled.variables, rows


def matcher_rows(tree, flt):
    bindings = match_filter(tree, flt)
    variables = flt.variables()
    return variables, [tuple(b[name] for name in variables) for b in bindings]


class TestShredRoundTrip:
    def test_cultural_round_trip(self):
        tree = cultural_tree()
        store = DocumentStore()
        store.add("artworks", tree)
        hydrated = store.hydrate("artworks")
        assert hydrated == tree
        assert tree_to_xml(hydrated) == tree_to_xml(tree)
        assert store.node_count("artworks") == tree.size()
        assert store.meta("artworks").pushdown_safe

    def test_round_trip_preserves_refs_idents_collections(self):
        tree = DataNode(
            "catalog",
            children=(
                elem("entry", atom_leaf("title", "Nympheas"), ident="e1"),
                ref("artist", "person:monet"),
                DataNode(
                    "items",
                    children=(atom_leaf("n", 1), atom_leaf("n", 2)),
                    collection="list",
                ),
            ),
            ident="root",
        )
        store = DocumentStore()
        store.add("catalog", tree)
        hydrated = store.hydrate("catalog")
        assert hydrated == tree
        assert hydrated.ident == "root"
        assert hydrated.children[0].ident == "e1"
        assert hydrated.children[1].is_reference
        assert hydrated.children[1].ref_target == "person:monet"
        assert hydrated.children[2].collection == "list"
        # references make interval pushdown unsound for this document
        assert not store.meta("catalog").pushdown_safe

    def test_atom_types_round_trip(self):
        tree = elem(
            "doc",
            atom_leaf("s", "text"),
            atom_leaf("i", 42),
            atom_leaf("f", 3.25),
            atom_leaf("b", True),
            atom_leaf("big", 2**63),
            atom_leaf("neg", -0.5),
        )
        store = DocumentStore()
        store.add("doc", tree)
        hydrated = store.hydrate("doc")
        for original, copy in zip(tree.children, hydrated.children):
            assert copy.atom == original.atom
            assert type(copy.atom) is type(original.atom)

    def test_shared_subtree_is_pushdown_unsafe(self):
        leaf = atom_leaf("x", 1)
        tree = DataNode("doc", children=(elem("a", leaf), elem("b", leaf)))
        _rows, _count, safe = shred(tree)
        assert not safe
        store = DocumentStore()
        store.add("doc", tree)
        assert not store.meta("doc").pushdown_safe
        # hydration is still exact (the copy is a proper tree)
        assert store.hydrate("doc") == tree

    def test_positions_agree_with_a_preorder_walk(self):
        # Shredded (pre, post, parent, name) rows are pre-order positions
        # with half-open subtree intervals, which is what entitles the
        # SQL interval joins to stand in for tree navigation.  The root's
        # parent is shredded as -1, which the INSERT stores as NULL.
        tree = cultural_tree(n_artifacts=12)
        rows, count, safe = shred(tree)
        walk = preorder(tree)
        assert safe and count == len(walk) == tree.size()
        assert [row[:4] for row in rows] == [
            (pre, pre + node.size(), -1 if parent is None else parent, node.label)
            for pre, (node, parent) in enumerate(walk)
        ]

    def test_stored_rows_keep_their_positions(self):
        tree = cultural_tree(n_artifacts=15)
        store = DocumentStore()
        store.add("artworks", tree)
        for pre in work_positions(tree)[:5]:
            assert store.hydrate("artworks", pre) == preorder(tree)[pre][0]

    def test_update_replaces_rows(self):
        store = DocumentStore()
        store.add("doc", elem("doc", atom_leaf("x", 1)))
        assert store.node_count("doc") == 2
        store.add("doc", elem("doc", atom_leaf("x", 1), atom_leaf("y", 2)))
        assert store.node_count("doc") == 3
        assert len(store.hydrate("doc").children) == 2

    def test_missing_document_raises(self):
        store = DocumentStore()
        with pytest.raises(SourceError):
            store.hydrate("ghost")


def edge_case_tree(with_ref=True):
    """Every encoding corner a row can hit: a lossy int, NaN, inf, an
    empty and a ``'0'`` string, a bool, ident/collection, a reference
    (when *with_ref*) and an empty element."""
    return DataNode(
        "edge",
        children=(
            atom_leaf("lossy", 2**63 + 1),
            atom_leaf("nan", float("nan")),
            atom_leaf("inf", float("inf")),
            atom_leaf("empty", ""),
            atom_leaf("zero", "0"),
            atom_leaf("b", True),
            atom_leaf("i", 0),
            atom_leaf("f", 0.0),
            elem("idcol", atom_leaf("t", "x"), ident="e1"),
            DataNode("list", children=(atom_leaf("n", 1),), collection="list"),
            *((ref("r", "person:monet"),) if with_ref else ()),
            DataNode("void"),
        ),
        ident="root",
    )


class RecordingConnection:
    """A connection that keeps the rows handed to ``executemany``."""

    def __init__(self, conn):
        self.conn = conn
        self.batches = []

    def __getattr__(self, name):
        return getattr(self.conn, name)

    def __enter__(self):
        return self.conn.__enter__()

    def __exit__(self, *exc):
        return self.conn.__exit__(*exc)

    def executemany(self, sql, rows):
        rows = list(rows)
        self.batches.append(rows)
        return self.conn.executemany(sql, rows)


class TestStoredRowEncoding:
    #: ``quote() typeof()`` of the ten columns of every row of
    #: :func:`edge_case_tree`, as sqlite stores them.
    EDGE_ROWS = """
    0 integer|15 integer|NULL null|'edge' text|'elem' text|NULL null|NULL null|NULL null|'root' text|NULL null
    1 integer|2 integer|0 integer|'lossy' text|'atom' text|'Int' text|'9223372036854775809' text|NULL null|NULL null|NULL null
    2 integer|3 integer|0 integer|'nan' text|'atom' text|'Float' text|'nan' text|NULL null|NULL null|NULL null
    3 integer|4 integer|0 integer|'inf' text|'atom' text|'Float' text|'inf' text|Inf real|NULL null|NULL null
    4 integer|5 integer|0 integer|'empty' text|'atom' text|'String' text|'' text|NULL null|NULL null|NULL null
    5 integer|6 integer|0 integer|'zero' text|'atom' text|'String' text|'0' text|NULL null|NULL null|NULL null
    6 integer|7 integer|0 integer|'b' text|'atom' text|'Bool' text|'true' text|1.0 real|NULL null|NULL null
    7 integer|8 integer|0 integer|'i' text|'atom' text|'Int' text|'0' text|0.0 real|NULL null|NULL null
    8 integer|9 integer|0 integer|'f' text|'atom' text|'Float' text|'0.0' text|0.0 real|NULL null|NULL null
    9 integer|11 integer|0 integer|'idcol' text|'elem' text|NULL null|NULL null|NULL null|'e1' text|NULL null
    10 integer|11 integer|9 integer|'t' text|'atom' text|'String' text|'x' text|NULL null|NULL null|NULL null
    11 integer|13 integer|0 integer|'list' text|'elem' text|NULL null|NULL null|NULL null|NULL null|'list' text
    12 integer|13 integer|11 integer|'n' text|'atom' text|'Int' text|'1' text|1.0 real|NULL null|NULL null
    13 integer|14 integer|0 integer|'r' text|'ref' text|NULL null|'person:monet' text|NULL null|NULL null|NULL null
    14 integer|15 integer|0 integer|'void' text|'elem' text|NULL null|NULL null|NULL null|NULL null|NULL null
    """

    def test_edge_case_rows_are_pinned(self):
        store = DocumentStore()
        store.add("edge", edge_case_tree())
        columns = "pre, post, parent, name, kind, vtype, value, num, ident, col"
        cells = ", ".join(
            f"quote({c}) || ' ' || typeof({c})" for c in columns.split(", ")
        )
        stored = store._conn.execute(
            f"SELECT {cells} FROM {store.meta('edge').table} ORDER BY pre"
        ).fetchall()
        assert ["|".join(row) for row in stored] == [
            line.strip() for line in self.EDGE_ROWS.strip().splitlines()
        ]

    def test_rows_handed_to_executemany_hold_no_none(self):
        # A None parameter takes CPython's adapter lookup; the INSERT maps
        # the stand-ins back to NULL instead.
        store = DocumentStore()
        store._conn = RecordingConnection(store._conn)
        store.add("edge", edge_case_tree())
        store.add("artworks", cultural_tree(n_artifacts=10))
        rows = [row for batch in store._conn.batches for row in batch]
        assert len(rows) == 15 + cultural_tree(n_artifacts=10).size()
        assert [row for row in rows if None in row] == []


class TestPushdownCompile:
    def test_translatable_shapes_compile(self):
        for flt in (
            parse_filter('works . work . title . $t'),
            FDescend(parse_filter('work [ title . $t ]')),
            parse_filter('works .. title . $t'),
            parse_filter('works . work [ style . "Baroque", title . $t ]'),
            parse_filter('work $w'),
            parse_filter('works .. work .. note . $n'),
        ):
            assert compile_pushdown(flt) is not None, repr(flt)

    def test_untranslatable_shapes_refused(self):
        for flt, reason in (
            (FElem("a", [FRest("rest")]), "rest item"),
            (FElem(LabelVar("l"), [FVar("v")]), "label variable or regex"),
            (FVar("x"), "bare root"),
            (FElem("a", [FStar(FStar(FVar("x")))]), "misplaced star or rest"),
            # lossy numeric constants can't use the REAL comparison key
            (FElem("a", [FConst(2**63 + 1)]), "lossy numeric constant"),
            (FElem("a", [FConst(float("nan"))]), "lossy numeric constant"),
        ):
            assert compile_pushdown(flt) is None, repr(flt)
            assert lower(flt).refusal == reason, repr(flt)

    def test_starred_items_compile_like_plain(self):
        flt = FElem("works", [FStar(FElem("work", [FVar("w")]))])
        assert compile_pushdown(flt) is not None


class TestPushdownParity:
    """SQL interval joins must reproduce the matcher's rows and order."""

    def assert_parity(self, tree, flt):
        store = DocumentStore()
        store.add("doc", tree)
        assert store.meta("doc").pushdown_safe
        variables, sql_rows = pushdown_rows(store, "doc", flt)
        m_variables, m_rows = matcher_rows(tree, flt)
        assert variables == m_variables
        assert len(sql_rows) == len(m_rows)
        for sql_row, m_row in zip(sql_rows, m_rows):
            for sql_cell, m_cell in zip(sql_row, m_row):
                if isinstance(m_cell, DataNode):
                    assert isinstance(sql_cell, DataNode)
                    assert tree_to_xml(sql_cell) == tree_to_xml(m_cell)
                else:
                    assert sql_cell == m_cell
                    assert type(sql_cell) is type(m_cell)

    def test_child_steps(self):
        tree = cultural_tree(n_artifacts=25)
        self.assert_parity(tree, parse_filter('works . work . title . $t'))

    def test_constant_restriction(self):
        tree = cultural_tree(n_artifacts=25)
        self.assert_parity(
            tree,
            parse_filter('works . work [ style . "Impressionist", title . $t ]'),
        )

    def test_descent_to_element(self):
        tree = cultural_tree(n_artifacts=25)
        self.assert_parity(tree, parse_filter('works .. cplace . $c'))

    def test_descent_or_self_counts_anchor(self):
        # the root itself is a descendant-or-self match
        tree = elem("doc", elem("doc", atom_leaf("x", 1)))
        self.assert_parity(tree, FDescend(parse_filter('doc $d')))

    def test_nested_descents(self):
        tree = cultural_tree(n_artifacts=15)
        self.assert_parity(tree, parse_filter('works .. work .. note . $n'))

    def test_subtree_variable(self):
        tree = cultural_tree(n_artifacts=10)
        self.assert_parity(tree, parse_filter('works . work $w'))

    def test_numeric_constant_cross_type(self):
        tree = elem(
            "doc",
            atom_leaf("n", 1),
            atom_leaf("n", 1.0),
            atom_leaf("n", True),
            atom_leaf("n", "1"),
            atom_leaf("n", 2),
        )
        # 1 == 1.0 == True in Python; "1" and 2 match neither
        for flt in (
            FElem("doc", [FElem("n", [FConst(1)]), FElem("n", [FVar("v")])]),
            FElem("doc", [FElem("n", [FConst(1.0)])]),
            FElem("doc", [FElem("n", [FConst("1")]), FElem("n", [FVar("v")])]),
        ):
            self.assert_parity(tree, flt)

    def test_bare_descent_has_no_conditions(self):
        # Every node binds: the statement has no WHERE clause at all.
        tree = elem("doc", elem("doc", atom_leaf("x", 1)), atom_leaf("y", "z"))
        self.assert_parity(tree, FDescend(FVar("d")))

    def test_order_survives_a_seek_first_plan(self):
        # Two a's times two b . "k"'s.  A plan that seeks the rare "k"
        # first enumerates (b, a) pairs, out of the matcher's (a, b)
        # order: only the printed ORDER BY puts the rows back.
        filler = [atom_leaf("c", f"v{i}") for i in range(40)]
        rare = elem(
            "r",
            atom_leaf("a", 1),
            atom_leaf("a", 2),
            atom_leaf("b", "k"),
            atom_leaf("b", "k"),
        )
        tree = elem("doc", rare, *filler)
        self.assert_parity(tree, parse_filter('doc . r [ a . $x, b . "k" ]'))

    def test_numeric_constant_without_an_index(self):
        # No index covers num, so a numeric constant is a residual test
        # wherever the plan puts it: an exact REAL key, NULL for strings
        # and lossy values, equal across 1 == 1.0 == True.
        values = [1, 1.0, True, "1", 2**63 + 1, 2.5, 0, False]
        tree = elem(
            "doc",
            *[
                elem(
                    "item",
                    atom_leaf("n", values[i % len(values)]),
                    atom_leaf("id", i),
                )
                for i in range(48)
            ],
        )
        for constant in (1, 2.5, False):
            item = [FElem("n", [FConst(constant)]), FElem("id", [FVar("i")])]
            self.assert_parity(tree, FElem("doc", [FElem("item", item)]))
            self.assert_parity(tree, FDescend(FElem("n", [FConst(constant)])))

    def test_randomized_parity_fuzz(self):
        rng = random.Random(20260808)
        labels = ["a", "b", "c", "d"]
        atoms = ["x", "y", 1, 2.5, True, "1"]

        def random_tree(depth):
            label = rng.choice(labels)
            if depth >= 3 or rng.random() < 0.35:
                return atom_leaf(label, rng.choice(atoms))
            return DataNode(
                label,
                children=tuple(
                    random_tree(depth + 1) for _ in range(rng.randint(1, 3))
                ),
            )

        def random_filter(depth, counter):
            roll = rng.random()
            if depth >= 2 or roll < 0.3:
                if rng.random() < 0.5:
                    counter[0] += 1
                    return FVar(f"v{counter[0]}")
                return FConst(rng.choice(atoms))
            items = [
                random_filter(depth + 1, counter)
                for _ in range(rng.randint(1, 2))
            ]
            inner = FElem(rng.choice(labels), items)
            if roll < 0.5:
                return FDescend(inner)
            if roll < 0.6:
                return FStar(inner)
            return inner

        compiled_count = 0
        for _ in range(60):
            root = DataNode(
                "root",
                children=tuple(random_tree(1) for _ in range(rng.randint(1, 4))),
            )
            counter = [0]
            items = [random_filter(1, counter) for _ in range(rng.randint(1, 2))]
            flt = FElem("root", items)
            if rng.random() < 0.3:
                flt = FDescend(flt)
            if compile_pushdown(flt) is None:
                continue
            compiled_count += 1
            self.assert_parity(root, flt)
        # the generator must actually exercise the pushdown path
        assert compiled_count >= 20

    def test_explosion_message_parity(self):
        # both engines refuse oversized result sets with the same message
        tree = elem(
            "doc",
            *[atom_leaf("n", value) for value in range(4)],
        )
        flt = FElem("doc", [FElem("n", [FVar("a")]), FElem("n", [FVar("b")])])
        with pytest.raises(BindError) as matcher_error:
            FilterMatcher(max_matches=3).match(tree, flt)
        store = DocumentStore()
        store.add("doc", tree)
        compiled = compile_pushdown(flt)
        with pytest.raises(BindError) as store_error:
            store.fetch_bounded(
                statement(store, compiled, "doc"), compiled.bind_params(), 3
            )
        assert str(store_error.value) == str(matcher_error.value)


class TestStepBudget:
    """A plan that sorts builds its whole join before its first row, so
    the store's step budget, not the row bound, stops it; the scan then
    decides."""

    @staticmethod
    def mediator(tree):
        source = StoredXmlSource()
        source.add_tree("stored", tree)
        mediator = Mediator()
        mediator.connect(StoreWrapper("depot", source))
        return source.store, mediator

    def test_a_sorted_explosion_is_refused_in_bounded_time(self):
        # 10^8 (x, y) pairs beside a seekable constant: the printer
        # sorts, so the step budget ends the join and the scan refuses.
        leaves = [atom_leaf("a", f"v{i}") for i in range(10_000)]
        store, mediator = self.mediator(elem("doc", *leaves, atom_leaf("a", "k")))
        started = time.perf_counter()
        with pytest.raises(BindError, match="refusing the cartesian explosion"):
            mediator.query('MAKE $x MATCH stored WITH doc [ a . $x, a . $y, a . "k" ]')
        assert time.perf_counter() - started < 20
        assert store.stats()["scans"] == 1

    def test_past_the_budget_the_scan_answers(self, monkeypatch):
        monkeypatch.setattr(document_store, "PUSHDOWN_STEPS", 0)
        tree = cultural_tree(n_artifacts=40)
        store, mediator = self.mediator(tree)
        result = mediator.query("MAKE $t MATCH stored WITH works .. work . title . $t")
        flt = parse_filter("works .. work . title . $t")
        expected = sorted(b["t"] for b in match_filter(tree, flt))
        assert sorted(c.atom for c in result.document().children) == expected
        assert (store.stats()["pushdowns"], store.stats()["scans"]) == (0, 1)


class TestLazyHydration:
    def test_selective_descent_hydrates_under_20_percent(self):
        tree = cultural_tree(n_artifacts=200, seed=3)
        source = StoredXmlSource()
        source.add_tree("artworks", tree)
        store = source.store
        total = store.node_count("artworks")
        flt = parse_filter('works .. work [ cplace . "Giverny", title . $t ]')
        _variables, rows = pushdown_rows(store, "artworks", flt)
        assert rows  # the restriction is selective, not empty
        hydrated = store.stats()["hydrated_nodes"]
        assert hydrated < 0.2 * total, (hydrated, total)

    def test_atom_only_bindings_hydrate_nothing(self):
        tree = cultural_tree(n_artifacts=50)
        store = DocumentStore()
        store.add("artworks", tree)
        flt = parse_filter('works .. cplace . $c')
        _variables, rows = pushdown_rows(store, "artworks", flt)
        assert rows
        assert store.stats()["hydrated_nodes"] == 0

    def test_hydration_memo_capacity_is_the_enforced_bound(self, monkeypatch):
        # Wiring only; eviction mechanics are test_memo.py's.
        monkeypatch.setattr(document_store, "HYDRATION_MEMO_CAPACITY", 4)
        tree = cultural_tree(n_artifacts=30)
        store = DocumentStore()
        store.add("artworks", tree)
        positions = work_positions(tree)[:12]
        first = store.hydrate("artworks", positions[0])
        assert store.hydrate("artworks", positions[0]) is first
        for position in positions:
            store.hydrate("artworks", position)
        memo = store.memo_stats()
        assert (memo["entries"], memo["capacity"]) == (4, 4)


class TestScanFallback:
    def make_unsafe_source(self):
        tree = DataNode(
            "doc",
            children=(
                elem("work", atom_leaf("title", "A")),
                ref("artist", "person:1"),
                elem("work", atom_leaf("title", "B")),
            ),
        )
        source = StoredXmlSource()
        source.add_tree("refdoc", tree)
        return tree, source

    def test_unsafe_document_reports_scan_access(self):
        _tree, source = self.make_unsafe_source()
        wrapper = StoreWrapper("depot", source)
        flt = parse_filter('doc . work . title . $t')
        assert (
            wrapper.pushdown_access(flt, "refdoc")
            == "store-scan (document not pushdown-safe)"
        )
        # but the same filter on a safe document takes the pushdown
        source.add_tree("safe", elem("doc", elem("work", atom_leaf("title", "C"))))
        assert wrapper.pushdown_access(flt, "safe") == "store-pushdown"

    def test_disabled_pushdown_reports_scan_access(self):
        _tree, source = self.make_unsafe_source()
        wrapper = StoreWrapper("depot", source, enable_pushdown=False)
        flt = parse_filter('doc . work . title . $t')
        assert wrapper.pushdown_access(flt) == "store-scan (pushdown off)"

    def test_scan_access_names_the_refusal(self):
        source = StoredXmlSource()
        source.add_tree("safe", elem("doc", atom_leaf("n", 1)))
        wrapper = StoreWrapper("depot", source)
        rest = FElem("doc", [FRest("r")])
        assert wrapper.pushdown_access(rest, "safe") == "store-scan (rest item)"
        lifted = FElem("doc", [FElem("n", [FConst(Param(0, int))])])
        with activate_context(RequestContext(params=(1,))):
            assert wrapper.pushdown_access(lifted, "safe") == "store-pushdown"
        with activate_context(RequestContext(params=(2**63 + 1,))):
            assert (
                wrapper.pushdown_access(lifted, "safe")
                == "store-scan (lossy numeric constant)"
            )

    def test_unsafe_document_answers_via_scan(self):
        tree, source = self.make_unsafe_source()
        wrapper = StoreWrapper("depot", source)
        mediator = Mediator()
        mediator.connect(wrapper)
        result = mediator.query(
            'MAKE $t MATCH refdoc WITH doc . work [ title . $t ]'
        )
        titles = sorted(c.atom for c in result.document().children)
        assert titles == ["A", "B"]
        stats = wrapper.store_stats()
        assert stats["scans"] >= 1
        assert stats["pushdowns"] == 0

    def test_scan_runs_the_bind_engine_and_equals_the_oracle(self):
        # A label variable and a rest capture are both outside the SQL
        # fragment: the scan kernel answers each on the hydrated tree.
        from repro.core.algebra.operators import BindOp, SourceOp

        tree = cultural_tree(n_artifacts=40)
        source = StoredXmlSource()
        source.add_tree("artworks", tree)
        wrapper = StoreWrapper("depot", source)
        work = [FElem("title", [FVar("t")])]
        cases = (
            [FElem(LabelVar("field"), [FConst("Giverny")])] + work,
            work + [FRest("rest")],
        )
        for items in cases:
            flt = FElem("works", [FStar(FElem("work", items))])
            tab, native = wrapper.execute_pushed(
                BindOp(SourceOp("depot", "artworks"), flt, on="artworks")
            )
            assert native == "store-scan artworks (full hydration)"
            expected = [
                tuple(binding[var] for var in flt.variables())
                for binding in match_filter(tree, flt)
            ]
            assert expected
            assert [row.cells for row in tab.rows] == expected


class TestDataVersion:
    """Satellite: inserts/updates bump data_version, nothing serves stale rows."""

    def test_version_bumps_on_insert_and_update(self):
        source = StoredXmlSource()
        wrapper = StoreWrapper("depot", source)
        before = wrapper.data_version()
        source.add_tree("doc", elem("doc", atom_leaf("x", 1)))
        after_insert = wrapper.data_version()
        assert after_insert > before
        source.add_tree("doc", elem("doc", atom_leaf("x", 2)))
        assert wrapper.data_version() > after_insert

    def test_mediator_answers_stay_fresh_after_update(self):
        source = StoredXmlSource()
        source.add_tree(
            "catalog", elem("catalog", elem("work", atom_leaf("title", "Old")))
        )
        wrapper = StoreWrapper("depot", source)
        mediator = Mediator()
        mediator.connect(wrapper)
        query = 'MAKE $t MATCH catalog WITH catalog . work [ title . $t ]'
        first = mediator.query(query)
        assert [c.atom for c in first.document().children] == ["Old"]
        source.add_tree(
            "catalog",
            elem(
                "catalog",
                elem("work", atom_leaf("title", "New")),
                elem("work", atom_leaf("title", "Newer")),
            ),
        )
        second = mediator.query(query)
        assert sorted(c.atom for c in second.document().children) == [
            "New",
            "Newer",
        ]

    def test_stale_hydrations_die_with_the_version(self):
        store = DocumentStore()
        store.add("doc", elem("doc", atom_leaf("x", 1)))
        old = store.hydrate("doc", 0)
        store.add("doc", elem("doc", atom_leaf("x", 2)))
        fresh = store.hydrate("doc", 0)
        assert fresh is not old
        assert fresh.children[0].atom == 2
        # The write moved the resident hydration to the written tree: the
        # old one was neither dropped as stale nor evicted.
        memo = store.memo_stats()
        assert (memo["stale"], memo["evictions"]) == (0, 0)

    def test_a_write_invalidates_only_its_own_document(self):
        def catalog(title):
            return elem("catalog", elem("work", atom_leaf("title", title),
                                        atom_leaf("cplace", "Giverny")))

        source = StoredXmlSource()
        source.add_tree("a", catalog("A old"))
        source.add_tree("b", catalog("B"))
        mediator = Mediator()
        mediator.connect(StoreWrapper("depot", source))
        scan = (  # FRest: a hydrated scan of the whole document
            'MAKE doc [ * hit [ title: $t, more: $f ] ] MATCH {doc} WITH '
            'catalog . work [ title . $t, *($f) ]'
        )
        store = source.store
        b_answer = tree_to_xml(mediator.query(scan.format(doc="b")).document())
        hydrated = store.stats()["hydrated_nodes"]
        hits = store.memo_stats()["hits"]
        source.add_tree("a", catalog("A new"))
        again = tree_to_xml(mediator.query(scan.format(doc="b")).document())
        assert again == b_answer
        assert store.stats()["hydrated_nodes"] == hydrated  # b stayed warm
        assert store.memo_stats()["hits"] > hits
        a_answer = tree_to_xml(mediator.query(scan.format(doc="a")).document())
        assert "A new" in a_answer and "A old" not in a_answer


class TestWriteUpdate:
    """A write moves a resident whole-document hydration of a pushdown-
    safe document to the written tree; nothing else changes."""

    @staticmethod
    def identities(tree):
        return [(node.ident, node.collection) for node, _ in preorder(tree)]

    @pytest.mark.parametrize("tree", [
        cultural_tree(n_artifacts=20, seed=4), edge_case_tree(with_ref=False),
    ], ids=["cultural", "edge-cases"])
    def test_the_updated_tree_is_what_the_rows_hydrate(self, tmp_path, tree):
        path = str(tmp_path / "store.sqlite")
        store = DocumentStore(path)
        store.add("doc", cultural_tree(n_artifacts=5))
        store.hydrate("doc")
        store.add("doc", tree)
        served = store.hydrate("doc")
        assert served is tree
        store.close()
        reopened = DocumentStore(path)
        fresh = reopened.hydrate("doc")
        assert reopened.stats()["hydrated_nodes"] == tree.size()
        # repr: a NaN atom never equals itself, its key's text does.
        assert repr(served._value_key()) == repr(fresh._value_key())
        assert tree_to_xml(served) == tree_to_xml(fresh)
        assert self.identities(served) == self.identities(fresh)
        reopened.close()

    def test_ingest_retains_no_hydration(self):
        store = DocumentStore()
        for index in range(20):
            store.add(f"doc{index}", cultural_tree(n_artifacts=3, seed=index))
        assert store.memo_stats()["entries"] == 0

    def test_a_shared_subtree_document_is_rebuilt_from_rows(self):
        leaf = atom_leaf("x", 1)
        store = DocumentStore()
        store.add("doc", DataNode("doc", children=(elem("a", leaf), elem("b", leaf))))
        store.hydrate("doc")
        tree = DataNode("doc", children=(elem("a", leaf), elem("c", leaf)))
        store.add("doc", tree)
        hydrated = store.stats()["hydrated_nodes"]
        served = store.hydrate("doc")
        assert served is not tree and served == tree
        assert store.stats()["hydrated_nodes"] == hydrated + tree.size()
        assert store.memo_stats()["stale"] == 1

    def test_a_racing_read_never_sees_an_older_write(self):
        # Write j stores atom j and makes the version j + 1: a read that
        # began at version v may serve write v - 1 or later, never older.
        store = DocumentStore()
        store.add("doc", elem("doc", atom_leaf("n", 0)))
        writing = threading.Event()
        writing.set()
        failures, reads, writes = [], [], [0]

        def reader():
            try:
                while writing.is_set():
                    began = store.version
                    served = store.hydrate("doc").children[0].atom
                    reads.append(1)
                    if served < began - 1:
                        failures.append((began, served))
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(repr(error))

        def writer():
            deadline = time.perf_counter() + 0.2
            try:
                while time.perf_counter() < deadline:
                    writes.append(writes[-1] + 1)
                    store.add("doc", elem("doc", atom_leaf("n", writes[-1])))
            finally:
                writing.clear()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader) for _ in range(3)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(writes) >= 4 and len(reads) >= 3
        assert store.hydrate("doc").children[0].atom == writes[-1]

    def test_subtree_hydrations_still_die_by_tag(self):
        store = DocumentStore()
        store.add("doc", elem("doc", elem("w", atom_leaf("x", 1))))
        old = store.hydrate("doc", 1)
        store.add("doc", elem("doc", elem("w", atom_leaf("x", 2))))
        fresh = store.hydrate("doc", 1)
        assert fresh is not old and fresh.children[0].atom == 2
        assert store.memo_stats()["stale"] == 1


class TestPlannerStatistics:
    """ANALYZE runs when the document set changes, and a replacement's
    stale statistics pick the plans fresh ones would."""

    SHAPES = (  # stored_descent's twig and deep-twig filters
        'works .. work [ cplace . "Giverny", artist . "Claude Monet", title . $t ]',
        'works .. work [ artist . "Claude Monet", title . $t,'
        ' history . technique . $q ]',
    )

    @staticmethod
    def traced(store):
        statements = []
        store._conn.set_trace_callback(statements.append)
        return statements

    @staticmethod
    def analyzes(statements):
        return sum(sql.strip().upper().startswith("ANALYZE") for sql in statements)

    def plans(self, store, document):
        plans = []
        for text in self.SHAPES:
            compiled = compile_pushdown(parse_filter(text))
            plans.append(store._conn.execute(
                "EXPLAIN QUERY PLAN " + statement(store, compiled, document),
                compiled.bind_params(),
            ).fetchall())
        return plans

    def test_analyze_once_per_new_document_name(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = DocumentStore(path)
        statements = self.traced(store)
        store.add("coll0", cultural_tree(seed=1))
        store.add("coll1", cultural_tree(seed=2))
        assert self.analyzes(statements) == 2
        for seed in (3, 4, 5):
            store.add("coll0", cultural_tree(seed=seed))
        assert self.analyzes(statements) == 2
        store.close()
        # A store reopened from its file keeps sqlite_stat1: replacing a
        # document the file holds is not new, a third name is.
        reopened = DocumentStore(path)
        statements = self.traced(reopened)
        reopened.add("coll1", cultural_tree(seed=6))
        reopened.add("coll2", cultural_tree(seed=7))
        assert self.analyzes(statements) == 1
        reopened.close()

    def test_twig_plans_seek_the_value_index_before_the_work(self):
        # Pins sqlite's planner choice, as written against sqlite 3.40.1
        # (sqlite3.sqlite_version); another build may plan differently.
        store = DocumentStore()
        store.add("coll0", cultural_tree(n_artifacts=60, seed=1))
        store.add("coll1", cultural_tree(n_artifacts=60, seed=2))
        for text, plan in zip(self.SHAPES, self.plans(store, "coll0")):
            (work,) = [
                step.index
                for step in lower(parse_filter(text)).steps
                if step.value == "work"
            ]
            details = [row[3] for row in plan]
            seek = next(
                (i for i, detail in enumerate(details) if "_by_value" in detail),
                None,
            )
            step = next(
                i
                for i, detail in enumerate(details)
                if re.match(rf"(SEARCH|SCAN) n{work}\b", detail)
            )
            assert seek is not None and seek < step, details

    def test_replacements_keep_the_pushdown_plans(self):
        store = DocumentStore()
        store.add("coll0", cultural_tree(n_artifacts=60, seed=1))
        store.add("coll1", cultural_tree(n_artifacts=60, seed=2))
        after_ingest = self.plans(store, "coll0")
        for seed in (3, 4, 5):
            store.add("coll0", cultural_tree(n_artifacts=60, seed=seed))
        assert self.plans(store, "coll0") == after_ingest
        # What every replacement used to run: fresh statistics pick the
        # same plans the ingest statistics do.
        store._conn.execute("ANALYZE")
        assert self.plans(store, "coll0") == after_ingest


class TestStoreFile:
    def test_a_shared_table_file_is_refused(self, tmp_path):
        # The layout before one table per document: a shared nodes table.
        path = str(tmp_path / "shared.sqlite")
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE documents (doc TEXT PRIMARY KEY, nodes INTEGER,"
            " bytes INTEGER, root_children INTEGER, pushdown_safe INTEGER);"
            "CREATE TABLE nodes (doc TEXT, pre INTEGER, post INTEGER,"
            " parent INTEGER, name TEXT, kind TEXT, vtype TEXT, value TEXT,"
            " num REAL, ident TEXT, col TEXT, PRIMARY KEY (doc, pre));"
            "INSERT INTO documents VALUES ('doc', 1, 10, 0, 1);"
            "INSERT INTO nodes VALUES ('doc', 0, 1, NULL, 'doc', 'elem',"
            " NULL, NULL, NULL, NULL, NULL);"
        )
        conn.close()
        with pytest.raises(SourceError, match="re-ingest"):
            DocumentStore(path)

    def test_a_document_name_never_reaches_sql_text(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        name = 'x"; DROP TABLE documents; --'
        tree = cultural_tree(n_artifacts=8)
        flt = parse_filter('works . work . title . $t')
        store = DocumentStore(path)
        store.add(name, cultural_tree(n_artifacts=5, seed=2))
        store.add(name, tree)
        assert store.document_names() == (name,)
        assert pushdown_rows(store, name, flt) == matcher_rows(tree, flt)
        store.close()
        reopened = DocumentStore(path)
        assert reopened.hydrate(name) == tree
        assert reopened.root_label(name) == "works"
        reopened.close()


class TestWrapperIntegration:
    def build(self, **kwargs):
        tree = cultural_tree(n_artifacts=40)
        source = StoredXmlSource()
        source.add_tree("stored_artworks", tree)
        wrapper = StoreWrapper("depot", source, **kwargs)
        mediator = Mediator()
        mediator.connect(wrapper)
        return tree, wrapper, mediator

    QUERY = (
        'MAKE $t MATCH stored_artworks WITH '
        'works .. work [ title . $t, cplace . $cl ] WHERE $cl = "Giverny"'
    )

    def test_pushdown_and_scan_agree_with_in_memory(self):
        tree, _wrapper, pushdown_mediator = self.build()
        _tree2, _w2, scan_mediator = self.build(enable_pushdown=False)
        pushed = pushdown_mediator.query(self.QUERY)
        scanned = scan_mediator.query(self.QUERY)
        assert tree_to_xml(pushed.document()) == tree_to_xml(scanned.document())
        # oracle: the recursive matcher over the original in-memory tree
        flt = parse_filter('works .. work [ title . $t, cplace . "Giverny" ]')
        expected = sorted(b["t"] for b in match_filter(tree, flt))
        assert sorted(c.atom for c in pushed.document().children) == expected

    def test_explain_shows_store_access_path(self):
        _tree, _wrapper, mediator = self.build()
        explanation = mediator.explain(self.QUERY, analyze=True)
        rendered = explanation.render()
        assert "bind: store-pushdown" in rendered
        assert "store-pushdown stored_artworks: SELECT" in rendered
        # The statement that ran, with the document's table in place.
        assert "FROM nodes0 n0" in rendered and "{table}" not in rendered
        assert explanation.report.stats.store_pushdowns >= 1
        assert explanation.report.stats.store_scans == 0
        assert "document store:" in rendered

    def test_execution_stats_count_hydration(self):
        _tree, wrapper, mediator = self.build()
        explanation = mediator.explain(self.QUERY, analyze=True)
        stats = explanation.report.stats
        total = wrapper._store.node_count("stored_artworks")
        assert stats.store_hydrated_nodes < 0.2 * total
        assert stats.store_bytes_avoided > 0

    def test_one_documents_read_per_pushdown(self):
        _tree, wrapper, mediator = self.build()
        store = wrapper._store
        query = (
            'MAKE doc [ *$w ] MATCH stored_artworks WITH '
            'works .. work $w [ cplace . "Giverny" ]'
        )
        mediator.query(query)  # plans, and builds the interface
        store._hydration.clear()  # so the traced run hydrates subtrees
        before = store.stats()
        statements = []
        store._conn.set_trace_callback(statements.append)
        mediator.query(query)
        store._conn.set_trace_callback(None)
        after = store.stats()
        assert after["pushdowns"] - before["pushdowns"] == 1
        assert after["hydrated_nodes"] > before["hydrated_nodes"]
        assert sum("FROM documents" in sql for sql in statements) == 1, statements


    def test_interface_advertises_descend(self):
        _tree, wrapper, _mediator = self.build()
        interface = wrapper.interface()
        fmodel = interface.fmodels["storefmodel"]
        assert fmodel.resolve("Felement").descend == "any"
