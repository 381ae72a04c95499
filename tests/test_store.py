"""The out-of-core document store: shredding, hydration, SQL pushdown.

The contract under test is *byte-identical answers*: whatever a stored
document is asked, the result must equal what the in-memory engines
(:class:`~repro.core.algebra.bind.FilterMatcher`, the compiled twig
join) produce over the same tree — same values, same order, same error
messages.  The pushdown pass earns its keep separately: the lazy-
hydration tests prove that a selective interval join materializes only a
small fraction of the document's nodes.
"""

import random

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
from repro.model.indexes import DocumentIndex
from repro.model.trees import DataNode, atom_leaf, elem, ref
from repro.model.xml_io import tree_to_xml
from repro.core.algebra.bind import FilterMatcher, match_filter
from repro.store import DocumentStore, compile_pushdown, shred
from repro.yatl.parser import parse_filter


def cultural_tree(n_artifacts=40, seed=7) -> DataNode:
    _database, wais = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    return wais.collection_tree()


def pushdown_rows(store, document, flt, bound=1_000_000):
    """Execute a compiled pushdown and decode its binding tuples."""
    compiled = compile_pushdown(flt)
    assert compiled is not None, f"filter did not compile: {flt!r}"
    raw = store.fetch_bounded(compiled.sql, compiled.bind_params(document), bound)
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
        hydrated = store.hydrate_document("artworks")
        assert hydrated == tree
        assert tree_to_xml(hydrated) == tree_to_xml(tree)
        assert store.node_count("artworks") == tree.size()
        assert store.pushdown_safe("artworks")

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
        hydrated = store.hydrate_document("catalog")
        assert hydrated == tree
        assert hydrated.ident == "root"
        assert hydrated.children[0].ident == "e1"
        assert hydrated.children[1].is_reference
        assert hydrated.children[1].ref_target == "person:monet"
        assert hydrated.children[2].collection == "list"
        # references make interval pushdown unsound for this document
        assert not store.pushdown_safe("catalog")

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
        hydrated = store.hydrate_document("doc")
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
        assert not store.pushdown_safe("doc")
        # hydration is still exact (the copy is a proper tree)
        assert store.hydrate_document("doc") == tree

    def test_positions_agree_with_document_index(self):
        # Shredded (pre, post, parent, name) rows are DocumentIndex
        # positions, which is what entitles the SQL interval joins to
        # stand in for the twig join's positional arrays.
        tree = cultural_tree(n_artifacts=12)
        rows, count, safe = shred(tree)
        index = DocumentIndex(tree)
        assert count == index.node_count
        assert safe == index.supports_seek
        assert [row[0] for row in rows] == list(range(count))
        assert [row[1] for row in rows] == list(index.subtree_ends)
        labels = [node.label for node in index.preorder_nodes]
        assert [row[3] for row in rows] == labels
        parents = {}
        for label in set(labels):
            for parent, children in index.children_map(label).items():
                parents.update((child, parent) for child in children)
        assert [row[2] for row in rows] == [None] + [
            parents[pre] for pre in range(1, count)
        ]

    def test_stored_rows_keep_their_positions(self):
        tree = cultural_tree(n_artifacts=15)
        store = DocumentStore()
        store.add("artworks", tree)
        index = DocumentIndex(tree)
        for pre in index.label_list("work")[:5]:
            assert store.hydrate("artworks", pre) == index.preorder_nodes[pre]

    def test_update_replaces_rows(self):
        store = DocumentStore()
        store.add("doc", elem("doc", atom_leaf("x", 1)))
        assert store.node_count("doc") == 2
        store.add("doc", elem("doc", atom_leaf("x", 1), atom_leaf("y", 2)))
        assert store.node_count("doc") == 3
        assert len(store.hydrate_document("doc").children) == 2

    def test_missing_document_raises(self):
        store = DocumentStore()
        with pytest.raises(SourceError):
            store.hydrate_document("ghost")


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
        assert compile_pushdown(FElem("a", [FRest("rest")])) is None
        assert compile_pushdown(FElem(LabelVar("l"), [FVar("v")])) is None
        assert compile_pushdown(FVar("x")) is None
        # lossy numeric constants can't use the REAL comparison key
        assert compile_pushdown(FElem("a", [FConst(2**63 + 1)])) is None
        assert compile_pushdown(FElem("a", [FConst(float("nan"))])) is None

    def test_starred_items_compile_like_plain(self):
        flt = FElem("works", [FStar(FElem("work", [FVar("w")]))])
        assert compile_pushdown(flt) is not None


class TestPushdownParity:
    """SQL interval joins must reproduce the matcher's rows and order."""

    def assert_parity(self, tree, flt):
        store = DocumentStore()
        store.add("doc", tree)
        assert store.pushdown_safe("doc")
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
            store.fetch_bounded(compiled.sql, compiled.bind_params("doc"), 3)
        assert str(store_error.value) == str(matcher_error.value)


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

    def test_hydration_memo_capacity_is_the_enforced_bound(self):
        # Wiring only; eviction mechanics are test_memo.py's.
        tree = cultural_tree(n_artifacts=30)
        store = DocumentStore(hydration_memo_capacity=4)
        store.add("artworks", tree)
        work_positions = list(DocumentIndex(tree).label_list("work"))[:12]
        first = store.hydrate("artworks", work_positions[0])
        assert store.hydrate("artworks", work_positions[0]) is first
        for position in work_positions:
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
        assert wrapper.pushdown_access(flt, "refdoc") == "store-scan"
        # but the same filter on a safe document takes the pushdown
        source.add_tree("safe", elem("doc", elem("work", atom_leaf("title", "C"))))
        assert wrapper.pushdown_access(flt, "safe") == "store-pushdown"

    def test_disabled_pushdown_reports_scan_access(self):
        _tree, source = self.make_unsafe_source()
        wrapper = StoreWrapper("depot", source, enable_pushdown=False)
        flt = parse_filter('doc . work . title . $t')
        assert wrapper.pushdown_access(flt) == "store-scan"

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
        # A label variable is outside both the SQL and the twig
        # fragment: the scan kernel answers it.  An FRest filter is in
        # the twig fragment: the twig join does, on the same document.
        from repro.core.algebra.operators import BindOp, SourceOp

        tree = cultural_tree(n_artifacts=40)
        source = StoredXmlSource()
        source.add_tree("artworks", tree)
        wrapper = StoreWrapper("depot", source)
        work = [FElem("title", [FVar("t")])]
        cases = {
            "kernel": [FElem(LabelVar("field"), [FConst("Giverny")])] + work,
            "twig": work + [FRest("rest")],
        }
        for matcher, items in cases.items():
            flt = FElem("works", [FStar(FElem("work", items))])
            tab, native = wrapper.execute_pushed(
                BindOp(SourceOp("depot", "artworks"), flt, on="artworks")
            )
            assert native == (
                f"store-scan artworks ({matcher}, full hydration)"
            )
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
        # The write dropped the old hydration as stale, not as an eviction.
        memo = store.memo_stats()
        assert (memo["stale"], memo["evictions"]) == (1, 0)


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

    def test_interface_advertises_descend(self):
        _tree, wrapper, _mediator = self.build()
        interface = wrapper.interface()
        fmodel = interface.fmodels["storefmodel"]
        assert fmodel.resolve("Felement").descend == "any"
