"""Document indexes: the positional encoding behind the twig join.

Three contracts:

* :class:`DocumentIndex` positions agree with naive pre-order scans —
  same nodes, same document order, parent/child and subtree intervals;
* unsound tree shapes (references, shared nodes, foreign nodes) disable
  the index instead of risking a wrong answer;
* the registry is lazy, size-gated *before* it touches its table (small
  trees can never evict a real index), bounded, and invalidated by the
  mediator's catalog-epoch bumps.

That the matchers agree with the oracle whether or not a tree is indexed
is ``tests/test_bind_engine.py``'s property.
"""

from __future__ import annotations

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.datasets import small_figure1_pair
from repro.errors import BindError
from repro.model.filters import FElem, FStar, FVar
from repro.model.indexes import (
    MIN_INDEX_NODES,
    DocumentIndex,
    IndexRegistry,
    document_index,
    index_registry_stats,
    reset_document_indexes,
)
from repro.model.trees import DataNode, atom_leaf, elem, ref
from repro.core.algebra.bind import FilterMatcher
from tests.test_bind_engine import works_tree


# ---------------------------------------------------------------------------
# DocumentIndex lookups vs naive scans
# ---------------------------------------------------------------------------

class TestDocumentIndex:
    def test_positions_are_the_preorder_scan(self):
        tree = works_tree()
        index = DocumentIndex(tree)
        naive = list(tree.descendants())
        assert index.node_count == len(naive) == tree.size()
        assert all(a is b for a, b in zip(index.preorder_nodes, naive))
        for pos, node in enumerate(naive):
            assert index.position_of(node) == pos
            assert index.subtree_ends[pos] == pos + node.size()

    def test_label_list_matches_naive_scan(self):
        tree = works_tree()
        index = DocumentIndex(tree)
        for label in ("work", "name", "year", "works", "absent"):
            naive = [
                pos for pos, node in enumerate(tree.descendants())
                if node.label == label
            ]
            assert list(index.label_list(label)) == naive

    def test_children_map_groups_direct_children_in_document_order(self):
        tree = works_tree()
        index = DocumentIndex(tree)
        nodes = index.preorder_nodes
        for label in ("work", "name", "title", "absent"):
            mapped = index.children_map(label)
            assert index.children_map(label) is mapped  # built once
            for pos, node in enumerate(nodes):
                naive = [c for c in node.children if c.label == label]
                got = [nodes[child] for child in mapped.get(pos, ())]
                assert len(got) == len(naive)
                assert all(a is b for a, b in zip(got, naive))
        # Grandchildren must not leak in: "name" is one level deeper.
        assert 0 not in index.children_map("name")

    def test_reference_nodes_disable_seeking(self):
        tree = elem(
            "artifacts",
            elem("artifact", atom_leaf("name", "Guernica"), ref("cplace", "m1")),
        )
        index = DocumentIndex(tree)
        assert not index.supports_seek
        assert not index.covers(tree)

    def test_shared_node_objects_disable_seeking(self):
        leaf = atom_leaf("x", 1)
        tree = DataNode("pair", children=[leaf, leaf])
        index = DocumentIndex(tree)
        assert not index.supports_seek

    def test_foreign_nodes_are_not_covered(self):
        tree = works_tree()
        other = works_tree()
        index = DocumentIndex(tree)
        assert index.covers(tree)
        assert index.covers(tree.children[0])
        assert not index.covers(other)
        with pytest.raises(KeyError):
            index.position_of(other)


# ---------------------------------------------------------------------------
# Registry: laziness, gates, invalidation
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_small_trees_never_touch_the_table(self):
        registry = IndexRegistry()
        small = elem("works", elem("work", atom_leaf("title", "t")))
        assert small.size() < MIN_INDEX_NODES
        assert registry.get(small) is None
        assert registry.get(small) is None
        stats = registry.stats()
        assert (stats["entries"], stats["hits"], stats["builds"]) == (0, 0, 0)

    def test_small_trees_cannot_evict_a_real_index(self):
        # Regression: every below-gate tree used to take one of the 64
        # slots as a None entry, and overflow cleared the whole table —
        # per-row Bind targets kept evicting the documents' indexes.
        registry = IndexRegistry()
        document = works_tree()
        first = registry.get(document)
        for i in range(200):
            assert registry.get(elem("row", atom_leaf("n", i))) is None
            assert registry.get(document) is first
        stats = registry.stats()
        assert (stats["builds"], stats["evictions"]) == (1, 0)
        assert stats["hits"] == 200

    def test_build_once_then_hit(self):
        registry = IndexRegistry()
        tree = works_tree()
        first = registry.get(tree)
        assert first is not None and first.covers(tree)
        assert registry.get(tree) is first
        stats = registry.stats()
        assert stats["builds"] == 1 and stats["hits"] == 1
        assert stats["entries"] == 1
        assert stats["build_seconds"] >= 0.0

    def test_unindexable_large_trees_are_remembered_as_scan(self):
        registry = IndexRegistry()
        children = [
            elem("artifact", atom_leaf("name", f"a{i}"), ref("cplace", "m1"))
            for i in range(MIN_INDEX_NODES)
        ]
        tree = DataNode("artifacts", children=children)
        assert registry.get(tree) is None
        assert registry.get(tree) is None
        stats = registry.stats()
        # One slot, one traversal: the second probe was a hit on None.
        assert (stats["entries"], stats["hits"]) == (1, 1)
        assert stats["builds"] == 0

    def test_capacity_is_the_enforced_bound(self):
        # Wiring only; eviction order is test_memo.py's.
        registry = IndexRegistry(capacity=4)
        for _ in range(6):
            registry.get(works_tree())
        stats = registry.stats()
        assert (stats["entries"], stats["evictions"]) == (4, 2)

    def test_invalidate_drops_every_index_as_stale(self):
        registry = IndexRegistry()
        tree = works_tree()
        registry.get(tree)
        registry.invalidate()
        stats = registry.stats()
        assert stats["entries"] == 0 and stats["stale"] == 1
        registry.get(tree)
        assert registry.stats()["builds"] == 2  # rebuilt after invalidation

    def test_catalog_change_invalidates_shared_registry(self):
        reset_document_indexes()
        try:
            tree = works_tree()
            document_index(tree)
            assert index_registry_stats()["entries"] == 1
            database, store = small_figure1_pair()
            mediator = Mediator()
            mediator.connect(O2Wrapper("o2artifact", database))
            mediator.connect(WaisWrapper("xmlartwork", store))
            mediator.declare_containment("artworks", "artifacts")
            stats = index_registry_stats()
            assert stats["entries"] == 0
            assert stats["stale"] >= 1
        finally:
            reset_document_indexes()


# ---------------------------------------------------------------------------
# The oracle's max_matches holds across a whole collection (the engine's
# equivalent guard is checked against it in test_bind_engine.py)
# ---------------------------------------------------------------------------

class TestCollectionBound:
    def test_bound_enforced_across_collection(self):
        # 4 works x 4 children each: 16 bindings per tree.
        tree = works_tree(4)
        flt = FElem("works", [FStar(FElem("work", [FVar("w")], var="x"))])
        per_tree = len(FilterMatcher().match(tree, flt))
        assert per_tree == 16
        matcher = FilterMatcher(max_matches=40)
        with pytest.raises(BindError) as excinfo:
            matcher.match_collection([tree, tree, tree], flt)
        assert "across a collection" in str(excinfo.value)

    def test_bound_not_triggered_within_limit(self):
        tree = works_tree(4)
        flt = FElem("works", [FStar(FElem("work", [FVar("w")], var="x"))])
        out = FilterMatcher(max_matches=48).match_collection(
            [tree, tree, tree], flt
        )
        assert len(out) == 48
