"""Sharded & replicated sources: partitioning, pruning, scatter, failover.

Soundness here is a pair of agreements:

* *placement/pruning* — the partition scheme routes documents and prunes
  restrictions with the same function, so a pruned scatter can never miss
  a matching document;
* *order* — the logical source's document is defined as the shard-major
  concatenation of the shard documents, and every scatter-gather plan
  reproduces exactly that order, so the sharded federation is
  byte-identical to a monolithic mediator over ``shard_major_store``.

Failover is availability without answer changes: a dead replica reroutes
to the next one and the result must equal the all-healthy run with
``degraded`` still false.
"""

import pytest

from repro import (
    ExecutionPolicy,
    Mediator,
    MediatorServer,
    O2Wrapper,
    ResiliencePolicy,
    ServerConfig,
    WaisWrapper,
)
from repro.capabilities.xml_codec import interface_to_xml, xml_to_interface
from repro.core.algebra.evaluator import Environment, SourceAdapter, evaluate
from repro.core.algebra.expressions import Cmp, Const, Param, Var
from repro.core.algebra.operators import (
    BindOp,
    DJoinOp,
    LiteralOp,
    ProjectOp,
    PushedOp,
    ScatterOp,
    SelectOp,
    SourceOp,
)
from repro.core.algebra.tab import Row, Tab
from repro.core.optimizer.rules import OptimizerContext
from repro.core.optimizer.sharding import ShardExpansionRule
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.datasets.cultural import ARTISTS
from repro.errors import MediatorError, SourceError, SourceUnavailableError
from repro.model.filters import FConst, FStar, FVar, felem
from repro.model.trees import atom_leaf, elem
from repro.model.xml_io import tree_to_xml
from repro.observability import (
    MetricsRegistry,
    RequestContext,
    activate_context,
    record_execution,
)
from repro.sources.sharded import (
    HashPartition,
    ReplicaSet,
    ShardTopology,
    build_sharded_wais,
    shard_major_store,
    shard_name,
    shard_wais_store,
)
from repro.sources.sharded.partition import canonical_key, document_key_value
from repro.sources.wais.store import WaisStore
from repro.testing import FaultSchedule, FaultyWrapper
from repro.wrappers.base import Wrapper

PRUNE_Q = """MAKE $t
MATCH artworks WITH doc . work [ title . $t, artist . $a ]
WHERE $a = "%s"
"""

#: Every work, through an 8/8 scatter (the benchmark's ``scatter_scan``).
SCAN_Q = PRUNE_Q.replace('WHERE $a = "%s"\n', "")

#: ``HashPartition("artist", 8)`` places the dataset's eight artists on
#: six shards: shards 4 and 5 hold nothing.
EMPTY = (4, 5)


def build_pair(n_artifacts=60, seed=3, shards=4, replicas=1, wrap=None,
               partition=None, **mediator_kwargs):
    """A sharded mediator plus its monolithic shard-major oracle.

    Both run the same program over the same physical data; the oracle's
    store is the shard-major concatenation, which is what the sharded
    adapter (and every scatter plan) is defined to produce.
    """
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    partition = partition or HashPartition("artist", shards)
    stores = shard_wais_store(store, partition)

    mono = Mediator(result_cache_bytes=0)
    mono.connect(O2Wrapper("o2artifact", database))
    mono.connect(WaisWrapper("xmlartwork", shard_major_store(stores)))
    mono.declare_containment("artworks", "artifacts")
    mono.load_program(VIEW1_YAT)

    sharded = Mediator(**mediator_kwargs)
    sharded.connect(O2Wrapper("o2artifact", database))
    sharded.connect_sharded(
        "xmlartwork",
        build_sharded_wais(
            "xmlartwork", stores, replicas=replicas, wrap=wrap
        ),
        partition,
    )
    sharded.declare_containment("artworks", "artifacts")
    sharded.load_program(VIEW1_YAT)
    return mono, sharded, partition, stores


def answer(result) -> str:
    return tree_to_xml(result.document())


# ---------------------------------------------------------------------------
# partition schemes: placement and pruning agree by construction
# ---------------------------------------------------------------------------

class TestHashPartition:
    def test_equality_prunes_to_the_placement_shard(self):
        partition = HashPartition("artist", 5)
        for artist in ARTISTS:
            assert partition.prune(artist) == {partition.shard_of(artist)}

    def test_numeric_canonicalization_matches_equality_semantics(self):
        # 5, 5.0 and True/1 are all ``=``-equal, so they must co-locate.
        partition = HashPartition("price", 7)
        assert partition.shard_of(5) == partition.shard_of(5.0)
        assert partition.shard_of(True) == partition.shard_of(1.0)
        assert canonical_key(True) == ("num", 1.0)
        assert canonical_key(atom_leaf("price", 5)) == ("num", 5.0)

    def test_only_equality_prunes(self):
        # A hash preserves nothing about order: an order comparison on
        # the key, either way round, records no restriction.
        partition = HashPartition("price", 4)
        rule = ShardExpansionRule()
        for op in ("<", "<=", ">", ">="):
            for predicate in (Cmp(op, Var("p"), Const(10.0)),
                              Cmp(op, Const(10.0), Var("p"))):
                plan = SelectOp(
                    BindOp(
                        SourceOp("xmlartwork", "artworks"),
                        work_filter(felem("price", FVar("p"))),
                        on="artworks",
                    ),
                    predicate,
                )
                scatter = rule.apply(plan, sharded_context(partition))
                assert scatter.restrictions == ()
                assert scatter.shards() == (0, 1, 2, 3)

    def test_unkeyable_values_never_prune(self):
        partition = HashPartition("artist", 4)
        assert partition.prune(None) is None
        assert partition.prune(elem("artist", atom_leaf("x", 1))) is None


class TestDocumentKeyValue:
    def test_single_key_child(self):
        work = elem("work", atom_leaf("artist", "Monet"), atom_leaf("title", "N"))
        assert document_key_value(work, "artist") == "Monet"
        assert document_key_value(work, "style") is None

    def test_multi_valued_key_is_rejected(self):
        work = elem(
            "work", atom_leaf("artist", "A"), atom_leaf("artist", "B")
        )
        with pytest.raises(SourceError):
            document_key_value(work, "artist")


# ---------------------------------------------------------------------------
# the shard-expansion rewrite (unit level)
# ---------------------------------------------------------------------------

def work_filter(*artist_items):
    """``artworks [ * work [ artist-ish items..., title . $t ] ]``."""
    return felem(
        "artworks",
        FStar(felem("work", *artist_items, felem("title", FVar("t")))),
    )


def sharded_context(partition):
    names = tuple(shard_name("xmlartwork", i) for i in range(partition.shards))
    topology = ShardTopology("xmlartwork", partition, names)
    return OptimizerContext(shards={"xmlartwork": topology})


class TestShardExpansionRule:
    rule = ShardExpansionRule()

    def chain(self, flt, selects=(), project=None, keep_on=False):
        plan = BindOp(
            SourceOp("xmlartwork", "artworks"), flt, on="artworks",
            keep_on=keep_on,
        )
        for predicate in selects:
            plan = SelectOp(plan, predicate)
        if project is not None:
            plan = ProjectOp.keep(plan, project)
        return plan

    def test_expands_to_one_branch_per_shard(self):
        partition = HashPartition("artist", 4)
        plan = self.chain(work_filter(felem("artist", FVar("a"))))
        scatter = self.rule.apply(plan, sharded_context(partition))
        assert isinstance(scatter, ScatterOp)
        assert scatter.logical == "xmlartwork"
        assert len(scatter.branches) == 4 and scatter.shards() == (0, 1, 2, 3)
        sources = [b.input.source for b in scatter.branches]
        assert sources == [shard_name("xmlartwork", i) for i in range(4)]

    def test_in_filter_constant_prunes_per_execution(self):
        partition = HashPartition("artist", 4)
        plan = self.chain(work_filter(felem("artist", FConst("Monet"))))
        scatter = self.rule.apply(plan, sharded_context(partition))
        # Every shard keeps its branch; the constant is a restriction
        # each execution applies.
        assert len(scatter.branches) == 4
        assert scatter.shards() == (partition.shard_of("Monet"),)

    def test_rule_reads_no_constant_value(self):
        # A query parameter has no value at planning time (reading one
        # outside a request raises), yet one Scatter prunes per vector.
        partition = HashPartition("artist", 4)
        plan = self.chain(
            work_filter(felem("artist", FVar("a"))),
            selects=[Cmp("=", Var("a"), Const(Param(0, str)))],
        )
        scatter = self.rule.apply(plan, sharded_context(partition))
        assert "artist = :p0" in scatter.describe()
        for artist in ARTISTS:
            with activate_context(RequestContext(params=(artist,))):
                assert scatter.shards() == (partition.shard_of(artist),)

    def test_select_equality_on_key_variable_prunes(self):
        partition = HashPartition("artist", 4)
        plan = self.chain(
            work_filter(felem("artist", FVar("a"))),
            selects=[Cmp("=", Var("a"), Const("Monet"))],
        )
        scatter = self.rule.apply(plan, sharded_context(partition))
        assert scatter.shards() == (partition.shard_of("Monet"),)

    def test_flipped_equality_prunes(self):
        partition = HashPartition("artist", 4)
        plan = self.chain(
            work_filter(felem("artist", FVar("a"))),
            selects=[Cmp("=", Const("Monet"), Var("a"))],  # "Monet" = $a
        )
        scatter = self.rule.apply(plan, sharded_context(partition))
        assert scatter.shards() == (partition.shard_of("Monet"),)

    def test_contradictory_restrictions_prune_every_shard(self):
        partition = HashPartition("artist", 4)
        # Two different key constants whose shards differ: no shard can
        # satisfy both, so an execution reads none (the empty answer).
        pool = [a for a in ARTISTS if partition.shard_of(a) != partition.shard_of("Monet")]
        other = pool[0]
        plan = self.chain(
            work_filter(felem("artist", FVar("a"))),
            selects=[
                Cmp("=", Var("a"), Const("Monet")),
                Cmp("=", Var("a"), Const(other)),
            ],
        )
        scatter = self.rule.apply(plan, sharded_context(partition))
        assert scatter.shards() == ()
        assert len(scatter.branches) == 4

    def test_outer_variable_equality_becomes_runtime_prune_param(self):
        partition = HashPartition("artist", 4)
        plan = self.chain(
            work_filter(felem("artist", FVar("a"))),
            selects=[Cmp("=", Var("a"), Var("creator"))],  # not bound locally
        )
        scatter = self.rule.apply(plan, sharded_context(partition))
        assert len(scatter.branches) == 4
        assert scatter.prune_param == "creator"

    def test_non_distributing_filters_are_declined(self):
        partition = HashPartition("artist", 4)
        context = sharded_context(partition)
        # A root variable binds the whole (per-shard) document.
        rooted = felem(
            "artworks", FStar(felem("work", felem("title", FVar("t")))),
            var="A",
        )
        assert self.rule.apply(self.chain(rooted), context) is None
        # Two root items relate siblings across shards.
        double = felem(
            "artworks",
            FStar(felem("work", felem("title", FVar("t")))),
            FStar(felem("work", felem("artist", FVar("a")))),
        )
        assert self.rule.apply(self.chain(double), context) is None

    def test_keep_on_and_unsharded_sources_are_declined(self):
        partition = HashPartition("artist", 4)
        flt = work_filter(felem("artist", FVar("a")))
        kept = self.chain(flt, keep_on=True)
        assert self.rule.apply(kept, sharded_context(partition)) is None
        assert self.rule.apply(self.chain(flt), OptimizerContext()) is None


# ---------------------------------------------------------------------------
# scatter evaluation: runtime pruning under a DJoin
# ---------------------------------------------------------------------------

class TestRuntimeScatterPruning:
    def build(self):
        _db, store = CulturalDataset(n_artifacts=40, seed=5).build()
        partition = HashPartition("artist", 4)
        stores = shard_wais_store(store, partition)
        sources = {
            shard_name("xmlartwork", i): WaisWrapper(
                shard_name("xmlartwork", i), s
            )
            for i, s in enumerate(stores)
        }
        sources["mono"] = WaisWrapper("mono", shard_major_store(stores))
        return partition, sources

    def inner(self, source_name):
        # The Wais collection's root label is ``works`` even though the
        # exported document is named ``artworks``.
        flt = felem(
            "works",
            FStar(
                felem(
                    "work",
                    felem("artist", FVar("a")),
                    felem("title", FVar("t")),
                )
            ),
        )
        bind = BindOp(SourceOp(source_name, "artworks"), flt, on="artworks")
        return SelectOp(bind, Cmp("=", Var("a"), Var("k")))

    def test_per_outer_row_pruning_matches_monolithic_answer(self):
        partition, sources = self.build()
        outer = LiteralOp(
            Tab(("k",), [Row(("k",), (a,)) for a in ARTISTS[:4]])
        )
        scatter = ScatterOp(
            [self.inner(shard_name("xmlartwork", i)) for i in range(4)],
            logical="xmlartwork",
            partition=partition,
            prune_param="k",
        )
        env = Environment(sources)
        pruned_tab = evaluate(DJoinOp(outer, scatter), env)
        # Every outer row evaluated exactly one branch (its key's shard).
        assert env.stats.shard_scatter == 4
        assert env.stats.shard_pruned == 4 * 3

        oracle_env = Environment(sources)
        oracle_tab = evaluate(DJoinOp(outer, self.inner("mono")), oracle_env)
        assert pruned_tab.columns == oracle_tab.columns
        assert list(pruned_tab.rows) == list(oracle_tab.rows)
        assert len(pruned_tab.rows) > 0


# ---------------------------------------------------------------------------
# federation integration: byte identity, pruning, explain, plan cache
# ---------------------------------------------------------------------------

class TestShardedFederation:
    @pytest.mark.parametrize("query", [Q1, Q2], ids=["q1", "q2"])
    @pytest.mark.parametrize(
        "policy", [None, ExecutionPolicy.parallel(4)], ids=["serial", "par4"]
    )
    def test_byte_identical_to_shard_major_oracle(self, query, policy):
        mono, sharded, _partition, _stores = build_pair(result_cache_bytes=0)
        a = mono.query(query, execution=policy)
        b = sharded.query(query, execution=policy)
        assert answer(a) == answer(b)
        assert b.report.stats.shard_scatter >= 4

    def test_key_equality_touches_one_shard(self):
        mono, sharded, partition, _stores = build_pair(result_cache_bytes=0)
        query = PRUNE_Q % "Monet"
        a, b = mono.query(query), sharded.query(query)
        assert answer(a) == answer(b)
        assert len(b.tab.rows) > 0
        assert b.report.stats.shard_scatter == 1
        assert b.report.stats.shard_pruned == 3
        # The only shard read is the one placement assigned to Monet.
        owner = shard_name("xmlartwork", partition.shard_of("Monet"))
        wais_calls = {
            source: n
            for source, n in b.report.stats.source_calls.items()
            if source.startswith("xmlartwork")
        }
        assert set(wais_calls) == {owner}

    def test_explain_annotates_the_pruning_decision(self):
        _mono, sharded, _partition, _stores = build_pair()
        rendered = sharded.explain(PRUNE_Q % "Monet").render()
        assert "shard-pruned 1/4" in rendered
        full = sharded.explain(Q1).render()
        assert "scatter 4/4" in full

    def test_explain_counts_empty_shards_as_the_calls_do(self):
        _mono, sharded, _partition, _stores = build_pair(shards=8)
        explained = sharded.explain(SCAN_Q, analyze=True)
        rendered = explained.render()
        assert "bind: scatter 6/8 (2 empty)" in rendered
        assert "shards: 6 scattered, 2 pruned" in rendered
        calls = {
            source: n
            for source, n in explained.report.stats.source_calls.items()
            if source.startswith("xmlartwork")
        }
        assert calls == {
            shard_name("xmlartwork", index): 1
            for index in range(8) if index not in EMPTY
        }

    def test_shard_metrics_are_exported(self):
        _mono, sharded, _partition, _stores = build_pair(result_cache_bytes=0)
        result = sharded.query(PRUNE_Q % "Monet")
        registry = MetricsRegistry()
        record_execution(registry, result.report, query="prune")
        text = registry.exposition()
        assert "yat_shard_scatter_total 1" in text
        assert "yat_shard_pruned_total 3" in text

    def test_one_plan_serves_every_key_constant(self):
        # The shard choice depends on the key constant's value, so it is
        # made per execution: one cached plan object serves every artist.
        mono, sharded, _partition, _stores = build_pair(result_cache_bytes=0)
        first = sharded.query(PRUNE_Q % "Monet")
        for artist in ("Monet", "Picasso", "Rodin", "Degas", "Monet"):
            query = PRUNE_Q % artist
            result = sharded.query(query)
            assert result.plan is first.plan
            assert answer(result) == answer(mono.query(query))

    def test_warm_plan_prunes_on_each_requests_constant(self):
        # Regression: a plan first built for one artist must not keep
        # reading that artist's shard when it serves another artist.
        mono, warm, partition, _stores = build_pair(result_cache_bytes=0)
        _mono, cold, _partition, _stores = build_pair(plan_cache_size=0)
        first = ARTISTS[0]
        other = next(
            artist for artist in ARTISTS
            if partition.shard_of(artist) != partition.shard_of(first)
        )
        warm.query(PRUNE_Q % first)
        result = warm.query(PRUNE_Q % other)
        assert result.cached
        read = {
            source for source in result.report.stats.source_calls
            if source.startswith("xmlartwork")
        }
        assert read == {shard_name("xmlartwork", partition.shard_of(other))}
        assert answer(result) == answer(mono.query(PRUNE_Q % other))
        rendered = warm.explain(PRUNE_Q % other).render()
        assert "shard-pruned 1/4" in rendered
        assert rendered.replace("plan: cached\n", "") == (
            cold.explain(PRUNE_Q % other).render()
        )

    def test_connect_sharded_validates_topology(self):
        database, store = CulturalDataset(n_artifacts=8, seed=3).build()
        partition = HashPartition("artist", 4)
        stores = shard_wais_store(store, partition)
        adapters = build_sharded_wais("xmlartwork", stores)
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        with pytest.raises(SourceError):
            # Three adapters for a four-shard partition.
            mediator.connect_sharded("xmlartwork", adapters[:3], partition)
        mediator.connect_sharded("xmlartwork", adapters, partition)
        with pytest.raises(MediatorError):
            mediator.connect_sharded("xmlartwork", adapters, partition)


# ---------------------------------------------------------------------------
# result cache: per-shard version vectors (satellite regression)
# ---------------------------------------------------------------------------

class TestShardedResultCache:
    def test_write_to_unread_shard_keeps_pruned_entry_hot(self):
        _mono, sharded, partition, stores = build_pair(
            result_cache_bytes=32 << 20
        )
        query = PRUNE_Q % "Monet"
        owner = partition.shard_of("Monet")
        sharded.query(query)
        assert sharded.query(query).result_cached

        # A write to a shard the pruned plan never reads: the entry's
        # version vector covers only the surviving shard, so it stays hot.
        other = (owner + 1) % partition.shards
        stores[other].add(
            elem("work", atom_leaf("artist", "Somebody Else"),
                 atom_leaf("title", "Elsewhere")),
            doc_id="extra-other",
        )
        assert sharded.query(query).result_cached

        # A write to the owning shard invalidates it on the next query.
        stores[owner].add(
            elem("work", atom_leaf("artist", "Monet"),
                 atom_leaf("title", "Fresh Water Lilies")),
            doc_id="extra-owner",
        )
        refreshed = sharded.query(query)
        assert not refreshed.result_cached
        assert "Fresh Water Lilies" in answer(refreshed)

    def test_unpruned_scatter_depends_on_every_shard(self):
        _mono, sharded, _partition, stores = build_pair(
            result_cache_bytes=32 << 20
        )
        sharded.query(Q1)
        assert sharded.query(Q1).result_cached
        stores[2].add(
            elem("work", atom_leaf("artist", "Anyone"),
                 atom_leaf("title", "Anything")),
            doc_id="extra-any",
        )
        assert not sharded.query(Q1).result_cached

    def test_write_into_an_empty_shard_is_read_next_time(self):
        # The scatter skips the empty shard, yet its version stays in the
        # entry's version vector: emptiness is a fact at a version.
        _mono, sharded, partition, stores = build_pair(
            shards=8, result_cache_bytes=32 << 20
        )
        empty = EMPTY[0]
        assert len(stores[empty]) == 0
        sharded.query(SCAN_Q)
        assert sharded.query(SCAN_Q).result_cached
        artist = next(
            name for name in (f"Artist {i}" for i in range(1000))
            if partition.shard_of(name) == empty
        )
        stores[empty].add(
            elem("work", atom_leaf("artist", artist),
                 atom_leaf("title", "Into The Empty Shard")),
            doc_id="extra-empty",
        )
        refreshed = sharded.query(SCAN_Q)
        assert not refreshed.result_cached
        assert "Into The Empty Shard" in answer(refreshed)
        assert refreshed.report.stats.shard_scatter == 7


def test_shards_inherit_the_wais_field_policy():
    _database, source = CulturalDataset(n_artifacts=12, seed=3).build()
    restricted = WaisStore(
        queryable_fields=["style"], retrievable_fields=["title", "artist", "style"]
    )
    for doc_id in source.document_ids():
        restricted.add(source.fetch(doc_id), doc_id=doc_id)
    shards = shard_wais_store(restricted, HashPartition("artist", 3))
    labels = source.element_labels() + ("any", "nosuchfield")
    for shard in shards + (shard_major_store(shards),):
        for label in labels:
            assert shard.field_queryable(label) == restricted.field_queryable(label)
            assert shard.field_retrievable(label) == restricted.field_retrievable(
                label
            )
    for wrapper in build_sharded_wais("xmlartwork", shards):
        operations = wrapper.interface().operations
        assert "contains_title" not in operations
        assert "contains_style" in operations


# ---------------------------------------------------------------------------
# empty shards: one interface, no round trip
# ---------------------------------------------------------------------------

class TestEmptyShards:
    def test_holds_data_has_no_base_class_default(self):
        # A proxy that forwards only what Wrapper lacks would shadow the
        # wrapper's answer with the default and read every empty shard.
        assert not hasattr(Wrapper, "holds_data")
        assert not hasattr(SourceAdapter, "holds_data")

    def test_every_shard_declares_the_logical_interface(self):
        _mono, sharded, _partition, stores = build_pair(shards=8)
        assert [i for i, store in enumerate(stores) if not len(store)] == list(EMPTY)
        logical = interface_to_xml(sharded.catalog.interface("xmlartwork"))
        for index, adapter in enumerate(build_sharded_wais("xmlartwork", stores)):
            interface = xml_to_interface(adapter.interface_xml())
            assert interface.name == shard_name("xmlartwork", index)
            interface.name = "xmlartwork"
            assert interface_to_xml(interface) == logical
        assert "contains_style" in xml_to_interface(logical).operations

    def test_a_shard_with_another_interface_is_refused(self):
        database, store = CulturalDataset(n_artifacts=8, seed=3).build()
        partition = HashPartition("artist", 2)
        adapters = list(build_sharded_wais(
            "xmlartwork", shard_wais_store(store, partition)
        ))
        adapters[1] = WaisWrapper(
            shard_name("xmlartwork", 1), WaisStore(queryable_fields=["style"])
        )
        mediator = Mediator()
        with pytest.raises(MediatorError, match="one interface"):
            mediator.connect_sharded("xmlartwork", adapters, partition)
        assert mediator.catalog.source_names() == ()

    @pytest.mark.parametrize("query", [Q1, Q2], ids=["q1", "q2"])
    def test_every_branch_is_pushed_the_same_native_text(self, query):
        _mono, sharded, _partition, _stores = build_pair(
            shards=8, result_cache_bytes=0
        )
        result = sharded.query(query)
        scatter = next(
            node for node in result.plan.walk() if isinstance(node, ScatterOp)
        )
        adapters = sharded.catalog.adapters()
        natives = set()
        with activate_context(RequestContext(params=result.params)):
            # Each branch's fragment, run at its shard directly: the
            # empty shards take the same native query as the others.
            for branch in scatter.branches:
                pushed = next(
                    node for node in branch.walk() if isinstance(node, PushedOp)
                )
                natives.add(adapters[pushed.source].execute_pushed(pushed.plan)[1])
        assert len(natives) == 1
        executed = {
            native
            for source, native in result.report.stats.distinct_native_queries()
            if source.startswith("xmlartwork#")
        }
        assert executed == natives

    @pytest.mark.parametrize(
        "execution, policy, replicas",
        [
            (ExecutionPolicy.serial(), None, 1),
            (ExecutionPolicy.parallel(4), None, 1),
            (None, ResiliencePolicy(retry=None), 2),
        ],
        ids=["serial", "par4", "resilient-replicas"],
    )
    def test_no_data_plane_call_reaches_an_empty_shard(
        self, execution, policy, replicas
    ):
        proxies = {}

        def counting(wrapper, shard, replica):
            proxy = FaultyWrapper(wrapper, FaultSchedule())
            proxies[(shard, replica)] = proxy
            return proxy

        mono, sharded, _partition, _stores = build_pair(
            shards=8, replicas=replicas, wrap=counting, result_cache_bytes=0
        )
        for query in (Q1, Q2, SCAN_Q):
            served = sharded.query(query, execution=execution, policy=policy)
            assert answer(served) == answer(mono.query(query))
        # Unexpanded, the logical source is read whole: every shard that
        # holds data, and no other.
        whole = sharded.query(
            SCAN_Q, optimize=False, execution=execution, policy=policy
        )
        assert answer(whole) == answer(mono.query(SCAN_Q, optimize=False))
        for (shard, replica), proxy in proxies.items():
            calls = sum(proxy.injector.call_counts.values())
            if shard in EMPTY:
                assert calls == 0, (shard, proxy.injector.call_counts)
            elif replica == 0:
                assert calls >= 4, (shard, proxy.injector.call_counts)


# ---------------------------------------------------------------------------
# replica failover
# ---------------------------------------------------------------------------

def dead_primary(wrapper, shard, replica):
    if replica == 0:
        return FaultyWrapper(wrapper, FaultSchedule().dead_source())
    return wrapper


class TestReplicaFailover:
    policy = ResiliencePolicy(retry=None, circuit_failure_threshold=1)

    @pytest.mark.parametrize("query", [Q1, Q2], ids=["q1", "q2"])
    def test_dead_primary_reroutes_without_degrading(self, query):
        mono, sharded, _partition, _stores = build_pair(
            replicas=2, wrap=dead_primary, result_cache_bytes=0
        )
        a = mono.query(query)
        b = sharded.query(query, policy=self.policy)
        assert answer(a) == answer(b)
        assert b.degraded is False
        assert b.report.stats.shard_failovers > 0
        scopes = {outcome.source for outcome in b.outcomes}
        # Both replicas of at least one shard got their own breaker scope.
        assert any(scope.endswith("/r0") for scope in scopes)
        assert any(scope.endswith("/r1") for scope in scopes)

    def test_policyless_execution_fails_over_in_adapter(self):
        mono, sharded, _partition, _stores = build_pair(
            replicas=2, wrap=dead_primary, result_cache_bytes=0
        )
        direct = sharded.query(Q1)
        assert answer(mono.query(Q1)) == answer(direct)
        # One failover loop: it counts under every policy, the same.
        guarded = sharded.query(Q1, policy=self.policy)
        assert direct.report.stats.shard_failovers > 0
        assert (
            direct.report.stats.shard_failovers
            == guarded.report.stats.shard_failovers
        )

    def test_all_replicas_dead_is_unavailable_not_wrong(self):
        def all_dead(wrapper, shard, replica):
            return FaultyWrapper(wrapper, FaultSchedule().dead_source())

        _mono, sharded, _partition, _stores = build_pair(
            replicas=2, wrap=all_dead, result_cache_bytes=0
        )
        with pytest.raises(SourceUnavailableError):
            sharded.query(Q1, policy=self.policy)

    def test_replica_set_requires_members_and_names_scopes(self):
        with pytest.raises(SourceError):
            ReplicaSet("s", [])
        _db, store = CulturalDataset(n_artifacts=4, seed=1).build()
        replica_set = ReplicaSet(
            "xmlartwork#0",
            [WaisWrapper("xmlartwork#0", store),
             WaisWrapper("xmlartwork#0", store)],
        )
        assert replica_set.replica_name(1) == "xmlartwork#0/r1"
        assert replica_set.data_version() == (store.version, store.version)


# ---------------------------------------------------------------------------
# serving layer: scatter fan-out surfaced on the ticket
# ---------------------------------------------------------------------------

class TestServerShardFanout:
    def build_server_mediator(self, execution=None):
        database, store = CulturalDataset(n_artifacts=16, seed=7).build()
        partition = HashPartition("artist", 4)
        stores = shard_wais_store(store, partition)
        mediator = Mediator(execution=execution)
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.connect_sharded(
            "xmlartwork", build_sharded_wais("xmlartwork", stores), partition
        )
        mediator.declare_containment("artworks", "artifacts")
        mediator.load_program(VIEW1_YAT)
        return mediator

    def test_ticket_reports_fanout_and_capping(self):
        mediator = self.build_server_mediator(ExecutionPolicy(parallelism=2))
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            capped = server.submit(Q1)
            assert capped.shard_fanout == 4 and capped.fanout_capped
            capped.result(timeout=60)

            wide = server.submit(Q1, execution=ExecutionPolicy(parallelism=2))
            assert wide.shard_fanout == 4 and wide.fanout_capped
            wide.result(timeout=60)

    def test_uncapped_when_parallelism_covers_the_fanout(self):
        mediator = self.build_server_mediator(ExecutionPolicy(parallelism=8))
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            ticket = server.submit(Q1)
            assert ticket.shard_fanout == 4 and not ticket.fanout_capped
            ticket.result(timeout=60)

    def test_the_mediators_execution_sets_the_report_and_the_ceiling(self):
        # The server restates no execution default: the fan-out report
        # and the override ceiling both read the mediator's own.
        mediator = self.build_server_mediator(ExecutionPolicy(parallelism=8))
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            ticket = server.submit(Q1)
            report = ticket.result(timeout=60).report
            assert report.stats.parallel_branches == 4
            assert ticket.shard_fanout == 4 and not ticket.fanout_capped
            with pytest.raises(ValueError, match="parallelism 16"):
                server.submit(Q1, execution=ExecutionPolicy(parallelism=16))
            assert server.counters["admitted"] == 1

    def test_unsharded_mediator_reports_zero_fanout(self):
        database, store = CulturalDataset(n_artifacts=8, seed=7).build()
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.connect(WaisWrapper("xmlartwork", store))
        mediator.declare_containment("artworks", "artifacts")
        mediator.load_program(VIEW1_YAT)
        with MediatorServer(mediator, ServerConfig(workers=1)) as server:
            ticket = server.submit(Q1)
            assert ticket.shard_fanout == 0 and not ticket.fanout_capped
            ticket.result(timeout=60)
