"""End-to-end fuzzing: naive and optimized answers must always agree.

The single most important invariant of the whole system: for any
dataset shape and any of the paper's queries, the three-round optimizer
(gated or not) never changes the answer.  Hypothesis drives dataset
parameters; every failure here is a soundness bug in some rewrite.

The second differential fuzzes execution the same way.  There are two
engines — the default one and the ``ExecutionPolicy.serial()`` reference
— so every grid below is {engine, oracle} crossed only with the axes
that are real: parallelism, store pushdown on/off, shards, and the
result cache cold / warm / after an update.  Which *matcher* a Bind
takes is not an axis: the engine picks it per target, and
``tests/test_bind_engine.py`` holds it to the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ExecutionPolicy,
    Mediator,
    O2Wrapper,
    StoredXmlSource,
    StoreWrapper,
    WaisWrapper,
)
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.model.xml_io import tree_to_xml

QUERIES = {"Q1": Q1, "Q2": Q2}

datasets = st.fixed_dictionaries(
    {
        "n_artifacts": st.integers(min_value=1, max_value=25),
        "extra_works": st.integers(min_value=0, max_value=5),
        "impressionist_fraction": st.floats(min_value=0.0, max_value=1.0),
        "cplace_probability": st.floats(min_value=0.0, max_value=1.0),
        "owners_per_artifact": st.integers(min_value=1, max_value=3),
        "seed": st.integers(min_value=0, max_value=10_000),
    }
)


def build(params, declare_containment, execution=None):
    database, store = CulturalDataset(**params).build()
    mediator = Mediator(execution=execution)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    if declare_containment:
        mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


class TestOptimizerSoundness:
    @given(params=datasets)
    @settings(max_examples=25, deadline=None)
    def test_q2_all_round_prefixes_agree(self, params):
        mediator = build(params, declare_containment=False)
        reference = mediator.query(Q2, optimize=False).document()
        for rounds in [(1,), (1, 2), (1, 2, 3)]:
            assert mediator.query(Q2, rounds=rounds).document() == reference

    @given(params=datasets)
    @settings(max_examples=25, deadline=None)
    def test_q1_with_containment_agrees(self, params):
        # Containment only holds without extra works; declare it only then,
        # exactly as an administrator would.
        params = dict(params, extra_works=0)
        mediator = build(params, declare_containment=True)
        naive = mediator.query(Q1, optimize=False).document()
        assert mediator.query(Q1).document() == naive

    @given(params=datasets)
    @settings(max_examples=15, deadline=None)
    def test_q1_without_containment_agrees(self, params):
        # Extra works present and no containment declared: the optimizer
        # must NOT eliminate the O2 branch, and answers still match.
        mediator = build(params, declare_containment=False)
        naive = mediator.query(Q1, optimize=False).document()
        result = mediator.query(Q1)
        assert result.document() == naive
        if params["extra_works"] or True:
            assert "JoinBranchElimination" not in result.trace.rule_names()


class TestEngineSoundness:
    """Engine-vs-oracle differential over the figure queries.

    The seed semantics (``ExecutionPolicy.serial()``: recursive matcher,
    row-at-a-time Tabs, one call per DJoin row, no cache) is the
    reference; the default engine and a parallel one must serialize to
    the identical bytes for every dataset shape.  The artifacts side of
    these queries carries reference nodes and the per-row targets are
    small, so the scan kernel, its dereferencing and (on larger
    collections) the twig join are all on the path.
    """

    POLICIES = (ExecutionPolicy(), ExecutionPolicy.parallel(4))

    @given(params=datasets, optimize=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_q2_scheduler_policies_agree(self, params, optimize):
        reference = build(
            params, declare_containment=False,
            execution=ExecutionPolicy.serial(),
        ).query(Q2, optimize=optimize).document()
        for execution in self.POLICIES:
            mediator = build(
                params, declare_containment=False, execution=execution
            )
            subject = mediator.query(Q2, optimize=optimize).document()
            assert tree_to_xml(subject) == tree_to_xml(reference)

    @given(params=datasets, optimize=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_q1_scheduler_policies_agree(self, params, optimize):
        params = dict(params, extra_works=0)
        reference = build(
            params, declare_containment=True,
            execution=ExecutionPolicy.serial(),
        ).query(Q1, optimize=optimize).document()
        for execution in self.POLICIES:
            mediator = build(
                params, declare_containment=True, execution=execution
            )
            subject = mediator.query(Q1, optimize=optimize).document()
            assert tree_to_xml(subject) == tree_to_xml(reference)


class TestStoreSoundness:
    """Out-of-core differential: shredded answers equal in-memory ones.

    The oracle serves the Wais collection from memory under
    ``ExecutionPolicy.serial()`` (the seed semantics).  The subject
    serves the *same tree* shredded into a sqlite
    :class:`~repro.sources.stored.StoredXmlSource` behind a
    :class:`~repro.wrappers.store_wrapper.StoreWrapper`, with pushdown on
    and off — SQL interval joins and hydrated scans through the Bind
    engine must serialize to the identical bytes for every dataset
    shape, under the default engine and under the oracle alike.
    """

    STORE_QUERIES = (
        'MAKE $t MATCH artworks WITH works . work [ title . $t, style . $s ]'
        ' WHERE $s = "Impressionist"',
        'MAKE $t MATCH artworks WITH works .. work [ title . $t, cplace . $cl ]'
        ' WHERE $cl = "Giverny"',
        'MAKE doc [ *$w ] MATCH artworks WITH works . work $w',
    )

    GRID = (ExecutionPolicy(), ExecutionPolicy.serial())

    @given(params=datasets)
    @settings(max_examples=8, deadline=None)
    def test_store_grid_matches_in_memory_oracle(self, params):
        _database, store = CulturalDataset(**params).build()
        oracle = Mediator(execution=ExecutionPolicy.serial())
        oracle.connect(WaisWrapper("xmlartwork", store))
        source = StoredXmlSource()
        source.add_tree("artworks", store.collection_tree())
        for text in self.STORE_QUERIES:
            reference = tree_to_xml(oracle.query(text).document())
            for pushdown in (True, False):
                for execution in self.GRID:
                    mediator = Mediator(execution=execution)
                    mediator.connect(
                        StoreWrapper("depot", source, enable_pushdown=pushdown)
                    )
                    subject = tree_to_xml(mediator.query(text).document())
                    assert subject == reference, (
                        f"store divergence on {text!r} "
                        f"(pushdown={pushdown}, {execution!r})"
                    )


class TestCompileOnceSoundness:
    """Plan-cache + compiled-kernel differential against the seed path.

    The oracle is a mediator with the plan cache disabled running under
    ``ExecutionPolicy.serial()`` — fresh planning and the interpretive
    ``FilterMatcher`` / ``Expr.evaluate`` every time.  The subject keeps
    the defaults (plan cache on, compiled kernels on) and answers twice:
    cold (cache miss) and warm (cache hit, rebound plan).  All three
    answers must serialize to identical bytes.
    """

    @given(params=datasets)
    @settings(max_examples=20, deadline=None)
    def test_cached_compiled_answers_are_byte_identical(self, params):
        for text in (Q1, Q2):
            oracle = build(params, declare_containment=False)
            oracle.plan_cache = None
            reference = tree_to_xml(
                oracle.query(
                    text, execution=ExecutionPolicy.serial()
                ).document()
            )
            subject = build(params, declare_containment=False)
            cold = subject.query(text)
            warm = subject.query(text)
            assert not cold.cached and warm.cached
            assert tree_to_xml(cold.document()) == reference
            assert tree_to_xml(warm.document()) == reference


class TestShardingSoundness:
    """Sharded-federation differential: scatter-gather never changes a byte.

    The oracle is a monolithic mediator over ``shard_major_store`` — the
    shard-major concatenation that the sharded adapter's ``document()``
    is *defined* to produce — running under ``ExecutionPolicy.serial()``.
    The subject registers the same shard stores through
    ``connect_sharded`` and sweeps parallelism (plus the oracle engine
    over the sharded plan); shard expansion, pruning and parallel scatter branches must all
    serialize identically for every dataset shape.  A second
    differential kills one replica per shard with a deterministic
    :class:`~repro.testing.FaultSchedule`: failover must reroute to the
    healthy replica and still match the oracle with ``degraded`` false.
    """

    GRID = (
        ExecutionPolicy(), ExecutionPolicy.parallel(4), ExecutionPolicy.serial(),
    )

    @staticmethod
    def _pair(params, shards=3, replicas=1, wrap=None):
        from repro.sources.sharded import (
            HashPartition,
            build_sharded_wais,
            shard_major_store,
            shard_wais_store,
        )

        database, store = CulturalDataset(**params).build()
        partition = HashPartition("artist", shards)
        stores = shard_wais_store(store, partition)

        oracle = Mediator(execution=ExecutionPolicy.serial(),
                          result_cache_bytes=0)
        oracle.connect(O2Wrapper("o2artifact", database))
        oracle.connect(WaisWrapper("xmlartwork", shard_major_store(stores)))
        oracle.declare_containment("artworks", "artifacts")
        oracle.load_program(VIEW1_YAT)

        sharded = Mediator(result_cache_bytes=0)
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
        return oracle, sharded

    @given(params=datasets)
    @settings(max_examples=8, deadline=None)
    def test_sharded_grid_matches_shard_major_oracle(self, params):
        oracle, sharded = self._pair(params)
        for name, text in QUERIES.items():
            reference = tree_to_xml(oracle.query(text).document())
            for execution in self.GRID:
                subject = sharded.query(text, execution=execution)
                assert tree_to_xml(subject.document()) == reference, (
                    f"sharding divergence on {name} under {execution!r}"
                )

    @given(params=datasets)
    @settings(max_examples=6, deadline=None)
    def test_replica_failover_matches_oracle_without_degrading(self, params):
        from repro import ResiliencePolicy
        from repro.testing import FaultSchedule, FaultyWrapper

        def dead_primary(wrapper, shard, replica):
            if replica == 0:
                return FaultyWrapper(wrapper, FaultSchedule().dead_source())
            return wrapper

        oracle, sharded = self._pair(params, replicas=2, wrap=dead_primary)
        policy = ResiliencePolicy(retry=None, circuit_failure_threshold=1)
        for name, text in QUERIES.items():
            reference = tree_to_xml(oracle.query(text).document())
            subject = sharded.query(text, policy=policy)
            assert tree_to_xml(subject.document()) == reference, (
                f"failover divergence on {name}"
            )
            assert subject.degraded is False
            assert subject.report.stats.shard_failovers > 0


class TestResultCacheSoundness:
    """Result-cache differential: a hit must be a byte-perfect stand-in.

    The oracle is an identical mediator with the result cache off,
    querying the *same* shredded store.  The subject answers three
    times — cold (miss), warm (hit) and again after the stored document
    is replaced at a new ``data_version()`` — with pushdown on and off,
    under the default engine and the oracle.  The post-update answer proves
    incremental invalidation: the subject must never serve the
    pre-update bytes once the source has moved.
    """

    QUERY = (
        'MAKE $t MATCH artworks WITH works . work [ title . $t, style . $s ]'
        ' WHERE $s = "Impressionist"'
    )

    GRID = (ExecutionPolicy(), ExecutionPolicy.serial())

    @staticmethod
    def _mediator(source, pushdown, execution, result_cache_bytes):
        mediator = Mediator(
            execution=execution, result_cache_bytes=result_cache_bytes
        )
        mediator.connect(
            StoreWrapper("depot", source, enable_pushdown=pushdown)
        )
        return mediator

    @given(params=datasets)
    @settings(max_examples=6, deadline=None)
    def test_cache_on_equals_cache_off_cold_warm_and_after_update(self, params):
        _database, store = CulturalDataset(**params).build()
        original = store.collection_tree()
        updated = tree_to_xml(original).replace(
            "</works>",
            "<work><title>Late Addition</title><artist>A. New</artist>"
            "<style>Impressionist</style><size>1x1</size></work></works>",
        )
        for pushdown in (True, False):
            for execution in self.GRID:
                source = StoredXmlSource()
                source.add_tree("artworks", original)
                oracle = self._mediator(source, pushdown, execution, 0)
                subject = self._mediator(
                    source, pushdown, execution, 32 << 20
                )
                reference = tree_to_xml(oracle.query(self.QUERY).document())
                cold = subject.query(self.QUERY)
                warm = subject.query(self.QUERY)
                assert not cold.result_cached and warm.result_cached
                assert tree_to_xml(cold.document()) == reference
                assert tree_to_xml(warm.document()) == reference
                source.add_xml("artworks", updated)
                after_reference = tree_to_xml(
                    oracle.query(self.QUERY).document()
                )
                after = subject.query(self.QUERY)
                assert not after.result_cached
                assert tree_to_xml(after.document()) == after_reference, (
                    f"stale answer after update "
                    f"(pushdown={pushdown}, {execution!r})"
                )
                assert "Late Addition" in after_reference
