"""Plan cache: normalization, parametric plans, invalidation."""

import gc
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    Mediator,
    MediatorServer,
    O2Wrapper,
    ServerConfig,
    StoredXmlSource,
    StoreWrapper,
    WaisWrapper,
)
from repro.core.algebra import compiled, engine
from repro.core.algebra.engine import BindEngine
from repro.core.algebra.expressions import Const, Param
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.datasets.cultural import ARTISTS, PLACES, STYLES
from repro.model.trees import atom_leaf, elem
from repro.model.xml_io import tree_to_xml
from repro.observability.metrics import MetricsRegistry, record_memo_stats
from repro.sources.sharded import HashPartition, build_sharded_wais, shard_wais_store
from repro.wrappers import base as wrapper_base, o2_wrapper, store_wrapper
from repro.wrappers.base import PushedFragment
from repro.yatl.normalize import normalize_query
from repro.yatl.parser import parse_query


def build(n_artifacts=10, seed=3, plan_cache_size=128):
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    mediator = Mediator(plan_cache_size=plan_cache_size)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


def oracle_answer(text):
    mediator = build(plan_cache_size=0)
    result = mediator.query(text, execution=ExecutionPolicy.serial())
    return tree_to_xml(result.document())


class TestNormalization:
    def test_constant_variants_share_a_key(self):
        a = normalize_query(parse_query(Q2))
        b = normalize_query(
            parse_query(
                Q2.replace('"Impressionist"', '"Cubist"').replace(
                    "2000000.0", "17.5"
                )
            )
        )
        assert a.key == b.key
        assert a.values != b.values

    def test_lifted_values_keep_slot_order(self):
        normalized = normalize_query(parse_query(Q2))
        assert "Impressionist" in normalized.values
        assert 2000000.0 in normalized.values

    def test_lifted_constants_are_param_slots(self):
        normalized = normalize_query(parse_query(Q2))
        params = [
            sub.value for sub in normalized.query.where.walk()
            if isinstance(sub, Const) and isinstance(sub.value, Param)
        ]
        # Every lifted value has exactly one typed slot; no value stays
        # inline in the parametric query.
        assert sorted(p.slot for p in params) == list(
            range(len(normalized.values))
        )
        for param in params:
            assert param.kind is type(normalized.values[param.slot])
        assert repr(params[0]) == f":p{params[0].slot}"  # no active request

    def test_different_shapes_keep_different_keys(self):
        a = normalize_query(parse_query(Q1))
        b = normalize_query(parse_query(Q2))
        assert a.key != b.key

    def test_int_and_float_constants_are_not_confused(self):
        base = "MAKE doc [ $t ] MATCH artworks WITH doc . work [ title . $t, price . $p ] WHERE $p < {}"
        a = normalize_query(parse_query(base.format("5")))
        b = normalize_query(parse_query(base.format("5.0")))
        assert a.key != b.key


class TestPlanCacheServing:
    def test_second_query_is_a_cache_hit(self):
        mediator = build()
        assert not mediator.query(Q2).cached
        assert mediator.query(Q2).cached
        stats = mediator.plan_cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_cache_hit_answers_are_byte_identical(self):
        mediator = build()
        reference = oracle_answer(Q2)
        assert tree_to_xml(mediator.query(Q2).document()) == reference
        assert tree_to_xml(mediator.query(Q2).document()) == reference

    def test_rebinding_serves_new_constants_from_the_cached_plan(self):
        mediator = build()
        variant = Q2.replace('"Impressionist"', '"Cubist"')
        first = mediator.query(Q2)
        rebound = mediator.query(variant)
        assert rebound.cached
        # Binding is per request: the very same plan objects serve both.
        assert rebound.plan is first.plan
        assert rebound.params != first.params
        assert tree_to_xml(rebound.document()) == oracle_answer(variant)
        assert tree_to_xml(mediator.query(Q2).document()) == oracle_answer(Q2)

    def test_colliding_constants_rebind_independently(self):
        shape = (
            "MAKE doc [ * item [ t: $t ] ]\n"
            "MATCH artworks WITH doc . work [ title . $t, artist . $a, style . $s ]\n"
            'WHERE $s = {} AND $a = {}'
        )
        colliding = shape.format('"Impressionist"', '"Impressionist"')
        split = shape.format('"Impressionist"', '"Claude Monet"')
        mediator = build()
        mediator.query(colliding)
        rebound = mediator.query(split)
        assert rebound.cached
        assert tree_to_xml(rebound.document()) == oracle_answer(split)

    def test_optimize_flag_and_rounds_partition_the_cache(self):
        mediator = build()
        mediator.query(Q2)
        assert not mediator.query(Q2, optimize=False).cached
        assert not mediator.query(Q2, rounds=(1, 2)).cached
        assert mediator.query(Q2, rounds=(1, 2)).cached

    def test_plan_cache_size_is_the_enforced_bound(self):
        # Wiring only; LRU order and the bound itself are test_memo.py's.
        mediator = build(plan_cache_size=2)
        mediator.query(Q1)
        mediator.query(Q2)
        mediator.query(Q2, rounds=(1,))
        assert mediator.plan_cache.stats()["entries"] == 2

    def test_disabled_cache_always_plans_fresh(self):
        mediator = build(plan_cache_size=0)
        assert mediator.plan_cache is None
        assert not mediator.query(Q2).cached
        assert not mediator.query(Q2).cached


class TestInvalidation:
    def test_load_program_invalidates(self):
        mediator = build()
        mediator.query(Q2)
        mediator.load_program(
            "extra() := MAKE result [ * $w ]"
            " MATCH artworks WITH doc [ * $w ]"
        )
        assert len(mediator.plan_cache) == 0
        result = mediator.query(Q2)
        assert not result.cached
        assert tree_to_xml(result.document()) == oracle_answer(Q2)

    def test_declare_containment_invalidates(self):
        database, store = CulturalDataset(n_artifacts=6, seed=1).build()
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.connect(WaisWrapper("xmlartwork", store))
        mediator.load_program(VIEW1_YAT)
        before = mediator.query(Q1)
        assert not mediator.query(Q1).cached or True  # warm the cache
        epoch = mediator._epoch
        mediator.declare_containment("artworks", "artifacts")
        assert mediator._epoch == epoch + 1
        after = mediator.query(Q1)
        assert not after.cached
        # Same answer, but the containment rewrite now applies.
        assert after.document() == before.document()

    def test_connect_invalidates(self):
        database, store = CulturalDataset(n_artifacts=4, seed=2).build()
        mediator = Mediator()
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.load_program(
            "artifacts() := MAKE result [ set [ * $c ] ]"
            " MATCH artifacts WITH set [ * $c ]"
        )
        epoch = mediator._epoch
        mediator.connect(WaisWrapper("xmlartwork", store))
        assert mediator._epoch == epoch + 1
        assert len(mediator.plan_cache) == 0


class TestExplainAnnotation:
    def test_cached_line_only_on_actual_hits(self):
        mediator = build()
        first = mediator.explain(Q2).render()
        second = mediator.explain(Q2).render()
        assert "plan: cached" not in first
        assert "plan: cached" in second

    def test_fresh_mediators_render_identically(self):
        assert build().explain(Q2).render() == build().explain(Q2).render()


class TestMetricsExport:
    def test_plan_cache_rows_exposed(self):
        mediator = build()
        mediator.query(Q2)
        mediator.query(Q2)
        registry = MetricsRegistry()
        record_memo_stats(registry, mediator)
        text = registry.exposition()
        assert 'yat_memo_entries{memo="plan_cache"} 1' in text
        assert 'yat_memo_hits{memo="plan_cache"} 1' in text
        assert 'yat_memo_hits{memo="plan_texts"} 1' in text


# ---------------------------------------------------------------------------
# Parametric plans: one plan object per shape serves every constant vector
# ---------------------------------------------------------------------------

ARTIST = """MAKE $t
MATCH artworks WITH doc . work [ title . $t, artist . $a ]
WHERE $a = "{artist}"
"""

ARTIST_PRICE = """MAKE doc [ * item [ title: $t, price: $p ] ]
MATCH artworks WITH doc . work [ title . $t, artist . $a, price . $p ]
WHERE $a = "{artist}" AND $p < {price!r}
"""

CONTRADICTION = """MAKE $t
MATCH artworks WITH doc . work [ title . $t, artist . $a ]
WHERE $a = "{artist}" AND $a = "{other}"
"""

TWIG = """MAKE doc [ * hit [ title: $t ] ]
MATCH stored WITH works .. work [ cplace . "{place}", artist . "{artist}", title . $t ]
"""

CREATOR = """MAKE doc [ * item [ title: $t, year: $y ] ]
MATCH artifacts WITH set *class: artifact: tuple [ title: $t, year: $y, creator: "{artist}" ]
"""

NUMBERS = """MAKE doc [ * hit [ title: $t ] ]
MATCH numbers WITH works . work [ title . $t, year . {year!r} ]
"""

#: Years on both sides of the REAL key's exactness: 2**53 + 1 has no
#: exact float, so its store pushdown falls back to a scan per request.
YEARS = (1850, 1850.0, 1900, 2**53, 2**53 + 1, float(2**53))

SERIAL = ExecutionPolicy.serial()


def answer(result) -> str:
    return tree_to_xml(result.document())


@pytest.fixture(scope="module")
def sources():
    """O2, a two-shard Wais and a store with a numeric document."""
    database, store = CulturalDataset(n_artifacts=12, seed=3).build()
    partition = HashPartition("artist", 2)
    depot = StoredXmlSource()
    depot.add_tree("stored", store.collection_tree())
    depot.add_tree("numbers", elem("works", *[
        elem("work", atom_leaf("title", f"w{i}"), atom_leaf("year", year))
        for i, year in enumerate(YEARS)
    ]))
    return database, shard_wais_store(store, partition), partition, depot


def federation(sources, **options) -> Mediator:
    database, stores, partition, depot = sources
    mediator = Mediator(**options)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect_sharded(
        "xmlartwork", build_sharded_wais("xmlartwork", stores), partition
    )
    mediator.connect(StoreWrapper("depot", depot))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


def one_shard_artists(partition, count=3):
    """*count* artists placed on one shard, so every vector of the
    sharded shape runs the same branch."""
    by_shard = {}
    for artist in ARTISTS:
        by_shard.setdefault(partition.shard_of(artist), []).append(artist)
    return max(by_shard.values(), key=len)[:count]


#: What execution compiles from a plan node and keeps on it, by the
#: module whose global name the caller looks up.  O2 keeps its filter's
#: translation and the select compiled from it on the fragment's
#: ``prepared``, once per passed-key pairs.
COMPILERS = (
    (compiled, "_compile_expr"),
    (engine, "compile_filter"),
    (store_wrapper, "compile_pushdown"),
    (wrapper_base, "analyze_fragment"),
    (O2Wrapper, "_translated"),
    (o2_wrapper, "compile_select"),
)


@pytest.fixture
def compiles(monkeypatch):
    """``{compiler name: calls}``, counting from the test's start."""
    counts = dict.fromkeys((name for _owner, name in COMPILERS), 0)
    for owner, name in COMPILERS:
        def counted(*args, _compile=getattr(owner, name), _name=name):
            counts[_name] += 1
            return _compile(*args)
        monkeypatch.setattr(owner, name, counted)
    return counts


def live(cls, besides=()) -> list:
    """Instances of *cls* the collector can reach, other than *besides*."""
    old = {id(obj) for obj in besides}
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, cls) and id(obj) not in old
    ]


class TestParametricPlans:
    def test_a_shape_compiles_once(self, sources, compiles):
        mediator = federation(sources)
        shapes = [
            [Q1.replace("Giverny", place) for place in PLACES[:3]],
            [
                Q2.replace("Impressionist", style).replace("2000000.0", price)
                for style, price in zip(STYLES, ("2000000.0", "500000.0", "1200000.5"))
            ],
            [
                TWIG.format(place=place, artist=artist)
                for place, artist in zip(PLACES, ARTISTS[:3])
            ],
            [ARTIST.format(artist=a) for a in one_shard_artists(sources[2])],
        ]
        firsts = [mediator.query(texts[0]) for texts in shapes]
        after_first = dict(compiles)
        assert all(after_first.values()), after_first
        for first, texts in zip(firsts, shapes):
            for text in texts[1:]:
                result = mediator.query(text)
                assert result.cached and result.plan is first.plan
        assert compiles == after_first
        assert mediator.plan_cache.stats()["misses"] == len(shapes)

    def test_compiled_forms_die_with_their_plans(self, sources):
        # Uncached plans live as long as their query: once the results
        # are dropped, no Bind engine and no validated fragment (with
        # O2's translation) outlives them.
        mediator = federation(sources, plan_cache_size=0)
        gc.collect()
        # Held, so no new object can take one of their ids.
        existing = live(BindEngine) + live(PushedFragment)
        shapes = [
            [Q1.replace("Giverny", place) for place in PLACES],
            [ARTIST_PRICE.format(artist=a, price=p) for a, p in zip(ARTISTS, range(5))],
            [NUMBERS.format(year=year) for year in YEARS],
            [TWIG.format(place=p, artist=a) for p, a in zip(PLACES, ARTISTS)],
        ]
        texts = [text for group in zip(*shapes) for text in group]
        texts = (texts * 50)[:50]
        results = [mediator.query(text) for text in texts]
        assert live(BindEngine, existing) and live(PushedFragment, existing)
        del results
        gc.collect()
        assert live(BindEngine, existing) == live(PushedFragment, existing) == []

    @pytest.mark.usefixtures("deadlock_guard")
    def test_concurrent_vectors_share_one_plan_per_shape(self, sources):
        mediator = federation(sources, execution=ExecutionPolicy(parallelism=2))
        oracle = federation(sources, plan_cache_size=0)
        q2s = [
            Q2.replace("Impressionist", style).replace("2000000.0", price)
            for style, price in zip(STYLES, ("2000000.0", "500000.0", "900000.0", "1500000.0"))
        ]
        artists = [ARTIST.format(artist=artist) for artist in ARTISTS[:4]]
        texts = [text for pair in zip(q2s, artists) for text in pair] * 2
        expected = {text: answer(oracle.query(text)) for text in texts}
        mediator.query(q2s[0])  # one plan per shape, planned up front
        mediator.query(artists[0])
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MediatorServer(mediator, ServerConfig(workers=2)) as server:
                tickets = [(text, server.submit(text)) for text in texts]
                answers = [
                    (text, answer(ticket.result(timeout=30)))
                    for text, ticket in tickets
                ]
        finally:
            sys.setswitchinterval(previous)
        assert all(got == expected[text] for text, got in answers)
        assert mediator.plan_cache.stats()["misses"] == 2

    @settings(max_examples=15, deadline=None)
    @given(
        artist=st.sampled_from(ARTISTS + ("Nobody Known",)),
        other=st.sampled_from(ARTISTS),
        price=st.one_of(
            st.integers(0, 2_100_000),
            st.floats(0, 2.1e6).map(lambda x: round(x, 2)),
            st.sampled_from([2**53, 2**53 + 1, float(2**53)]),
        ),
        year=st.sampled_from(YEARS),
    )
    def test_cached_plans_answer_and_explain_like_the_oracle(
        self, differential, artist, other, price, year
    ):
        warm, cold = differential
        for text in (
            ARTIST_PRICE.format(artist=artist, price=price),
            CONTRADICTION.format(artist=artist, other=other),
            CREATOR.format(artist=artist),
            NUMBERS.format(year=year),
        ):
            assert answer(warm.query(text)) == answer(
                cold.query(text, execution=SERIAL)
            )
            rendered = warm.explain(text).render().replace("plan: cached\n", "")
            assert rendered == cold.explain(text).render()


@pytest.fixture(scope="module")
def differential(sources):
    """A warm cached mediator and the cache-less oracle over one dataset."""
    return federation(sources), federation(sources, plan_cache_size=0)
