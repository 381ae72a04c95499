"""Plan cache: normalization, rebinding, invalidation."""

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.model.xml_io import tree_to_xml
from repro.observability.metrics import MetricsRegistry, record_memo_stats
from repro.yatl.normalize import normalize_query, param_slot
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

    def test_tagged_constants_carry_their_slots(self):
        normalized = normalize_query(parse_query(Q2))
        slots = [
            param_slot(sub.value)
            for sub in normalized.query.where.walk()
            if param_slot(getattr(sub, "value", None)) is not None
        ]
        assert sorted(slots) == list(range(len(normalized.values)))

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
        mediator.query(Q2)
        rebound = mediator.query(variant)
        assert rebound.cached
        assert mediator.plan_cache.rebinds == 1
        assert tree_to_xml(rebound.document()) == oracle_answer(variant)
        # The original's plan was not damaged by the rebinding walk.
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

    def test_zero_capacity_cache_rejected(self):
        from repro.mediator.plan_cache import PlanCache

        with pytest.raises(ValueError):
            PlanCache(capacity=0)


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
        assert "yat_plan_cache_rebinds 0" in text
        assert 'yat_memo_entries{memo="bind_engines"}' in text
