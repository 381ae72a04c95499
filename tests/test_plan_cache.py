"""Plan cache: normalization, rebinding, invalidation, statistics feedback."""

import pytest

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.model.xml_io import tree_to_xml
from repro.observability.metrics import MetricsRegistry, record_memo_stats
from repro.wrappers.wais_wrapper import WaisWrapper as _Wais
from repro.yatl.normalize import normalize_query, param_slot
from repro.yatl.parser import parse_query


def build(n_artifacts=10, seed=3, plan_cache_size=128, gate=False):
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    mediator = Mediator(
        gate_information_passing=gate, plan_cache_size=plan_cache_size
    )
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


def oracle_answer(text, **kwargs):
    mediator = build(plan_cache_size=0, **kwargs)
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


class TestProbeMemoization:
    def test_selectivity_probes_run_once_per_constant(self, monkeypatch):
        calls = []
        original = _Wais.estimate_text_selectivity

        def counting(self, text):
            calls.append(text)
            return original(self, text)

        monkeypatch.setattr(_Wais, "estimate_text_selectivity", counting)
        mediator = build(gate=True)
        mediator.query(Q2)
        first = len(calls)
        assert first >= 1
        mediator.query(Q2, rounds=(1, 2))  # cache miss, same constants
        assert len(calls) == first

    def test_probe_memo_cleared_on_catalog_change(self, monkeypatch):
        calls = []
        original = _Wais.estimate_text_selectivity

        def counting(self, text):
            calls.append(text)
            return original(self, text)

        monkeypatch.setattr(_Wais, "estimate_text_selectivity", counting)
        mediator = build(gate=True)
        mediator.query(Q2)
        first = len(calls)
        mediator.declare_containment("paintings", "artifacts")
        mediator.query(Q2)
        assert len(calls) > first

    def test_probe_memo_is_bounded(self, monkeypatch):
        """A long-lived mediator's probe memo must not grow with the
        query vocabulary (it was an unbounded dict)."""
        import repro.mediator.mediator as mediator_module
        from repro.core.algebra.expressions import Cmp, Const, Var
        from repro.core.algebra.operators import SelectOp, SourceOp

        capacity = 8
        monkeypatch.setattr(mediator_module, "PROBE_MEMO_CAPACITY", capacity)
        mediator = build(gate=True)
        source = SourceOp("xmlartwork", "artworks")

        def probe(constant):
            plan = SelectOp(source, Cmp("=", Var("s"), Const(constant)))
            return mediator._probe_text_selectivities(plan)

        resident = probe("Impressionist")
        for index in range(10 * capacity):
            probe(f"term{index}")
            assert probe("Impressionist") == resident  # kept warm, unchanged
        stats = mediator.memo_stats()["probes"]
        assert stats["entries"] <= stats["capacity"] == capacity
        assert stats["evictions"] > 0


class TestStatisticsFeedback:
    def test_analyze_feeds_selectivities_back(self):
        mediator = build(gate=True)
        mediator.explain(Q2, analyze=True)
        assert "Impressionist" in mediator._observed.text_selectivities

    def test_identical_reruns_bump_stats_version_once(self):
        mediator = build(gate=True)
        mediator.explain(Q2, analyze=True)
        version = mediator._stats_version
        mediator.explain(Q2, analyze=True)
        mediator.explain(Q2, analyze=True)
        assert mediator._stats_version == version

    def test_feedback_preserves_answers(self):
        mediator = build(gate=True)
        reference = oracle_answer(Q2, gate=True)
        mediator.explain(Q2, analyze=True)
        assert tree_to_xml(mediator.query(Q2).document()) == reference

    def test_ungated_analyze_never_bumps_stats_version(self):
        mediator = build(gate=False)
        mediator.explain(Q2, analyze=True)
        assert mediator._stats_version == 0


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
