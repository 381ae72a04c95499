"""Result cache: hits, invalidation, concurrency, queries over views.

The correctness bar is absolute: a cached answer must
be byte-identical to what a fresh execution would produce *right now* —
which means a ``data_version()`` bump at any source must be reflected by
the very next query, even under concurrent readers and writers.
"""

import re
import threading

import pytest

from repro import (
    Mediator,
    MediatorServer,
    O2Wrapper,
    ResiliencePolicy,
    ServerConfig,
    StoreWrapper,
    StoredXmlSource,
    WaisWrapper,
)
from repro.core.algebra.tab import tab_serialized_size
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.model.xml_io import tree_to_xml
from repro.testing import FaultSchedule, FaultyWrapper


def build_federation(n_artifacts=12, seed=3, sources=None, **mediator_kwargs):
    """The paper's federation; pass *sources* to share a dataset."""
    if sources is None:
        sources = CulturalDataset(n_artifacts=n_artifacts, seed=seed).build()
    database, store = sources
    mediator = Mediator(**mediator_kwargs)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.load_program(VIEW1_YAT)
    return mediator, database, store


def answer(result) -> str:
    return tree_to_xml(result.document())


# ---------------------------------------------------------------------------
# The mediator's wiring of its result-cache memo
# ---------------------------------------------------------------------------

class TestResultCacheUnit:
    def test_max_bytes_is_the_enforced_bound(self):
        # Wiring only: the memo weighs answers in serialized bytes, up to
        # result_cache_bytes.  LRU order, the weight bound and the
        # oversized-value refusal are test_memo.py's.
        cold, _, _ = build_federation()
        size = {text: tab_serialized_size(cold.query(text).tab) for text in (Q1, Q2)}
        bound = size[Q1] + size[Q2] - 1  # one byte short of both answers
        mediator, _, _ = build_federation(result_cache_bytes=bound)
        mediator.query(Q2)
        mediator.query(Q1)
        stats = mediator.result_cache.stats()
        assert (stats["capacity"], stats["entries"], stats["weight"]) == (
            bound, 1, size[Q1]
        )
        assert stats["evictions"] == 1

    def test_stats_keep_the_names_the_benchmark_reads(self):
        # benchmarks/e2e diffs these keys by name; a renamed one would
        # silently read 0 there.
        mediator, _, _ = build_federation(result_cache_bytes=1 << 20)
        mediator.query(Q1)
        mediator.query(Q1)
        plan_stats = mediator.plan_cache.stats()
        assert {"hits", "misses"} <= plan_stats.keys()
        result_stats = mediator.result_cache.stats()
        assert {"hits", "misses", "invalidations", "flight_waits"} <= (
            result_stats.keys()
        )
        assert (plan_stats["hits"], plan_stats["misses"]) == (1, 1)
        assert (result_stats["hits"], result_stats["misses"]) == (1, 1)


# ---------------------------------------------------------------------------
# Mediator integration
# ---------------------------------------------------------------------------

class TestMediatorResultCache:
    def test_warm_hit_skips_execution_and_matches_bytes(self):
        mediator, database, store = build_federation(
            result_cache_bytes=32 << 20
        )
        plain, _db, _store = build_federation(sources=(database, store))
        reference = answer(plain.query(Q2))
        cold = mediator.query(Q2)
        warm = mediator.query(Q2)
        assert not cold.result_cached and warm.result_cached
        assert answer(cold) == reference
        assert answer(warm) == reference
        # Nothing executed on the hit: the report carries no source calls.
        assert sum(warm.report.stats.source_calls.values()) == 0

    def test_source_update_is_visible_on_the_very_next_query(self):
        mediator, database, _store = build_federation(
            result_cache_bytes=32 << 20
        )
        mediator.query(Q1)
        assert mediator.query(Q1).result_cached
        database.insert(
            "artifact",
            {"title": "Fresh Canvas", "year": 1901, "creator": "N. Ewkid",
             "price": 12.5, "owners": []},
        )
        after = mediator.query(Q1)
        assert not after.result_cached
        # A fresh mediator over the same (mutated) dataset objects: the
        # recomputed answer matches a from-scratch execution.
        fresh, _db2, _st2 = build_federation(sources=(database, _store))
        assert answer(after) == answer(fresh.query(Q1))
        assert mediator.result_cache.stats()["invalidations"] >= 1
        assert mediator.query(Q1).result_cached

    def test_the_reference_engine_keys_its_own_entries(self):
        # The key carries one execution bit: engine and oracle answers
        # never stand in for each other; parallelism cannot change a
        # byte and shares the engine's entry.
        from repro import ExecutionPolicy

        mediator, _db, _store = build_federation(result_cache_bytes=32 << 20)
        cold = mediator.query(Q2)
        oracle = mediator.query(Q2, execution=ExecutionPolicy.serial())
        assert not cold.result_cached and not oracle.result_cached
        assert answer(oracle) == answer(cold)
        assert mediator.query(
            Q2, execution=ExecutionPolicy.serial()
        ).result_cached
        assert mediator.query(
            Q2, execution=ExecutionPolicy.parallel(4)
        ).result_cached

    def test_constants_key_separate_entries(self):
        mediator, _db, _store = build_federation(result_cache_bytes=32 << 20)
        base = 'MAKE $t MATCH artworks WITH doc . work [ title . $t, style . $s ] WHERE $s = "{}"'
        first = mediator.query(base.format("Impressionist"))
        other = mediator.query(base.format("Cubist"))
        assert not other.result_cached  # same shape, different constant
        assert answer(other) != answer(first)
        assert mediator.query(base.format("Impressionist")).result_cached
        assert mediator.query(base.format("Cubist")).result_cached

    def test_use_result_cache_false_bypasses_lookup_and_store(self):
        mediator, _db, _store = build_federation(result_cache_bytes=32 << 20)
        mediator.query(Q2, use_result_cache=False)
        assert len(mediator.result_cache) == 0
        mediator.query(Q2)
        bypassed = mediator.query(Q2, use_result_cache=False)
        assert not bypassed.result_cached
        assert sum(bypassed.report.stats.source_calls.values()) > 0

    def test_degraded_answers_are_never_cached(self, monkeypatch):
        # A partial answer (a Union branch dropped under
        # allow_partial_results) must not be served to later callers as
        # if it were complete.  Degradation is forced at the execute()
        # seam — these queries splice to joins, not Unions, so no fault
        # schedule can degrade them organically.
        mediator, _db, _store = build_federation(result_cache_bytes=32 << 20)
        real_execute = mediator.execute

        def degrading_execute(*args, **kwargs):
            report = real_execute(*args, **kwargs)
            report.stats.record_dropped("xmlartwork", "forced for the test")
            return report

        monkeypatch.setattr(mediator, "execute", degrading_execute)
        degraded = mediator.query(Q2)
        assert degraded.degraded
        assert len(mediator.result_cache) == 0
        # The same query, healthy again, caches as usual.
        monkeypatch.setattr(mediator, "execute", real_execute)
        healthy = mediator.query(Q2)
        assert not healthy.result_cached
        assert len(mediator.result_cache) == 1
        assert mediator.query(Q2).result_cached

    def test_epoch_bump_clears_the_cache(self):
        mediator, _db, _store = build_federation(result_cache_bytes=32 << 20)
        mediator.query(Q2)
        assert len(mediator.result_cache) == 1
        mediator.declare_containment("artworks", "artifacts")
        assert len(mediator.result_cache) == 0
        assert not mediator.query(Q2).result_cached

    def test_explain_renders_result_cached_line(self):
        mediator, _db, _store = build_federation(result_cache_bytes=32 << 20)
        assert "result: cached" not in mediator.explain(Q2).render()
        mediator.query(Q2)
        assert "result: cached" in mediator.explain(Q2).render()
        # EXPLAIN ANALYZE serves the hit too (and says so).
        analyzed = mediator.explain(Q2, analyze=True)
        assert analyzed.result.result_cached
        assert "result: cached" in analyzed.render()

    def test_concurrent_cold_misses_are_single_flight(self):
        database, store = CulturalDataset(n_artifacts=12, seed=3).build()
        mediator = Mediator(result_cache_bytes=32 << 20)
        slow = (
            FaultSchedule()
            .delay("document", 0.3)
            .delay("execute_pushed", 0.3)
        )
        mediator.connect(O2Wrapper("o2artifact", database))
        mediator.connect(FaultyWrapper(WaisWrapper("xmlartwork", store), slow))
        mediator.load_program(VIEW1_YAT)
        # Warm the plan cache so every worker goes straight from planning
        # to the result-cache lookup while the leader is still executing.
        mediator.explain(Q2)
        results = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            results.append(mediator.query(Q2))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        texts = {answer(result) for result in results}
        assert len(texts) == 1
        executed = [r for r in results if not r.result_cached]
        # One leader executed; everyone else waited and hit.
        assert len(executed) == 1
        assert mediator.result_cache.stats()["flight_waits"] >= 1


# ---------------------------------------------------------------------------
# Queries over views: the spliced plan, served from the result cache
# ---------------------------------------------------------------------------

class TestViewQueries:
    def test_warm_hit_over_a_view_equals_a_cacheless_splice(self):
        mediator, database, store = build_federation(
            result_cache_bytes=32 << 20
        )
        spliced, _db, _store = build_federation(
            sources=(database, store), plan_cache_size=0
        )
        for text in (Q1, Q2):  # both MATCH the artworks view
            mediator.query(text)
            warm = mediator.query(text)
            assert warm.result_cached
            assert answer(warm) == answer(spliced.query(text))

    def test_result_cache_over_a_view_stays_fresh(self):
        mediator, database, _store = build_federation(
            result_cache_bytes=32 << 20
        )
        mediator.query(Q1)
        assert mediator.query(Q1).result_cached
        database.insert(
            "artifact",
            {"title": "Update Probe", "year": 1950, "creator": "Anon",
             "price": 10.0, "owners": []},
        )
        # The query names only the view; its spliced plan reads the base
        # sources, so their version vector tags the entry.
        assert not mediator.query(Q1).result_cached


# ---------------------------------------------------------------------------
# Concurrent invalidation through the serving layer (the hammer)
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("deadlock_guard")
class TestServerConcurrentInvalidation:
    QUERY = 'MAKE $v MATCH items WITH items . item . value . $v'
    VERSIONS = 12

    @staticmethod
    def _document(version: int) -> str:
        return (
            f"<items><item><value>v{version:04d}</value></item></items>"
        )

    def test_no_stale_answer_is_ever_served(self):
        source = StoredXmlSource()
        source.add_xml("items", self._document(0))
        mediator = Mediator(result_cache_bytes=8 << 20)
        mediator.connect(StoreWrapper("depot", source))
        published = [0]  # highest version fully written, under lock
        publish_lock = threading.Lock()
        observed = []

        def write(version: int) -> None:
            source.add_xml("items", self._document(version))
            with publish_lock:
                published[0] = version

        with MediatorServer(mediator, ServerConfig(workers=4)) as server:
            for version in range(1, self.VERSIONS + 1):
                write(version)
                tickets = []
                for _ in range(4):
                    with publish_lock:
                        floor = published[0]
                    tickets.append((floor, server.submit(self.QUERY)))
                for floor, ticket in tickets:
                    result = ticket.result(timeout=30)
                    text = answer(result)
                    seen = int(re.search(r"v(\d{4})", text).group(1))
                    observed.append((floor, seen, result.result_cached))
                    # Freshness: a query submitted after version F was
                    # fully published must never see anything older.
                    assert seen >= floor, (floor, text)
            server.drain(timeout=30)
        # The cache converged: at the end, the latest version serves
        # from cache.
        final = mediator.query(self.QUERY)
        followup = mediator.query(self.QUERY)
        assert f"v{self.VERSIONS:04d}" in answer(final)
        assert followup.result_cached
        # And the cache was actually exercised (not all misses).
        stats = mediator.result_cache.stats()
        assert stats["hits"] > 0 and stats["invalidations"] > 0

    def test_writer_racing_readers_never_serves_stale(self):
        source = StoredXmlSource()
        source.add_xml("items", self._document(0))
        mediator = Mediator(result_cache_bytes=8 << 20)
        mediator.connect(StoreWrapper("depot", source))
        stop = threading.Event()
        published = [0]
        publish_lock = threading.Lock()
        failures = []

        def writer():
            for version in range(1, 40):
                if stop.is_set():
                    break
                source.add_xml("items", self._document(version))
                with publish_lock:
                    published[0] = version

        def reader():
            while not stop.is_set():
                with publish_lock:
                    floor = published[0]
                result = mediator.query(self.QUERY)
                seen = int(re.search(r"v(\d{4})", answer(result)).group(1))
                if seen < floor:
                    failures.append((floor, seen))
                    return

        writer_thread = threading.Thread(target=writer)
        reader_threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in reader_threads:
            thread.start()
        writer_thread.start()
        writer_thread.join()
        stop.set()
        for thread in reader_threads:
            thread.join()
        assert not failures, f"stale answers served: {failures[:5]}"
