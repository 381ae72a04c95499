"""Result cache and materialized views: hits, invalidation, concurrency.

The correctness bar for both features is absolute: a cached answer must
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
    ResultCache,
    ServerConfig,
    StoreWrapper,
    StoredXmlSource,
    WaisWrapper,
)
from repro.core.algebra.tab import Tab, tab_serialized_size
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.errors import ViewError
from repro.model.xml_io import tree_to_xml, xml_to_tree
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


def single_row_tab(marker: str) -> Tab:
    return Tab.from_dicts(("c",), [{"c": marker}])


# ---------------------------------------------------------------------------
# ResultCache unit behavior
# ---------------------------------------------------------------------------

class TestResultCacheUnit:
    VERSIONS = (("s", 1),)

    def test_max_bytes_is_the_enforced_bound(self):
        # Wiring only; LRU order, the weight bound and the oversized-value
        # refusal are test_memo.py's.
        size = tab_serialized_size(single_row_tab("x" * 50))
        cache = ResultCache(max_bytes=3 * size)
        for key in ("a", "b", "c", "d"):
            cache.store((key,), single_row_tab("x" * 50), self.VERSIONS)
        stats = cache.stats()
        assert (stats["entries"], stats["bytes"], stats["evictions"]) == (
            3, 3 * size, 1
        )

    def test_version_mismatch_invalidates_exactly_that_entry(self):
        cache = ResultCache()
        cache.store(("a",), single_row_tab("a"), (("s", 1),))
        cache.store(("b",), single_row_tab("b"), (("t", 7),))
        hit, _ = cache.serve(("a",), lambda: (("s", 2),), lambda versions: None)
        assert not hit and cache.stats()["invalidations"] == 1
        hit, tab = cache.serve(("b",), lambda: (("t", 7),), None)
        assert hit and len(tab) == 1

    def test_peek_mutates_nothing(self):
        cache = ResultCache()
        cache.store(("a",), single_row_tab("a"), self.VERSIONS)
        before = cache.stats()
        assert cache.peek(("a",), self.VERSIONS)
        assert not cache.peek(("a",), (("s", 9),))
        assert not cache.peek(("missing",), self.VERSIONS)
        after = cache.stats()
        assert after == before  # no hit/miss/invalidation counted, no drop


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
            report.stats.degraded = True
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
        assert analyzed.result_cached
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
# Materialized views
# ---------------------------------------------------------------------------

class TestMaterializedViews:
    def test_answers_match_the_splice_path_byte_for_byte(self):
        spliced, _db, _store = build_federation()
        materialized, _db2, _store2 = build_federation()
        materialized.materialize_view("artworks")
        for text in (Q1, Q2):
            assert answer(materialized.query(text)) == answer(
                spliced.query(text)
            )

    def test_second_query_serves_from_kept_document(self):
        mediator, _db, _store = build_federation()
        mediator.materialize_view("artworks")
        mediator.query(Q2)
        again = mediator.query(Q2)
        stats = mediator.views.materialized_stats()
        assert stats["refreshes"] == 1 and stats["serves"] >= 2
        # The re-serve never touched the base sources.
        assert "xmlartwork" not in again.report.stats.source_calls

    def test_stale_vector_triggers_lazy_refresh(self):
        mediator, database, store = build_federation()
        mediator.materialize_view("artworks")
        mediator.query(Q2)
        assert mediator.views.materialized_stats()["refreshes"] == 1
        store.add(xml_to_tree(
            "<work><artist>Claude Monet</artist>"
            "<title>Impression, Sunrise</title>"
            "<style>Impressionist</style>"
            "<size>48 x 63</size>"
            "<cplace>Le Havre</cplace></work>"
        ))
        after = mediator.query(Q2)
        # The Wais version bump forced a refresh, and the refreshed
        # answer is byte-identical to a fresh splice-path mediator over
        # the same (mutated) dataset.
        assert mediator.views.materialized_stats()["refreshes"] == 2
        spliced, _db, _store = build_federation(sources=(database, store))
        assert answer(after) == answer(spliced.query(Q2))

    def test_explain_renders_view_materialized_line(self):
        mediator, _db, _store = build_federation()
        assert "view: materialized" not in mediator.explain(Q2).render()
        mediator.materialize_view("artworks")
        assert "view: materialized (artworks)" in mediator.explain(Q2).render()

    def test_materializing_unknown_view_fails(self):
        mediator, _db, _store = build_federation()
        with pytest.raises(ViewError):
            mediator.materialize_view("nonexistent")

    def test_program_reload_drops_the_kept_document(self):
        mediator, _db, _store = build_federation()
        mediator.materialize_view("artworks")
        mediator.query(Q2)
        assert mediator.views.materialized_stats()["populated"] == 1
        mediator.load_program(VIEW1_YAT)  # re-register: adds a rule
        assert mediator.views.materialized_stats()["populated"] == 0

    SELECTION_YAT = """
selection() :=
MAKE doc [ * item [ title: $t ] ]
MATCH artworks WITH doc . work [ title . $t, style . $s ]
WHERE $s = "%s"
"""

    @pytest.mark.usefixtures("deadlock_guard")
    def test_program_reload_racing_a_refresh_is_not_served_as_fresh(self):
        mediator, database, store = build_federation()
        mediator.load_program(self.SELECTION_YAT % "Impressionist")
        mediator.materialize_view("selection")
        executed, release = threading.Event(), threading.Event()
        execute = mediator.execute

        def held_execute(plan, **kwargs):
            report = execute(plan, **kwargs)
            if not executed.is_set():  # the refresh, built from one rule
                executed.set()
                release.wait(10)
            return report

        mediator.execute = held_execute
        reader = threading.Thread(
            target=mediator.materialized_document, args=("selection",)
        )
        reader.start()
        assert executed.wait(10)
        # The catalog moves while the refresh is in flight.  Whether the
        # reload waits for the refresh or not, the one-rule document must
        # not be what later reads are served.
        loader = threading.Thread(
            target=mediator.load_program,
            args=(self.SELECTION_YAT % "Baroque",),
        )
        loader.start()
        loader.join(0.5)
        release.set()
        reader.join()
        loader.join()
        fresh, _db, _store = build_federation(sources=(database, store))
        fresh.load_program(self.SELECTION_YAT % "Impressionist")
        fresh.load_program(self.SELECTION_YAT % "Baroque")
        fresh.materialize_view("selection")
        served = tree_to_xml(mediator.materialized_document("selection"))
        assert served == tree_to_xml(fresh.materialized_document("selection"))
        assert mediator.views.materialized_stats()["refreshes"] == 2

    def test_result_cache_over_materialized_view_stays_fresh(self):
        mediator, database, _store = build_federation(
            result_cache_bytes=32 << 20
        )
        mediator.materialize_view("artworks")
        mediator.query(Q1)
        assert mediator.query(Q1).result_cached
        database.insert(
            "artifact",
            {"title": "Update Probe", "year": 1950, "creator": "Anon",
             "price": 10.0, "owners": []},
        )
        # The plan only reads Source(mediator.artworks); the version
        # vector must still expand to the base sources behind the view.
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
