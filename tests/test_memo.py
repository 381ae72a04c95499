"""The memo's contract, once — and the guards that keep it the only one.

Every cache in ``src/`` sits on :class:`repro.memo.Memo`; the per-cache
tests only check that each is *wired* to its bound.  What a bounded,
tagged, single-flight table must do is checked here.
"""

import ast
import random
import re
import sys
import threading
from pathlib import Path

from repro import Mediator, O2Wrapper, StoreWrapper, StoredXmlSource, WaisWrapper
from repro.core.algebra.expressions import Var, eq
from repro.core.algebra.operators import BindOp, SelectOp, SourceOp
from repro.core.algebra.tab import Row
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.memo import Memo
from repro.model.filters import FStar, FVar, felem
from repro.model.trees import atom_leaf, elem
from repro.observability import MetricsRegistry, record_memo_stats
from repro.sources.sharded import (
    HashPartition,
    build_sharded_wais,
    shard_wais_store,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


# ---------------------------------------------------------------------------
# Bound and eviction
# ---------------------------------------------------------------------------

class TestBound:
    def test_lru_order_under_interleaved_hits(self):
        memo = Memo(3)
        for key in "abc":
            memo.put(key, key.upper())
        assert memo.get("a") == "A"  # a is now the most recent
        memo.put("d", "D")  # evicts b, the least recently used
        assert memo.get("c") == "C"
        memo.put("e", "E")  # evicts a: c and d were touched after it
        assert [memo.get(key) for key in "abcde"] == [None, None, "C", "D", "E"]
        assert memo.stats()["evictions"] == 2

    def test_count_bound_evicts_one_at_a_time(self):
        memo = Memo(4)
        for index in range(10):
            memo.put(index, index)
            assert len(memo) <= 4
        stats = memo.stats()
        assert (stats["entries"], stats["capacity"], stats["evictions"]) == (4, 4, 6)
        assert "weight" not in stats

    def test_weight_bound_and_oversized_value_refused(self):
        memo = Memo(10, weigh=len)
        memo.put("a", "xxxx")
        memo.put("b", "xxxx")
        assert memo.stats()["weight"] == 8
        memo.put("c", "xxxx")  # 12 > 10: evicts a
        assert (memo.get("a"), memo.get("c")) == (None, "xxxx")
        memo.put("huge", "x" * 11)  # heavier than the whole bound
        stats = memo.stats()
        assert memo.get("huge") is None
        assert (stats["entries"], stats["weight"], stats["evictions"]) == (2, 8, 1)

    def test_replacing_a_key_replaces_its_weight(self):
        memo = Memo(10, weigh=len)
        memo.put("a", "xxxxxx")
        memo.put("a", "xx")
        assert (len(memo), memo.stats()["weight"]) == (1, 2)

    def test_zero_capacity_stores_nothing(self):
        memo = Memo(0)
        assert memo.get_or_build("k", lambda: 1) == 1
        assert len(memo) == 0 and memo.stats()["evictions"] == 0

    def test_build_arguments_are_passed_through(self):
        memo = Memo(2)
        assert memo.get_or_build("k", divmod, 7, 2, tag=1) == (3, 1)
        assert memo.get_or_build("k", divmod, 9, 2, tag=1) == (3, 1)  # a hit

    def test_capacity_may_be_sized_by_the_owner_later(self):
        # Wrapper documents and view documents: one slot per name, known
        # only after construction.
        memo = Memo(0)
        memo.capacity = 2
        for key in "abc":
            memo.put(key, key)
        assert (len(memo), memo.stats()["evictions"]) == (2, 1)

    def test_clear_drops_everything_as_stale(self):
        memo = Memo(8, weigh=len)
        memo.put("a", "xx")
        memo.put("b", "xx")
        memo.clear()
        stats = memo.stats()
        assert (stats["entries"], stats["weight"], stats["invalidations"]) == (0, 0, 2)
        assert memo.get("a") is None


# ---------------------------------------------------------------------------
# Staleness tags and identity anchors
# ---------------------------------------------------------------------------

class TestTagsAndAnchors:
    def test_tag_match_hits_and_mismatch_drops(self):
        memo = Memo(4)
        memo.put("doc", "tree@1", tag=1)
        assert memo.get("doc", tag=1) == "tree@1"
        assert memo.get("doc", tag=2) is None  # dropped, counted, missed
        stats = memo.stats()
        assert (stats["hits"], stats["misses"], stats["invalidations"]) == (1, 1, 1)
        assert stats["entries"] == 0
        # Even the old tag misses now: the entry is gone, not hidden.
        assert memo.get("doc", tag=1) is None
        assert memo.stats()["invalidations"] == 1

    def test_version_vectors_compare_by_equality(self):
        memo = Memo(4)
        memo.put("q", "answer", tag=(("o2", 3), ("wais", 7)))
        assert memo.get("q", tag=(("o2", 3), ("wais", 7))) == "answer"
        assert memo.get("q", tag=(("o2", 3), ("wais", 8))) is None

    def test_rebuild_under_a_new_tag_replaces_the_entry(self):
        memo = Memo(4)
        assert memo.get_or_build("doc", lambda: "v1", tag=1) == "v1"
        assert memo.get_or_build("doc", lambda: "v2", tag=2) == "v2"
        stats = memo.stats()
        assert (stats["entries"], stats["invalidations"], stats["evictions"]) == (1, 1, 0)

    def test_none_is_a_storable_value(self):
        memo = Memo(4)
        builds = []
        for _ in range(2):
            assert memo.get_or_build("k", lambda: builds.append(1)) is None
        assert len(builds) == 1 and memo.stats()["hits"] == 1

    def test_peek_mutates_nothing(self):
        memo = Memo(4)
        memo.put("k", "v", tag=1)
        before = memo.stats()
        assert memo.peek("k", tag=1)
        assert not memo.peek("k", tag=2)
        assert not memo.peek("missing")
        assert memo.stats() == before


class TestReplace:
    """A writer that holds the new value moves a resident entry to it."""

    def test_replaces_a_resident_key_under_the_new_tag(self):
        memo = Memo(4)
        memo.put("doc", "tree@1", tag=1)
        memo.replace("doc", "tree@2", tag=2)
        assert memo.peek("doc", tag=2) and not memo.peek("doc", tag=1)
        assert memo.get("doc", tag=2) == "tree@2"
        stats = memo.stats()
        assert (stats["entries"], stats["hits"], stats["invalidations"]) == (1, 1, 0)

    def test_never_inserts(self):
        memo = Memo(4)
        memo.replace("doc", "tree@1", tag=1)
        memo.put("other", "x")
        memo.replace("doc", "tree@2", tag=2)
        assert len(memo) == 1 and memo.get("doc", tag=2) is None

    def test_respects_the_bound(self):
        memo = Memo(10, weigh=len)
        memo.put("a", "xxxx")
        memo.put("b", "xxxx")
        memo.replace("b", "x" * 8)  # 12 > 10: evicts a, not b
        assert (memo.get("a"), memo.get("b")) == (None, "x" * 8)
        memo.replace("b", "x" * 11)  # heavier than the whole bound
        stats = memo.stats()
        assert (stats["entries"], stats["weight"], stats["evictions"]) == (0, 0, 1)


# ---------------------------------------------------------------------------
# Races and single-flight
# ---------------------------------------------------------------------------

def run_threads(count, target):
    errors = []

    def guarded(index):
        try:
            target(index)
        except BaseException as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestRaces:
    def test_racing_builders_get_the_incumbent(self):
        memo = Memo(4)
        both_building = threading.Barrier(2)
        results = [None, None]

        def worker(index):
            def build():
                both_building.wait(10)  # both missed; both build
                return object()
            results[index] = memo.get_or_build("doc", build, tag=1)

        assert run_threads(2, worker) == []
        assert results[0] is results[1]
        assert memo.get("doc", tag=1) is results[0]

    def test_single_flight_builds_once(self):
        memo = Memo(4)
        threads = 6
        builds = []
        release = threading.Event()
        served = []

        def lead(tag):
            builds.append(tag)
            release.wait(10)
            memo.put("hot", "answer", tag=tag)
            return "answer"

        def worker(_index):
            served.append(memo.single_flight("hot", lambda: 1, lead))

        def release_when_all_wait():
            while memo.flight_waits < threads - 1:
                threading.Event().wait(0.001)
            release.set()

        releaser = threading.Thread(target=release_when_all_wait)
        releaser.start()
        assert run_threads(threads, worker) == []
        releaser.join(10)
        assert builds == [1]
        assert memo.flight_waits == threads - 1
        assert sorted(served) == [(False, "answer")] + [(True, "answer")] * (threads - 1)

    def test_raising_leader_releases_waiters_who_then_build(self):
        memo = Memo(4)
        leader_running = threading.Event()
        follower_waiting = threading.Event()
        outcomes = {}

        def failing(tag):
            leader_running.set()
            follower_waiting.wait(10)
            raise RuntimeError("source down")

        def succeeding(tag):
            memo.put("k", "built by the follower", tag=tag)
            return "built by the follower"

        def leader(_index):
            try:
                memo.single_flight("k", lambda: 1, failing)
            except RuntimeError as error:
                outcomes["leader"] = str(error)

        def follower(_index):
            leader_running.wait(10)
            outcomes["follower"] = memo.single_flight("k", lambda: 1, succeeding)

        def signal_when_waiting():
            while memo.flight_waits < 1:
                threading.Event().wait(0.001)
            follower_waiting.set()

        signaller = threading.Thread(target=signal_when_waiting)
        signaller.start()
        errors = run_threads(
            2, lambda index: (leader if index == 0 else follower)(index)
        )
        signaller.join(10)
        assert errors == []
        assert outcomes == {
            "leader": "source down",
            "follower": (False, "built by the follower"),
        }
        assert memo.get("k", tag=1) == "built by the follower"

    def test_single_flight_rereads_the_tag_after_waiting(self):
        memo = Memo(4)
        version = [1]
        memo.put("k", "old", tag=1)
        version[0] = 2
        hit, value = memo.single_flight(
            "k", lambda: version[0], lambda tag: f"built at {tag}"
        )
        assert (hit, value) == (False, "built at 2")
        assert memo.stats()["invalidations"] == 1

    def test_hammer_keeps_counters_and_bound_consistent(self):
        memo = Memo(8)
        per_thread = 2000
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def worker(index):
            rng = random.Random(index)
            for step in range(per_thread):
                key = rng.randrange(12)  # 12 keys through 8 slots
                tag = step // 500  # the "version" moves under the readers
                value = memo.get_or_build(key, lambda: (key, tag), tag=tag)
                assert value == (key, tag)  # never another key's or tag's
                assert len(memo) <= 8

        try:
            assert run_threads(4, worker) == []
        finally:
            sys.setswitchinterval(previous)
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == 4 * per_thread
        assert stats["entries"] <= stats["capacity"]
        assert stats["hits"] > 0 and stats["invalidations"] > 0 and stats["evictions"] > 0


# ---------------------------------------------------------------------------
# Regressions the port fixed
# ---------------------------------------------------------------------------

class TestHonestCounters:
    def test_document_replacement_is_stale_not_an_eviction(self):
        database, store = CulturalDataset(n_artifacts=6, seed=3).build()
        wrapper = WaisWrapper("xmlartwork", store)
        old = wrapper.document("artworks")
        store.add(elem("work", atom_leaf("title", "New"), atom_leaf("artist", "A")))
        assert wrapper.document("artworks") is not old
        stats = wrapper.memo_stats()["documents"]
        assert (stats["entries"], stats["invalidations"], stats["evictions"]) == (1, 1, 0)

    def test_column_map_stats_count_what_the_clear_drops(self, monkeypatch):
        from repro.core.algebra import tab

        monkeypatch.setattr(tab, "_COLUMN_MAPS", {})
        monkeypatch.setattr(tab, "_COLUMN_MAP_CAPACITY", 4)
        before = tab.column_map_stats()["evictions"]
        for index in range(5):
            Row((f"c{index}",), (index,))
        stats = tab.column_map_stats()
        assert (stats["entries"], stats["evictions"] - before) == (1, 4)


# ---------------------------------------------------------------------------
# Structure guard: a sixteenth hand-rolled table fails here
# ---------------------------------------------------------------------------

#: The one table deliberately left off the memo; its file says why.
BARE_DICT_EXCEPTIONS = {
    SRC / "core" / "algebra" / "tab.py",  # _COLUMN_MAPS
}
HAND_ROLLED = (
    ("OrderedDict", re.compile(r"\bOrderedDict\b")),
    ("popitem(", re.compile(r"\.popitem\(")),
    (".pop(next(iter(", re.compile(r"\.pop\(\s*next\(\s*iter\(")),
    ("*_evictions attribute", re.compile(r"\b\w+_evictions\b")),
    ("capacity-guarded clear()", re.compile(
        r"if [^\n]*>=?[^\n]*(?:CAPACITY|capacity)[^\n]*:\n(?:[^\n]*\n){0,2}?"
        r"[^\n]*\.clear\(\)"
    )),
)


def test_no_hand_rolled_bounded_table_outside_memo_py():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "memo.py" or path in BARE_DICT_EXCEPTIONS:
            continue
        text = path.read_text()
        for name, pattern in HAND_ROLLED:
            if pattern.search(text):
                offenders.append(f"{path.relative_to(REPO)}: {name}")
    assert offenders == []


#: A name bound to a Memo, and a call on it whose key is (or starts with)
#: an ``id(...)``.
MEMO_NAME = re.compile(r"(\w+)\s*(?::[^=\n]*)?=\s*Memo\(")
IDENTITY_KEY = r"\b{}\.\w+\(\s*\(?\s*id\("


def test_no_memo_keyed_on_object_identity():
    # What a plan node compiles is kept on the node, so it lives exactly
    # as long as the plan.  A Memo keyed by id(...) would serve a dead
    # object's value to whatever reuses its id, and the memo no longer
    # carries an identity anchor to stop that.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if "Memo(" not in text:
            continue
        for name in set(MEMO_NAME.findall(text)):
            if re.search(IDENTITY_KEY.format(re.escape(name)), text):
                offenders.append(f"{path.relative_to(REPO)}: {name} keyed by id()")
    if re.search(r"\banchor", (SRC / "memo.py").read_text()):
        offenders.append("src/repro/memo.py: anchor")
    assert offenders == []


#: The only functions that take a ``tracer``: the public calls that put it
#: on the request's context, once, plus the context's own constructor and
#: a span's link to the tracer that owns it.
TRACER_PARAMETERS = {
    ("mediator/mediator.py", "query"),
    ("mediator/mediator.py", "explain"),
    ("server/server.py", "submit"),
    ("observability/context.py", "__init__"),
    ("observability/tracer.py", "__init__"),
}
RETIRED_PLUMBING = re.compile(
    r"\b(FailoverAdapter|pop_store_stats|pop_stats|set_tracer|activate_tracer)\b"
)
CONTEXT_FIELDS = {
    "request_id", "tenant", "priority", "deadline",
    "tracer", "params", "stats",
}


def test_one_carrier_for_request_state():
    # Per-request state (tracer, stats, parameters, deadline) reaches
    # the layers below the mediator through the active RequestContext
    # only: no tracer plumbing, no side channel, and no code that edits
    # a context someone else may be sharing.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        text = path.read_text()
        offenders.extend(
            f"{relative}: {match}" for match in RETIRED_PLUMBING.findall(text)
        )
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                where = (relative, getattr(node, "name", "<lambda>"))
                if "tracer" in names and where not in TRACER_PARAMETERS:
                    offenders.append(f"{relative}:{node.lineno}: tracer parameter")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        relative != "observability/context.py"
                        and isinstance(target, ast.Attribute)
                        and target.attr in CONTEXT_FIELDS
                        and ast.unparse(target.value).endswith("context")
                    ):
                        offenders.append(
                            f"{relative}:{node.lineno}: assigns {ast.unparse(target)}"
                        )
    assert offenders == []


def test_one_tab_representation():
    # A Tab is its column arrays; no code asks how it is stored, and no
    # wrapper or source builds a Row per answer row.
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        relative = path.relative_to(SRC)
        for needle in ("is_columnar", "_rows is None"):
            if needle in text:
                offenders.append(f"{relative}: {needle}")
        if relative.parts[0] in ("wrappers", "sources") and re.search(
            r"\bRow\(", text
        ):
            offenders.append(f"{relative}: Row(")
    assert offenders == []


def test_the_named_exceptions_say_why():
    for path in BARE_DICT_EXCEPTIONS:
        assert "Deliberately a bare dict, not a :class:`repro.memo.Memo`" in (
            path.read_text()
        )


# ---------------------------------------------------------------------------
# Catalogue: README's memo table == the memo= labels actually emitted
# ---------------------------------------------------------------------------

def documented_memos():
    readme = (REPO / "README.md").read_text()
    section = readme.split("## Caches and memos", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        match = re.match(r"\|\s*`([^`]+)`\s*\|", line)
        if match:
            names.add(match.group(1))
    return names


def emitted_memos():
    database, store = CulturalDataset(n_artifacts=8, seed=3).build()
    partition = HashPartition("artist", 2)
    stores = shard_wais_store(store, partition)
    stored = StoredXmlSource()
    stored.add_tree("stored_artworks", elem("works", elem(
        "work", atom_leaf("title", "T"), atom_leaf("cplace", "Giverny"))))
    mediator = Mediator(result_cache_bytes=1 << 20)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect_sharded(
        "xmlartwork", build_sharded_wais("xmlartwork", stores), partition
    )
    mediator.connect(StoreWrapper("depot", stored))
    mediator.load_program(VIEW1_YAT)
    mediator.query(Q1)
    mediator.query(Q2)
    registry = MetricsRegistry()
    record_memo_stats(registry, mediator)
    labels = set(re.findall(r'memo="([^"]+)"', registry.exposition()))
    sources = sorted(mediator.catalog.adapters(), key=len, reverse=True)
    names = set()
    for label in labels:
        for source in sources:
            if label.startswith(source + "."):
                label = "<source>" + label[len(source):]
                break
        names.add(label)
    return names


def test_readme_memo_table_matches_the_emitted_labels():
    documented, emitted = documented_memos(), emitted_memos()
    assert documented - emitted == set(), "documented but never emitted"
    assert emitted - documented == set(), "emitted but undocumented"
