"""The freshness invariant, as one stateful property.

Every cache in this package is tagged with the version of what it was
computed from, read before the computation (:mod:`repro.memo`).  What
that buys is stated here once, against every cache at the same time:
whatever interleaving of source writes, catalog changes, replica
failures and reads happens, **an answer the mediator serves equals a
recompute over the same sources now** — and a degraded answer is never
served to a later read.

The machine drives one mediator with everything on (plan cache, result
cache, a view over a spliced view, O2 / stored / 5-shard replicated
sources).  The oracle is rebuilt from scratch for every read — fresh
wrappers, ``plan_cache_size=0``, no result cache, no faults — so no memo
it holds is older than the read it answers.

The shards start with two of them empty, and shard writes can fill one:
a scatter skips a shard that holds nothing, yet a write into it must
reach the next read.

The store holds two documents and every write replaces one of them, so
the oracle also checks the store's per-document hydration tags: a write
to one document must reach its reads and leave the other's alone.  A
threaded check then races one writer against readers of both.
"""

import sys
import threading
import time

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro import (
    Mediator,
    O2Wrapper,
    ResiliencePolicy,
    StoreWrapper,
    StoredXmlSource,
)
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.errors import PartialResultError, SourceError
from repro.model.trees import atom_leaf, elem
from repro.model.xml_io import tree_to_xml
from repro.sources.sharded import (
    HashPartition,
    build_sharded_wais,
    shard_wais_store,
)
from repro.testing import FaultSchedule, FaultyWrapper
from repro.testing.faults import FaultInjector

#: A second view over the artworks view; both are spliced into the
#: query.  Re-registering it adds a rule for the next style, so a
#: catalog change the mediator ignored shows up as missing items.
SELECTION_YAT = """
selection() :=
MAKE doc [ * item [ title: $t, artist: $a ] ]
MATCH artworks WITH doc . work [ title . $t, artist . $a, style . $s ]
WHERE $s = "%s"
"""
STYLES = ("Impressionist", "Baroque", "Cubist")

#: The stored source's documents and the title prefix of each one's works.
STORED = {"stored_artworks": "Stored", "stored_prints": "Print"}
#: Stored reads: interval pushdown to atoms, pushdown binding a subtree
#: (hydrated per work), and a rest variable (hydrated scan).
STORED_QUERIES = (
    'MAKE $t MATCH {doc} WITH works .. work [ title . $t, cplace . $c ] '
    'WHERE $c = "Giverny"',
    'MAKE doc [ * hit [ w: $w ] ] MATCH {doc} WITH works . work $w',
    'MAKE doc [ * hit [ title: $t, more: $f ] ] MATCH {doc} WITH '
    'works . work [ title . $t, cplace . "Giverny", *($f) ]',
)

QUERIES = (
    Q1,  # spliced view over O2 + sharded Wais, result-cached
    Q2,
    "MAKE $t MATCH selection WITH doc . item [ title . $t ]",  # via the view
    STORED_QUERIES[0].format(doc="stored_artworks"),
    STORED_QUERIES[2].format(doc="stored_artworks"),
    STORED_QUERIES[1].format(doc="stored_prints"),
    STORED_QUERIES[2].format(doc="stored_prints"),
)
#: Five hash shards over the six artists of the data leave shards 0 and
#: 4 empty; Alfred Sisley belongs on shard 0, so writing his works fills
#: a shard that every earlier scatter skipped.
ARTISTS = ("Claude Monet", "Alfred Sisley")
SHARDS = 5
PARTIAL = ResiliencePolicy(allow_partial_results=True)

queries = st.sampled_from(QUERIES)
artists = st.sampled_from(ARTISTS)
serials = st.integers(0, 1)


def stored_tree(works: int, prefix: str = "Stored"):
    return elem("works", *[
        elem("work", atom_leaf("title", f"{prefix} {index}"),
             atom_leaf("cplace", "Giverny" if index % 2 == 0 else "Paris"))
        for index in range(works)
    ])


def answer(result) -> str:
    return tree_to_xml(result.document())


class FreshnessMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.database, store = CulturalDataset(n_artifacts=6, seed=3).build()
        self.partition = HashPartition("artist", SHARDS)
        self.stores = shard_wais_store(store, self.partition)
        assert len(self.stores[self.partition.shard_of(ARTISTS[1])]) == 0
        #: An existing owner for inserted artifacts: pushed O2 fragments
        #: range over ``owners``, so an owner-less artifact joins nothing.
        first = self.database.get(self.database.extent("artifacts")[0])
        self.owners = first.values["owners"][:1]
        self.stored_works = dict.fromkeys(STORED, 3)
        self.stored = self.stored_source()
        self.replicas = {}
        self.reloads = 0
        self.written = 0

        def faulty(wrapper, shard, replica):
            proxy = FaultyWrapper(wrapper, FaultSchedule())
            self.replicas[(shard, replica)] = proxy
            return proxy

        self.mediator = self.connect(
            Mediator(result_cache_bytes=1 << 20),
            build_sharded_wais("xmlartwork", self.stores, replicas=2, wrap=faulty),
            self.stored,
        )
        for query in QUERIES:  # start warm: every later write finds entries
            self.read(query)

    def connect(self, mediator, shard_adapters, stored):
        mediator.connect(O2Wrapper("o2artifact", self.database))
        mediator.connect_sharded("xmlartwork", shard_adapters, self.partition)
        mediator.connect(StoreWrapper("depot", stored))
        mediator.load_program(VIEW1_YAT)
        for style in STYLES[: 1 + self.reloads]:
            mediator.load_program(SELECTION_YAT % style)
        return mediator

    def stored_source(self) -> StoredXmlSource:
        stored = StoredXmlSource()
        for name, prefix in STORED.items():
            stored.add_tree(name, stored_tree(self.stored_works[name], prefix))
        return stored

    def recompute(self, text: str) -> str:
        """The answer over the same sources *now*, sharing no memo."""
        oracle = self.connect(
            Mediator(plan_cache_size=0),
            build_sharded_wais("xmlartwork", self.stores),
            self.stored_source(),
        )
        return answer(oracle.query(text))

    def read(self, query: str, bypass: bool = False) -> None:
        """One read; whatever is served unflagged must equal a recompute."""
        try:
            served = self.mediator.query(
                query, policy=PARTIAL, use_result_cache=not bypass
            )
        except (SourceError, PartialResultError):
            return  # shards are down and nothing partial can be served
        if not served.degraded:  # flagged partial answers are allowed
            assert answer(served) == self.recompute(query)

    # Every rule changes one thing, then reads one query.

    @rule(artist=artists, serial=serials, query=queries)
    def write_o2(self, artist, serial, query):
        self.database.insert("artifact", {
            "title": f"Fresh {serial}", "year": 1901, "creator": artist,
            "price": 1000.0 + serial, "owners": list(self.owners),
        })
        self.read(query)

    @rule(artist=artists, serial=serials, query=queries)
    def write_shard(self, artist, serial, query):
        self.written += 1
        self.stores[self.partition.shard_of(artist)].add(
            elem(
                "work", atom_leaf("artist", artist),
                atom_leaf("title", f"Fresh {serial}"),
                atom_leaf("style", "Impressionist"), atom_leaf("size", "1 x 1"),
                atom_leaf("cplace", "Giverny"),
            ),
            doc_id=f"fresh{self.written}",
        )
        self.read(query)

    @rule(document=st.sampled_from(sorted(STORED)), works=st.integers(1, 5),
          query=queries)
    def write_stored(self, document, works, query):
        self.stored_works[document] = works
        self.stored.add_tree(document, stored_tree(works, STORED[document]))
        self.read(query)

    @rule(query=queries)
    def reregister_view(self, query):
        if self.reloads + 1 < len(STYLES):
            self.reloads += 1
            self.mediator.load_program(SELECTION_YAT % STYLES[self.reloads])
        self.read(query)

    @rule(shard=st.integers(0, SHARDS - 1), dead=st.integers(0, 2), query=queries)
    def fail_replicas(self, shard, dead, query):
        """Leave the first *dead* of the shard's two replicas down."""
        for replica in (0, 1):
            proxy = self.replicas[(shard, replica)]
            schedule = FaultSchedule()
            if replica < dead:
                schedule.dead_source()
            proxy.injector = FaultInjector(proxy.name, schedule, None)
        self.read(query)

    @rule(query=queries, bypass=st.booleans())
    def read_only(self, query, bypass):
        self.read(query, bypass)

    @invariant()
    def bounds_hold(self):
        for name, stats in self.mediator.memo_stats().items():
            assert stats["entries"] <= stats["capacity"], name


FreshnessMachine.TestCase.settings = settings(
    max_examples=10, stateful_step_count=10, deadline=None
)
TestFreshness = FreshnessMachine.TestCase


def test_a_write_into_an_empty_shard_reaches_the_next_read():
    """The machine's rules in the one order that needs a skipped shard in
    the version vector: the artifact first (O2 moves, the entry is
    re-stored while shard 0 is still empty), then its work on shard 0."""
    machine = FreshnessMachine()
    machine.write_o2(ARTISTS[1], 0, Q1)
    machine.write_shard(ARTISTS[1], 0, Q1)
    assert "Fresh 0" in answer(machine.mediator.query(Q1))


def stored_answer(trees, text: str) -> str:
    """*text* over a fresh store holding *trees*, sharing no memo."""
    source = StoredXmlSource()
    for name, tree in trees.items():
        source.add_tree(name, tree)
    mediator = Mediator(plan_cache_size=0)
    mediator.connect(StoreWrapper("depot", source))
    return answer(mediator.query(text))


def test_a_racing_writer_reaches_only_its_own_document():
    """One writer flips ``a`` between two trees while three readers read
    ``a`` and ``b``: every ``a`` answer is the old or the new document's,
    and every ``b`` answer is the one it always was."""
    old, new, other = stored_tree(2), stored_tree(4, "Fresh"), stored_tree(3, "Print")
    texts = [query.format(doc=doc) for query in STORED_QUERIES for doc in "ab"]
    allowed = {
        text: {stored_answer({"a": tree, "b": other}, text) for tree in (old, new)}
        for text in texts
    }
    for text in texts:  # the check can tell old from new, and b is constant
        assert len(allowed[text]) == (2 if " a WITH" in text else 1), text
    source = StoredXmlSource()
    source.add_tree("a", old)
    source.add_tree("b", other)
    mediator = Mediator(result_cache_bytes=1 << 20)
    mediator.connect(StoreWrapper("depot", source))
    writing = threading.Event()
    writing.set()
    failures, reads, writes = [], [], []

    def reader(index):
        rotation = texts[index:] + texts[:index]
        try:
            while writing.is_set():
                for text in rotation:
                    served = answer(mediator.query(text))
                    reads.append(1)
                    if served not in allowed[text]:
                        failures.append((text, served))
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(repr(error))

    def writer():
        deadline = time.perf_counter() + 0.4
        try:
            while time.perf_counter() < deadline:
                source.add_tree("a", new if len(writes) % 2 == 0 else old)
                writes.append(1)
        finally:
            writing.clear()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(writes) >= 4 and len(reads) >= 3 * len(texts)
