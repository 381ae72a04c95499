"""The freshness invariant, as one stateful property.

Every cache in this package is tagged with the version of what it was
computed from, read before the computation (:mod:`repro.memo`).  What
that buys is stated here once, against every cache at the same time:
whatever interleaving of source writes, catalog changes, replica
failures and reads happens, **an answer the mediator serves equals a
recompute over the same sources now** — and a degraded answer is never
served to a later read.

The machine drives one mediator with everything on (plan cache, result
cache, a materialized view over a spliced view, O2 / stored / 2-shard
replicated sources).  The oracle is rebuilt from scratch for every read
— fresh wrappers, ``plan_cache_size=0``, no result cache, no faults — so
no memo it holds is older than the read it answers.  It declares the
same view materialized because that is catalog, not cache state: over
shards the refresh plan (unoptimized) and the spliced plan (optimized)
order a join differently, at this commit and before it.
"""

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

#: A second view over the (spliced) artworks view; this one is
#: materialized.  Re-registering it adds a rule for the next style, so a
#: catalog change the mediator ignored shows up as missing items.
SELECTION_YAT = """
selection() :=
MAKE doc [ * item [ title: $t, artist: $a ] ]
MATCH artworks WITH doc . work [ title . $t, artist . $a, style . $s ]
WHERE $s = "%s"
"""
STYLES = ("Impressionist", "Baroque", "Cubist")

QUERIES = (
    Q1,  # spliced view over O2 + sharded Wais, result-cached
    Q2,
    "MAKE $t MATCH selection WITH doc . item [ title . $t ]",  # via the view
    # Stored source: interval pushdown, then a rest variable (hydrated scan).
    'MAKE $t MATCH stored_artworks WITH works .. work [ title . $t, cplace . $c ] '
    'WHERE $c = "Giverny"',
    'MAKE doc [ * hit [ title: $t, more: $f ] ] MATCH stored_artworks WITH '
    'works . work [ title . $t, cplace . "Giverny", *($f) ]',
)
ARTISTS = ("Claude Monet", "Edgar Degas")
SHARDS = 2
PARTIAL = ResiliencePolicy(allow_partial_results=True)

queries = st.sampled_from(QUERIES)
artists = st.sampled_from(ARTISTS)
serials = st.integers(0, 1)


def stored_tree(works: int):
    return elem("works", *[
        elem("work", atom_leaf("title", f"Stored {index}"),
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
        self.stored_works = 3
        self.stored = StoredXmlSource()
        self.stored.add_tree("stored_artworks", stored_tree(self.stored_works))
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
        mediator.materialize_view("selection")
        return mediator

    def recompute(self, text: str) -> str:
        """The answer over the same sources *now*, sharing no memo."""
        stored = StoredXmlSource()
        stored.add_tree("stored_artworks", stored_tree(self.stored_works))
        oracle = self.connect(
            Mediator(plan_cache_size=0),
            build_sharded_wais("xmlartwork", self.stores),
            stored,
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
            "price": 1000.0 + serial, "owners": [],
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

    @rule(works=st.integers(1, 5), query=queries)
    def write_stored(self, works, query):
        self.stored_works = works
        self.stored.add_tree("stored_artworks", stored_tree(works))
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
