"""Demand reaches the source: only the columns the query reads, as
distinct rows where duplicates no longer matter.

The view of Section 2 exports eleven variables; a query over it reads a
few.  The demand analysis (:mod:`repro.core.optimizer.demand`) narrows
every pushed O2 fragment to the query's columns plus the DJoin's keys
and, under the ``Distinct`` that Bind-Tree elimination leaves above,
makes it ``select distinct``.  The oracle is the naive plan on the
reference engine (``optimize=False`` + ``ExecutionPolicy.serial()``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    ExecutionPolicy,
    Mediator,
    O2Wrapper,
    RequestContext,
    WaisWrapper,
)
from repro.core.algebra.operators import DJoinOp, DistinctOp, PushedOp, ProjectOp
from repro.core.algebra.scheduling import passed_pairs
from repro.core.algebra.tab import Row
from repro.datasets import CulturalDataset, Q2, VIEW1_YAT
from repro.datasets.cultural import ARTISTS, STYLES
from repro.model.trees import atom_leaf, elem
from repro.model.xml_io import tree_to_xml
from repro.sources.objectdb import Oid

SERIAL = ExecutionPolicy.serial()

YEAR = """
MAKE doc [ * item [ title: $t, year: $y ] ]
MATCH artworks WITH doc . work [ title . $t, year . $y ]
WHERE $y > {year}
"""


def federation(database, store, **options):
    mediator = Mediator(**options)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


@pytest.fixture(scope="module")
def paper():
    """The benchmark's federation: 200 artifacts, two owners each."""
    return federation(*CulturalDataset(n_artifacts=200).build())


# -- the plan ------------------------------------------------------------------------


def test_year_fragment_returns_distinct_query_columns_only(paper):
    result = paper.query(YEAR.format(year=1873))
    plan = result.plan
    (pushed,) = [n for n in plan.walk() if isinstance(n, PushedOp)]
    assert isinstance(pushed.plan, DistinctOp)
    assert pushed.output_columns() == ("t", "y", "c")  # c: a passed key
    assert not any(
        isinstance(n, ProjectOp) and isinstance(n.input, ProjectOp)
        for n in plan.walk()
    )
    ((_source, native),) = [
        q for q in result.report.stats.native_queries if q[0] == "o2artifact"
    ]
    head = native.split(" from ")[0]
    assert head == "select distinct t: R1.title, y: R1.year, c: R1.creator"
    # The unnest stays: an artifact without owners matches nothing.
    assert " from R1 in artifacts, R2 in R1.owners where " in native
    assert result.report.stats.rows_transferred["o2artifact"] == 126


# -- E3-style counters: what crosses the O2 boundary ---------------------------------


@pytest.mark.parametrize("text, rows, size", [
    (YEAR.format(year=1873), 126, 18278),
    (Q2, 51, 7744),
])
def test_o2_transfer_is_the_query_columns_once_each(paper, text, rows, size):
    stats = paper.query(text).report.stats
    assert stats.source_calls["o2artifact"] == 1
    assert stats.rows_transferred["o2artifact"] == rows
    assert stats.bytes_transferred["o2artifact"] == size


# -- one Tab representation: the pushed answer stays columns ------------------------


def test_pushed_year_answer_builds_no_row(paper, monkeypatch):
    # The O2 call answers with columns, transfer accounting prices them
    # and the set-valued DJoin re-expands them: no Row per answer row (a
    # BindingSet is the one outer row the call carries, not an answer).
    result = paper.query(YEAR.format(year=1873))
    (djoin,) = [
        node for node in result.plan.walk()
        if isinstance(node, DJoinOp) and passed_pairs(node)
    ]
    built = []
    construct = Row.__init__

    def counting(self, columns, cells):
        if type(self) is Row:
            built.append(columns)
        construct(self, columns, cells)

    monkeypatch.setattr(Row, "__init__", counting)
    # A part of a cached plan runs with the query's parameters.
    stats = paper.execute(
        djoin, context=RequestContext(params=result.params)
    ).stats
    assert stats.source_calls["o2artifact"] == 1
    assert stats.rows_transferred["o2artifact"] == 126
    assert stats.passed_keys > 1
    assert built == []


# -- the differential ------------------------------------------------------------------


@pytest.fixture(scope="module")
def small():
    """Two federations over one small dataset: the default one, and a
    cache-less one for the naive oracle.  Beside the generated artifacts:
    ``served_mix``'s write (a new work and its artifact, without owners),
    an artifact without owners whose work exists (the unnest must drop
    both), and one that repeats another's title, creator, year and price
    with another owner (a duplicate below the Distinct).

    Inserts keep artifacts and works in one order: the optimizer drives
    the join from the works, the naive plan from the artifacts, and the
    answers agree only where those orders do."""
    database, store = CulturalDataset(n_artifacts=12, seed=5).build()
    work = next(iter(store.collection_tree().children))
    first = database.get(database.extent("artifacts")[0]).values
    store.add(elem(
        "work", atom_leaf("artist", ARTISTS[0]), atom_leaf("title", "Commission"),
        atom_leaf("style", STYLES[0]), atom_leaf("size", "50 x 50"),
    ))
    for title, creator in (
        ("Commission", ARTISTS[0]),
        (work.child("title").atom, work.child("artist").atom),
    ):
        database.insert("artifact", {
            "title": title, "creator": creator, "year": 1950, "price": 5e5,
            "owners": [],
        })
    owner = Oid(next(iter(database.extent("persons"))))
    database.insert("artifact", dict(first, owners=[owner]))
    return federation(database, store), federation(
        database, store, plan_cache_size=0
    )


COLUMNS = (("title", "t"), ("artist", "a"), ("year", "y"), ("price", "p"),
           ("style", "s"))
PRICES = st.one_of(
    st.integers(0, 2_100_000), st.floats(0, 2.1e6).map(lambda x: round(x, 2))
)


@st.composite
def view_join_texts(draw):
    make = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=5,
                         unique=True))
    form = draw(st.sampled_from(["year", "artist_price", "q2"]))
    if form == "year":
        where = f"$y > {draw(st.integers(1790, 2000))}"
    elif form == "artist_price":
        where = f'$a = "{draw(st.sampled_from(ARTISTS))}" AND $p < {draw(PRICES)!r}'
    else:
        where = f'$s = "{draw(st.sampled_from(STYLES))}" AND $p < {draw(PRICES)!r}'
    items = ", ".join(f"{label}: ${var}" for label, var in make)
    return (
        f"MAKE doc [ * item [ {items} ] ]\n"
        "MATCH artworks WITH doc . work [ title . $t, artist . $a, year . $y, "
        "price . $p, style . $s ]\n"
        f"WHERE {where}"
    )


@settings(max_examples=40, deadline=None)
@given(view_join_texts())
def test_default_plan_answers_like_the_naive_reference(small, text):
    default, oracle = small
    answer = tree_to_xml(default.query(text).document())
    reference = oracle.query(text, optimize=False, execution=SERIAL)
    assert answer == tree_to_xml(reference.document())
