"""D1 — out-of-core documents: SQL interval pushdown vs full materialization.

The store's claim is that a constant-restricted descent over a shredded
document should never pay for the whole tree: the interval self-join
returns binding tuples and only the bound subtrees hydrate.  The
comparison here holds everything else constant:

* **pushdown** — :func:`~repro.store.pushdown.compile_pushdown` runs
  against the sqlite rows; result tuples decode atoms in place and
  hydrate element bindings lazily.
* **materialize** — the out-of-core baseline: hydrate the *whole*
  document from the same sqlite rows (memo disabled, so every repeat
  pays the full rebuild, exactly what a cold request costs), then run
  the in-memory recursive matcher over it.

Answers are verified identical (values *and* order) before anything is
timed.  The acceptance tests at the bottom enforce the ISSUE 8 bar:
>= 3x at the largest size, and the pushdown side hydrating < 20% of the
document's nodes.
"""

import statistics
import time

import pytest

from repro.core.algebra.bind import match_filter
from repro.datasets import CulturalDataset
from repro.model.trees import DataNode
from repro.model.values import parse_atom
from repro.model.xml_io import tree_to_xml
from repro.store import DocumentStore, compile_pushdown
from repro.yatl.parser import parse_filter

#: The D1 workload: a descent restricted by one constant leaf — selective
#: enough that most ``work`` subtrees never match.
D1_FILTER_TEXT = 'works .. work [ cplace . "Giverny", title . $t ]'


def median_seconds(run, repeats=10):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def decode_pushdown(store, document, compiled):
    """Execute + decode a compiled pushdown into binding tuples."""
    raw = store.fetch_bounded(
        compiled.sql, compiled.bind_params(document), 1_000_000
    )
    width = len(compiled.variables)
    rows = []
    for record in raw:
        cells = []
        for i in range(width):
            pre, kind, vtype, value = record[4 * i : 4 * i + 4]
            if kind == "atom":
                cells.append(parse_atom(vtype, value))
            else:
                cells.append(store.hydrate(document, pre))
        rows.append(tuple(cells))
    return rows


def oracle_tuples(tree, flt):
    variables = flt.variables()
    return [
        tuple(binding[var] for var in variables)
        for binding in match_filter(tree, flt)
    ]


def build_stores(n, seed=1):
    """Two stores over identical rows: one for pushdown, one for the
    materialization baseline (its memo is cleared before every read, so
    each hydration is a cold rebuild, the out-of-core worst case)."""
    _database, wais = CulturalDataset(n_artifacts=n, seed=seed).build()
    tree = wais.collection_tree()
    pushdown_store = DocumentStore()
    pushdown_store.add("artworks", tree)
    cold_store = DocumentStore()
    cold_store.add("artworks", tree)
    return tree, pushdown_store, cold_store


def speedup_rows(sizes=(25, 100, 400), repeats=10, seed=1):
    """``(n, materialize_s, pushdown_s, speedup, hydrated_fraction)`` per
    size; both answers verified against the in-memory matcher first."""
    flt = parse_filter(D1_FILTER_TEXT)
    compiled = compile_pushdown(flt)
    assert compiled is not None, "D1 filter left the pushdown fragment"
    rows = []
    for n in sizes:
        tree, pushdown_store, cold_store = build_stores(n, seed=seed)
        expected = oracle_tuples(tree, flt)

        def materialize():
            cold_store._hydration.clear()
            hydrated = cold_store.hydrate_document("artworks")
            return oracle_tuples(hydrated, flt)

        def pushdown():
            return decode_pushdown(pushdown_store, "artworks", compiled)

        def canon(tuples):
            return [
                tuple(
                    tree_to_xml(cell) if isinstance(cell, DataNode) else cell
                    for cell in row
                )
                for row in tuples
            ]

        assert canon(pushdown()) == canon(expected)
        assert canon(materialize()) == canon(expected)

        pushdown_store.pop_stats()
        decode_pushdown(pushdown_store, "artworks", compiled)
        delta = pushdown_store.pop_stats()
        fraction = (
            delta.get("hydrated_nodes", 0)
            / pushdown_store.node_count("artworks")
        )

        materialize_s = median_seconds(materialize, repeats)
        pushdown_s = median_seconds(pushdown, repeats)
        rows.append(
            (n, materialize_s, pushdown_s, materialize_s / pushdown_s, fraction)
        )
    return rows


# ---------------------------------------------------------------------------
# pytest-benchmark series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [25, 100, 400])
def test_bench_store_pushdown(benchmark, n):
    """The D1 descent answered by the SQL interval join."""
    _tree, pushdown_store, _cold = build_stores(n)
    compiled = compile_pushdown(parse_filter(D1_FILTER_TEXT))
    rows = benchmark(decode_pushdown, pushdown_store, "artworks", compiled)
    benchmark.extra_info["rows"] = len(rows)


def test_store_pushdown_beats_materialization_3x():
    """Acceptance check (ISSUE 8): at n=400 the interval pushdown must
    answer the constant-restricted descent at least 3x faster than
    hydrating the whole document and matching in memory."""
    (_n, materialize_s, pushdown_s, speedup, _fraction), = speedup_rows(
        sizes=(400,), repeats=10
    )
    assert speedup >= 3.0, (
        f"pushdown {pushdown_s * 1e3:.3f}ms is only {speedup:.1f}x faster "
        f"than {materialize_s * 1e3:.3f}ms full materialization (need >= 3x)"
    )


def test_store_pushdown_hydrates_under_20_percent():
    """The lazy-hydration bar: the pushdown side of the D1 descent must
    materialize fewer than 20% of the stored document's nodes."""
    (_n, _materialize_s, _pushdown_s, _speedup, fraction), = speedup_rows(
        sizes=(400,), repeats=3
    )
    assert fraction < 0.2, (
        f"pushdown hydrated {fraction:.1%} of the document (need < 20%)"
    )
