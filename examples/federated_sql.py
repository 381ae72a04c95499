"""Federating a SQL source: "SQL can be described in a similar manner".

Section 4.1 claims the capability machinery that wraps OQL also wraps
SQL.  This example proves it end to end:

* the same artifacts live in a relational ``sales`` table (sqlite3) and
  in the Wais XML repository;
* a generic :class:`SqlWrapper` exports the table's structure, an Fmodel
  with the same ``bind``/``inst`` flag vocabulary, and the comparison
  predicates;
* a mediator view joins the SQL rows with the XML documents, and a user
  query is optimized exactly like Q2 — the relational fragment becomes
  one parameterized SQL statement whose ``IN (VALUES ...)`` carries every
  driving row's key (the paper would execute it once per driving row).

Run:  python examples/federated_sql.py
"""

from repro import Mediator, SqlWrapper, WaisWrapper
from repro.core.algebra.operators import PushedOp
from repro.datasets import CulturalDataset

VIEW_SQL = """
catalogue() :=
MAKE doc [ *&entry($t) :=
    item [ title: $t, artist: $a, style: $s, price: $p ] ]
MATCH sales WITH rows *row [ title: $t, creator: $c, price: $p ],
      artworks WITH works *work [ artist: $a, title: $t', style: $s ]
WHERE $c = $a AND $t = $t'
"""

QUERY = """
MAKE doc [ * bargain [ title: $t, price: $p ] ]
MATCH catalogue WITH doc . item [ title . $t, style . $s, price . $p ]
WHERE $s = "Impressionist" AND $p < 1000000.0
"""


def main() -> None:
    dataset = CulturalDataset(n_artifacts=40, seed=11)
    database, store = dataset.build()
    sales = dataset.build_sales(database)

    mediator = Mediator("federation")
    mediator.connect(SqlWrapper("salesdb", sales))
    mediator.connect(WaisWrapper("xmlartwork", store))
    views = mediator.load_program(VIEW_SQL)
    print(f"views: {views}")

    naive = mediator.query(QUERY, optimize=False)
    optimized = mediator.query(QUERY)
    assert naive.document() == optimized.document()

    print("\nanswer:")
    for child in optimized.document().children[:8]:
        title = child.child("title").atom
        price = child.child("price").atom
        print(f"  {title:24s} {price:12,.2f}")

    print("\noptimized plan:")
    print(optimized.plan.pretty())

    print("\nnative queries the sources executed (first few distinct):")
    for source, native in optimized.report.stats.distinct_native_queries()[:4]:
        print(f"  [{source}] {native}")

    print("\ntransfer comparison:")
    print(f"  naive:     {naive.report.stats.total_bytes_transferred:7d} bytes, "
          f"{naive.report.stats.total_source_calls} calls")
    print(f"  optimized: {optimized.report.stats.total_bytes_transferred:7d} bytes, "
          f"{optimized.report.stats.total_source_calls} calls")


if __name__ == "__main__":
    main()
