"""The cultural portal over a sharded, replicated Wais source.

The paper's mediator wraps each source as one endpoint; a portal at
scale stores its descriptive documents across N shards with replicas.
This example registers an 8-shard artist-partitioned Wais source under
the single logical name ``xmlartwork`` and shows the four behaviors the
sharding layer adds — without changing a single query:

* scatter-gather — a full scan fans out to every shard that holds data,
  serially or overlapped under ``ExecutionPolicy(parallelism=8)``;
* shard pruning — an artist-equality query is planned against the one
  shard that can hold the answer (``EXPLAIN`` shows the decision);
* byte identity — every answer matches a monolithic mediator over the
  same documents;
* replica failover — with every primary replica dead, calls reroute to
  the secondary and the answer is still complete (not degraded).

Run:  python examples/sharded_portal.py [n_artifacts]
"""

import sys

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.core.algebra.scheduling import ExecutionPolicy
from repro.datasets import CulturalDataset, VIEW1_YAT
from repro.mediator.resilience import ResiliencePolicy
from repro.model.xml_io import tree_to_xml
from repro.sources.sharded import (
    HashPartition,
    build_sharded_wais,
    shard_major_store,
    shard_wais_store,
)
from repro.testing import FaultSchedule, FaultyWrapper

SCAN_Q = """MAKE $t
MATCH artworks WITH doc . work [ title . $t, artist . $a ]
"""
PRUNE_Q = """MAKE $t
MATCH artworks WITH doc . work [ title . $t, artist . $a ]
WHERE $a = "Claude Monet"
"""
SHARDS = 8


def build_portal(database, stores, partition, replicas=1, wrap=None):
    mediator = Mediator("portal")
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect_sharded(
        "xmlartwork",
        build_sharded_wais("xmlartwork", stores, replicas=replicas, wrap=wrap),
        partition,
    )
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


def dead_primary(wrapper, shard, replica):
    """Replica 0 of every shard fails instantly; replica 1 is healthy."""
    if replica == 0:
        return FaultyWrapper(wrapper, FaultSchedule().dead_source())
    return wrapper


def main() -> None:
    n_artifacts = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=42).build()
    partition = HashPartition("artist", SHARDS)
    stores = shard_wais_store(store, partition)

    # The oracle: one mediator over the shard-major concatenation.
    mono = Mediator("portal")
    mono.connect(O2Wrapper("o2artifact", database))
    mono.connect(WaisWrapper("xmlartwork", shard_major_store(stores)))
    mono.declare_containment("artworks", "artifacts")
    mono.load_program(VIEW1_YAT)

    portal = build_portal(database, stores, partition)

    print(f"1. scatter-gather: full scan over {SHARDS} shards")
    serial = portal.query(SCAN_Q, execution=ExecutionPolicy(parallelism=1))
    parallel = portal.query(SCAN_Q, execution=ExecutionPolicy(parallelism=8))
    reference = tree_to_xml(mono.query(SCAN_Q).document())
    print(f"   shards read: {serial.report.stats.shard_scatter}/{SHARDS}  "
          f"(empty shards skipped: {serial.report.stats.shard_pruned})")
    print(f"   serial == parallel == monolithic answer: "
          f"{tree_to_xml(serial.document()) == tree_to_xml(parallel.document()) == reference}")

    print("\n2. shard pruning: WHERE $a = \"Claude Monet\" reads one shard")
    pruned = portal.query(PRUNE_Q)
    print(f"   shards read: {pruned.report.stats.shard_scatter}/{SHARDS}  "
          f"(pruned {pruned.report.stats.shard_pruned})")
    for line in portal.explain(PRUNE_Q).render().splitlines():
        if "shard" in line:
            print(f"   {line.strip()}")
    print(f"   identical to monolithic answer: "
          f"{tree_to_xml(pruned.document()) == tree_to_xml(mono.query(PRUNE_Q).document())}")

    print("\n3. replica failover: every primary dead, secondaries answer")
    resilient = build_portal(
        database, stores, partition, replicas=2, wrap=dead_primary
    )
    policy = ResiliencePolicy(retry=None, circuit_failure_threshold=1)
    failed_over = resilient.query(SCAN_Q, policy=policy)
    print(f"   failovers: {failed_over.report.stats.shard_failovers}  "
          f"degraded: {failed_over.degraded}")
    print(f"   identical to monolithic answer: "
          f"{tree_to_xml(failed_over.document()) == reference}")


if __name__ == "__main__":
    main()
