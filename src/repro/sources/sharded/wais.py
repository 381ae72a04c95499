"""Sharding helpers for Wais collections.

:func:`shard_wais_store` splits one :class:`WaisStore` into N shard
stores by routing each document through the partition scheme —
placement and pruning share one function, which is the soundness
contract of :mod:`repro.sources.sharded.partition`.  Within a shard,
documents keep their original relative order, so the shard-major
concatenation (shard 0's documents, then shard 1's, ...) is a stable
permutation of the input; :func:`shard_major_store` materializes that
permutation as a monolithic store, which is the differential oracle the
sharded federation must match byte for byte.

:func:`build_sharded_wais` goes one step further and builds the
per-shard adapters ready for ``connect_sharded``: one
:class:`~repro.wrappers.wais_wrapper.WaisWrapper` per shard, or a
:class:`~repro.sources.sharded.adapter.ReplicaSet` of them when
``replicas > 1``.  The optional ``wrap`` hook interposes on every
replica wrapper (fault injection in tests and benchmarks).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.sources.sharded.adapter import ReplicaSet, shard_name
from repro.sources.sharded.partition import document_key_value
from repro.sources.wais.store import WaisStore
from repro.wrappers.wais_wrapper import WaisWrapper


def shard_wais_store(store: WaisStore, partition) -> Tuple[WaisStore, ...]:
    """Split *store* into ``partition.shards`` stores by the key label.

    Every shard inherits the source's Z39.50 field policy (its queryable
    and retrievable fields): a shard may not be searched on a field the
    source refuses.  A source without a queryable-field policy hands its
    shards its data's labels as one, so every shard, empty or not,
    declares the logical source's interface.
    """
    shards = [
        WaisStore(
            collection_label=store.collection_label,
            queryable_fields=store.queryable_fields or store.element_labels(),
            retrievable_fields=store.retrievable_fields,
        )
        for _ in range(partition.shards)
    ]
    for doc_id in store.document_ids():
        document = store.fetch(doc_id)
        value = document_key_value(document, partition.key)
        shards[partition.shard_of(value)].add(document, doc_id=doc_id)
    return tuple(shards)


def shard_major_store(shards: Sequence[WaisStore]) -> WaisStore:
    """One monolithic store holding the shards' documents in shard-major
    order — the oracle a scatter-gather execution must equal."""
    merged = WaisStore(
        collection_label=shards[0].collection_label,
        queryable_fields=shards[0].queryable_fields,
        retrievable_fields=shards[0].retrievable_fields,
    )
    for shard in shards:
        for doc_id in shard.document_ids():
            merged.add(shard.fetch(doc_id), doc_id=doc_id)
    return merged


def build_sharded_wais(
    logical: str,
    stores: Sequence[WaisStore],
    document_name: str = "artworks",
    replicas: int = 1,
    wrap: Optional[Callable[[WaisWrapper, int, int], object]] = None,
):
    """Per-shard adapters for ``connect_sharded``.

    One wrapper per shard named ``logical#i``; with ``replicas > 1``
    each shard becomes a :class:`ReplicaSet` of that many wrappers over
    the same shard store.  ``wrap(wrapper, shard, replica)`` may replace
    any replica wrapper (e.g. with a
    :class:`~repro.testing.faults.FaultyWrapper`).
    """
    adapters: List[object] = []
    for index, store in enumerate(stores):
        name = shard_name(logical, index)
        members = []
        for replica in range(max(1, replicas)):
            wrapper: object = WaisWrapper(name, store, document_name=document_name)
            if wrap is not None:
                wrapper = wrap(wrapper, index, replica)
            members.append(wrapper)
        if len(members) == 1 and replicas <= 1:
            adapters.append(members[0])
        else:
            adapters.append(ReplicaSet(name, members))
    return tuple(adapters)
