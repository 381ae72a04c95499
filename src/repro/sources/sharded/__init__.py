"""Sharded and replicated logical sources.

See :mod:`repro.sources.sharded.partition` for the placement/pruning
contract, :mod:`repro.sources.sharded.adapter` for the adapters, and
:mod:`repro.sources.sharded.wais` for the Wais sharding helpers.
"""

from repro.sources.sharded.adapter import (
    ReplicaSet,
    ShardTopology,
    ShardedSourceAdapter,
    shard_name,
)
from repro.sources.sharded.partition import (
    HashPartition,
    canonical_key,
    document_key_value,
)
from repro.sources.sharded.wais import (
    build_sharded_wais,
    shard_major_store,
    shard_wais_store,
)

__all__ = [
    "HashPartition",
    "ReplicaSet",
    "ShardTopology",
    "ShardedSourceAdapter",
    "build_sharded_wais",
    "canonical_key",
    "document_key_value",
    "shard_major_store",
    "shard_name",
    "shard_wais_store",
]
