"""Sharded and replicated source adapters.

A *sharded* logical source is N shard sources registered together under
one logical name: the catalog claims the exported documents for the
logical name only, while the per-shard adapters (and their capability
interfaces) register under the shard names ``logical#0 .. logical#N-1``.
Three adapters cooperate:

* :class:`ReplicaSet` — one shard served by several interchangeable
  replicas.  Each call tries replicas in declaration order and the first
  healthy answer wins; every replica passed over counts one
  ``shard_failovers`` on the active request's statistics, under every
  policy.  A :class:`~repro.mediator.resilience.PolicyRuntime` guards
  the set replica by replica (its own circuit breaker and
  :class:`~repro.mediator.resilience.SourceOutcome` record each), and
  the set's loop stays the one failover implementation.
* :class:`ShardedSourceAdapter` — the logical source itself.  Its
  ``document()`` is *defined* as the shard-major concatenation of the
  shard documents (shard 0's entries, then shard 1's, ...), which is the
  order every scatter-gather plan reproduces; un-expanded plans that
  read the logical source directly therefore agree byte-for-byte with
  expanded ones.
* :class:`ShardTopology` — the catalog-side metadata (partition scheme
  plus shard names) the shard-expansion rule plans against.

``data_version()`` of a replica set is the tuple of its replicas'
versions, and the logical adapter's is the tuple of its shards' — the
result cache compares version vectors by equality, so a write to one
shard invalidates exactly the entries whose plans read that shard.
``holds_data()`` of a replica set is its primary's, like its interface.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SourceError, SourceUnavailableError
from repro.core.algebra.evaluator import SourceAdapter, holds_data
from repro.core.algebra.operators import Plan
from repro.core.algebra.tab import Row, Tab
from repro.memo import Memo
from repro.model.trees import DataNode
from repro.observability.context import current_context


def shard_name(logical: str, index: int) -> str:
    """Catalog name of shard *index* of the logical source *logical*."""
    return f"{logical}#{index}"


class ShardTopology:
    """Catalog metadata of one sharded logical source."""

    __slots__ = ("logical", "partition", "shard_names")

    def __init__(
        self, logical: str, partition, shard_names: Sequence[str]
    ) -> None:
        if len(shard_names) != partition.shards:
            raise SourceError(
                f"topology for {logical!r} names {len(shard_names)} shards "
                f"but the partition defines {partition.shards}"
            )
        self.logical = logical
        self.partition = partition
        self.shard_names = tuple(shard_names)

    @property
    def total(self) -> int:
        return len(self.shard_names)

    def __repr__(self) -> str:
        return (
            f"ShardTopology({self.logical!r}, {self.partition!r}, "
            f"{self.total} shards)"
        )


class ReplicaSet(SourceAdapter):
    """One shard behind several interchangeable replicas.

    All replicas must serve the same data (same documents, same
    versions); the set exists for availability, not capacity.  Replica
    scope names (``shard/r0``, ``shard/r1``, ...) key the per-replica
    circuit breakers and outcome records under a resilience policy.
    """

    def __init__(self, name: str, replicas: Sequence[SourceAdapter]) -> None:
        if not replicas:
            raise SourceError(f"replica set {name!r} needs at least one replica")
        self.name = name
        self.replicas = tuple(replicas)

    def replica_name(self, index: int) -> str:
        return f"{self.name}/r{index}"

    # -- catalog metadata (never faulted, served by the primary) -----------------

    def interface_xml(self) -> str:
        return self.replicas[0].interface_xml()

    def document_names(self) -> Tuple[str, ...]:
        return self.replicas[0].document_names()

    def document_name_set(self) -> frozenset:
        return self.replicas[0].document_name_set()

    def data_version(self):
        return tuple(replica.data_version() for replica in self.replicas)

    def holds_data(self) -> bool:
        return holds_data(self.replicas[0])

    # -- data plane with failover --------------------------------------------------

    def _failover(self, operation, invoke):
        last_error: Optional[SourceError] = None
        for replica in self.replicas:
            if last_error is not None:
                context = current_context()
                if context is not None and context.stats is not None:
                    context.stats.record_shard(failovers=1)
            try:
                return invoke(replica)
            except SourceError as error:
                # QueryDeadlineError is not a SourceError: out of time
                # means out of time on every replica.
                last_error = error
        raise SourceUnavailableError(
            f"every replica of {self.name!r} failed {operation}: "
            f"{last_error}",
            source=self.name,
            attempts=len(self.replicas),
        ) from last_error

    def document(self, name: str) -> DataNode:
        return self._failover("document", lambda r: r.document(name))

    def ident_index(self) -> Dict[str, DataNode]:
        return self._failover("ident_index", lambda r: r.ident_index())

    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        return self._failover(
            "execute_pushed", lambda r: r.execute_pushed(plan, outer)
        )


class ShardedSourceAdapter(SourceAdapter):
    """The logical source: shard-major concatenation of shard documents.

    Reading it transfers every shard that holds data — it keeps the
    chains shard expansion declines (nothing is pushed here) and the
    optimizer-off baseline correct.  The shard-expansion rule rewrites
    Bind chains over this source into per-shard scatter branches that
    reproduce exactly this adapter's document order.
    """

    def __init__(self, name: str, shards: Sequence[SourceAdapter]) -> None:
        if not shards:
            raise SourceError(f"sharded source {name!r} needs at least one shard")
        self.name = name
        self.shards = tuple(shards)
        #: ``name -> tree``, tagged with the shard version vector:
        #: repeated reads at one version serve one stable tree, keeping
        #: per-node caches (value keys, serialized sizes) effective.  One
        #: slot per exported document (sized by :meth:`document`), so nothing
        #: is ever evicted.
        self._documents = Memo(0)

    def document_names(self) -> Tuple[str, ...]:
        return self.shards[0].document_names()

    def document_name_set(self) -> frozenset:
        return self.shards[0].document_name_set()

    def data_version(self):
        return tuple(shard.data_version() for shard in self.shards)

    def document(self, name: str) -> DataNode:
        documents = self._documents
        if not documents.capacity:
            documents.capacity = len(self.document_name_set())
        return documents.get_or_build(
            name, self._concatenate, name, tag=self.data_version()
        )

    def _concatenate(self, name: str) -> DataNode:
        # Empty shards add no entry; with all empty, shard 0 gives the root.
        live = [shard for shard in self.shards if holds_data(shard)]
        parts = [shard.document(name) for shard in live or self.shards[:1]]
        label = parts[0].label
        children: List[DataNode] = []
        for part in parts:
            if part.label != label:
                raise SourceError(
                    f"shards of {self.name!r} disagree on the root label of "
                    f"{name!r}: {label!r} vs {part.label!r}"
                )
            children.extend(part.children)
        return DataNode(
            label, children=children, collection=parts[0].collection
        )

    def memo_stats(self) -> Dict[str, Dict[str, int]]:
        """``{memo name: Memo.stats()}``, like every wrapper."""
        return {"documents": self._documents.stats()}

    def ident_index(self) -> Dict[str, DataNode]:
        # The shard adapters are registered sources themselves, so the
        # environment already merges their ident indexes; contributing
        # them twice here would only duplicate work.
        return {}
