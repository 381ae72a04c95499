"""Sharded and replicated source adapters.

A *sharded* logical source is N shard sources registered together under
one logical name: the catalog claims the exported documents for the
logical name only, while the per-shard adapters (and their capability
interfaces) register under the shard names ``logical#0 .. logical#N-1``.
Three adapters cooperate:

* :class:`ReplicaSet` — one shard served by several interchangeable
  replicas.  Direct (policy-less) execution fails over in-adapter: each
  call tries replicas in declaration order and the first healthy answer
  wins.  Under a :class:`~repro.mediator.resilience.PolicyRuntime` the
  runtime's :class:`~repro.mediator.resilience.FailoverAdapter` takes
  over instead, giving every replica its own circuit breaker and
  :class:`~repro.mediator.resilience.SourceOutcome` record.
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
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SourceError, SourceUnavailableError
from repro.core.algebra.evaluator import SourceAdapter
from repro.core.algebra.operators import Plan, SourceOp
from repro.core.algebra.tab import Row, Tab
from repro.memo import Memo
from repro.model.trees import DataNode


def shard_name(logical: str, index: int) -> str:
    """Catalog name of shard *index* of the logical source *logical*."""
    return f"{logical}#{index}"


def _retarget(plan: Plan, old: str, new: str) -> Plan:
    """The same fragment with its Source leaves renamed *old* → *new*."""
    if isinstance(plan, SourceOp) and plan.source == old:
        return SourceOp(new, plan.document)
    children = plan.children()
    if not children:
        return plan
    return plan.with_children(
        [_retarget(child, old, new) for child in children]
    )


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
        return tuple(
            getattr(replica, "data_version", lambda: 0)()
            for replica in self.replicas
        )

    # -- data plane with in-adapter failover --------------------------------------

    def _failover(self, operation, invoke):
        errors: List[SourceError] = []
        for replica in self.replicas:
            try:
                return invoke(replica)
            except SourceError as error:
                errors.append(error)
        raise SourceUnavailableError(
            f"every replica of {self.name!r} failed {operation}: "
            f"{errors[-1]}",
            source=self.name,
            attempts=len(self.replicas),
        ) from errors[-1]

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

    Reading the logical source transfers *every* shard — it exists so
    that un-expanded plans (and the optimizer-off baseline) stay
    correct.  The shard-expansion rule rewrites Bind chains over this
    source into per-shard scatter branches that reproduce exactly this
    adapter's document order.
    """

    def __init__(self, name: str, shards: Sequence[SourceAdapter]) -> None:
        if not shards:
            raise SourceError(f"sharded source {name!r} needs at least one shard")
        self.name = name
        self.shards = tuple(shards)
        #: ``name -> tree``, tagged with the shard version vector:
        #: repeated reads at one version serve one stable tree, keeping
        #: identity-keyed caches (document indexes) effective.  One slot
        #: per exported document (sized by :meth:`document`), so nothing
        #: is ever evicted.
        self._documents = Memo(0)

    def document_names(self) -> Tuple[str, ...]:
        return self.shards[0].document_names()

    def document_name_set(self) -> frozenset:
        return self.shards[0].document_name_set()

    def data_version(self):
        return tuple(
            getattr(shard, "data_version", lambda: 0)()
            for shard in self.shards
        )

    def document(self, name: str) -> DataNode:
        documents = self._documents
        if not documents.capacity:
            documents.capacity = len(self.document_name_set())
        return documents.get_or_build(
            name, self._concatenate, name, tag=self.data_version()
        )

    def _concatenate(self, name: str) -> DataNode:
        parts = [shard.document(name) for shard in self.shards]
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

    def execute_pushed(
        self, plan: Plan, outer: Optional[Row] = None
    ) -> Tuple[Tab, str]:
        """Scatter a fragment pushed at the *logical* source.

        Reached only when shard expansion declined the chain but
        capability pushdown still matched it.  Every admissible fragment
        binds per-work rows (``bind.on`` is the document and ``keep_on``
        is false), so the shard-major concatenation of the per-shard
        answers equals the answer over the concatenated document.
        """
        for node in plan.walk():
            if getattr(node, "keep_on", False):
                raise SourceError(
                    f"fragment keeps the whole document of {self.name!r}; "
                    "a sharded source cannot scatter it"
                )
        tabs = []
        native = ""
        for shard in self.shards:
            retargeted = _retarget(plan, self.name, shard.name)
            tab, native = shard.execute_pushed(retargeted, outer)
            tabs.append(tab)
        rows: List[Row] = []
        for tab in tabs:
            rows.extend(tab.rows)
        return (
            Tab(tabs[0].columns, rows),
            f"scatter[{len(self.shards)} shards]: {native}",
        )
