"""The mediator's catalog: imported interfaces and connected adapters.

"cluet runs a yat mediator, connects both wrappers ..., imports the
structural and query capabilities of the two connected systems" (paper,
Section 2, Figure 2).  Importing goes through the XML wire format: the
catalog stores the interface *as re-parsed from the wrapper's XML
export*, never a shared Python object, so the mediator only ever knows
what the protocol can express.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import MediatorError, UnknownSourceError
from repro.capabilities.interface import SourceInterface
from repro.capabilities.xml_codec import interface_to_xml, xml_to_interface
from repro.core.algebra.evaluator import SourceAdapter
from repro.wrappers.base import Wrapper


class Catalog:
    """Connected sources: adapters for evaluation, interfaces for planning."""

    def __init__(self) -> None:
        self._adapters: Dict[str, SourceAdapter] = {}
        self._interfaces: Dict[str, SourceInterface] = {}
        self._document_sources: Dict[str, str] = {}
        self._topologies: Dict[str, object] = {}

    # -- connection -----------------------------------------------------------

    def connect(self, wrapper: Wrapper) -> SourceInterface:
        """Connect a wrapper and import its capabilities (via XML)."""
        if wrapper.name in self._adapters:
            raise MediatorError(f"source {wrapper.name!r} already connected")
        interface = xml_to_interface(wrapper.interface_xml())
        if interface.name != wrapper.name:
            raise MediatorError(
                f"wrapper {wrapper.name!r} exported an interface named "
                f"{interface.name!r}"
            )
        for document in interface.documents:
            if document in self._document_sources:
                raise MediatorError(
                    f"document {document!r} is exported by both "
                    f"{self._document_sources[document]!r} and {wrapper.name!r}"
                )
            self._document_sources[document] = wrapper.name
        self._adapters[wrapper.name] = wrapper
        self._interfaces[wrapper.name] = interface
        return interface

    def connect_sharded(
        self, logical: str, shards: Sequence[SourceAdapter], partition
    ) -> Tuple[SourceInterface, ...]:
        """Connect N shard adapters as one sharded logical source.

        The shard adapters register under the shard names
        ``logical#0 .. logical#N-1`` together with their imported
        interfaces — pruned scatter branches and their pushed fragments
        target the shards.  The exported documents are claimed by the
        *logical* name, which gets a
        :class:`~repro.sources.sharded.adapter.ShardedSourceAdapter`
        (shard-major concatenation) plus the one interface all shards
        declare, re-imported under the logical name.  Shards split one
        source by data, not by capability: a shard whose interface
        differs (bar its name) is a :class:`MediatorError`.  For split
        Wais stores that interface is the source's field policy.
        """
        from repro.sources.sharded import (
            ShardedSourceAdapter,
            ShardTopology,
            shard_name,
        )

        shards = tuple(shards)
        names = tuple(shard_name(logical, index) for index in range(len(shards)))
        topology = ShardTopology(logical, partition, names)
        if logical in self._adapters:
            raise MediatorError(f"source {logical!r} already connected")
        interfaces: Dict[str, SourceInterface] = {}
        logical_xml: Optional[str] = None
        for name, adapter in zip(names, shards):
            if name in self._adapters:
                raise MediatorError(f"source {name!r} already connected")
            interface = xml_to_interface(adapter.interface_xml())
            if interface.name != name:
                raise MediatorError(
                    f"shard adapter {name!r} exported an interface named "
                    f"{interface.name!r}"
                )
            interface.name = logical
            renamed = interface_to_xml(interface)
            interface.name = name
            if logical_xml is None:
                logical_xml = renamed
            elif renamed != logical_xml:
                raise MediatorError(
                    f"shard {name!r} declares a different interface than "
                    f"{names[0]!r}: the shards of {logical!r} must declare "
                    "one interface"
                )
            interfaces[name] = interface
        logical_interface = xml_to_interface(logical_xml)
        documents = tuple(logical_interface.documents)
        for document in documents:
            if document in self._document_sources:
                raise MediatorError(
                    f"document {document!r} is exported by both "
                    f"{self._document_sources[document]!r} and {logical!r}"
                )
        for name, adapter in zip(names, shards):
            self._adapters[name] = adapter
            self._interfaces[name] = interfaces[name]
        for document in documents:
            self._document_sources[document] = logical
        self._adapters[logical] = ShardedSourceAdapter(logical, shards)
        self._interfaces[logical] = logical_interface
        self._topologies[logical] = topology
        return tuple(interfaces[name] for name in names)

    # -- lookups -----------------------------------------------------------------

    def interface(self, source: str) -> SourceInterface:
        try:
            return self._interfaces[source]
        except KeyError:
            raise UnknownSourceError(f"source {source!r} is not connected") from None

    def adapters(self) -> Dict[str, SourceAdapter]:
        return dict(self._adapters)

    def interfaces(self) -> Dict[str, SourceInterface]:
        return dict(self._interfaces)

    def source_of_document(self, document: str) -> Optional[str]:
        """The source exporting *document*, or ``None``."""
        return self._document_sources.get(document)

    def shard_topologies(self) -> Dict[str, object]:
        """``{logical source name: ShardTopology}`` of sharded sources."""
        return dict(self._topologies)

    def document_names(self) -> Tuple[str, ...]:
        return tuple(self._document_sources)

    def source_names(self) -> Tuple[str, ...]:
        return tuple(self._adapters)
