"""Partitioning functions for sharded logical sources.

A partition scheme maps the value of one *partition-key label* (e.g.
every work's ``artist`` element) to the shard that owns the document.
The one scheme is :class:`HashPartition`, and only an equality on the
key prunes.
The same function serves two masters, and soundness of shard pruning is
exactly their agreement:

* **placement** — :func:`shard_wais_store` (and any other shard loader)
  calls :meth:`shard_of` on each document's key value to decide where
  the document lives;
* **pruning** — the shard-expansion rule calls :meth:`prune` on the
  constant of a partition-key equality to decide which shards could
  possibly hold a matching document.

Values are canonicalized exactly like the evaluator's ``=`` (see
``_eq_key`` in :mod:`repro.core.algebra.evaluator`): atom leaves unwrap
to their atoms, and booleans/ints/floats collapse to one numeric class —
so a REAL-keyed label partitioned on ``5`` owns queries restricted to
``5.0`` too.  A value outside the scheme's comparable domain simply
yields no pruning (:meth:`prune` returns ``None``), never a wrong shard.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro.errors import SourceError
from repro.model.filters import MissingValue
from repro.model.node import Node
from repro.model.trees import DataNode


def canonical_key(value) -> Optional[tuple]:
    """``("num", float)`` / ``("str", str)`` mirror of ``=`` semantics.

    ``None`` for values equality can never relate to a partition-key
    constant (missing values, whole subtrees, references): placement
    may still put the document somewhere, but pruning must not assume
    anything about it.
    """
    if isinstance(value, DataNode):
        if not value.is_atom_leaf:
            return None
        value = value.atom
    if isinstance(value, MissingValue) or value is None:
        return None
    if isinstance(value, (bool, int, float)):
        return ("num", float(value))
    if isinstance(value, str):
        return ("str", value)
    return None


class HashPartition(Node):
    """Hash partitioning on one key label: ``sha256(canonical) mod N``.

    Deterministic across processes (no Python hash randomization), so a
    topology built today routes identically tomorrow.  Only equality
    restrictions prune — a hash preserves nothing about order.
    """

    __slots__ = ("key", "shards")

    def __init__(self, key: str, shards: int) -> None:
        if shards < 1:
            raise ValueError("a partition needs at least one shard")
        self.key = key
        self.shards = shards

    def shard_of(self, value) -> int:
        canonical = canonical_key(value)
        if canonical is None:
            # Documents without a usable key value can never satisfy an
            # equality on the key, so any fixed home is sound.
            return 0
        digest = hashlib.sha256(repr(canonical).encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.shards

    def prune(self, value) -> Optional[frozenset]:
        """Shards that could hold a document whose key equals *value*."""
        if canonical_key(value) is None:
            return None
        return frozenset((self.shard_of(value),))

    def __repr__(self) -> str:
        return f"HashPartition(key={self.key!r}, shards={self.shards})"


def document_key_value(document: DataNode, key: str):
    """The partition-key value of one document: its first *key*-labeled
    top-level child (``None`` when absent or not an atom leaf).

    Raises :class:`SourceError` on a multi-valued key — a document with
    two key children could match an equality through either value, which
    would break the placement/pruning agreement.
    """
    found = [child for child in document.children if child.label == key]
    if len(found) > 1:
        raise SourceError(
            f"document {document.ident or document.label!r} has "
            f"{len(found)} {key!r} children; partition keys must be "
            "single-valued"
        )
    if not found or not found[0].is_atom_leaf:
        return None
    return found[0].atom
