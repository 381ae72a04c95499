"""Out-of-core document storage (ROADMAP item 2).

Shreds YAT trees into a sqlite ``nodes`` table keyed by pre-order
position with half-open ``[pre, post)`` subtree intervals, hydrates
subtrees on demand, and compiles the constant-restricted Bind fragment — child
steps, ``**`` descents, leaf constants — into SQL interval self-joins.
"""

from repro.store.document_store import DocumentStore, shred
from repro.store.pushdown import PushdownQuery, compile_pushdown

__all__ = [
    "DocumentStore",
    "PushdownQuery",
    "compile_pushdown",
    "shred",
]
