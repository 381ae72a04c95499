"""Skolem functions: stable identifier creation with side effects.

"Skolem functions are used to create new identifiers and perform value
assignment ...  Skolem functions do not create values but have side
effects on the integrated view and are somehow orthogonal to the rest of
the algebra" (paper, Section 3.1).

A :class:`SkolemRegistry` maps ``(function name, argument values)`` pairs
to identifiers: the first call mints a fresh identifier, later calls with
equal arguments return the same one.  This is what makes *object fusion*
work: two rules (or two rows) constructing ``artwork($t, $c)`` with the
same title and creator contribute to the same output tree.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from repro.core.algebra.tab import _cell_key


class SkolemRegistry:
    """Mint stable identifiers for (function, arguments) pairs.

    Minting is thread-safe: concurrent plan branches share one registry,
    and equal arguments must map to one identifier even when two threads
    race on the first use.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idents: Dict[Tuple[str, tuple], str] = {}
        self._counters: Dict[str, int] = {}

    def ident(self, function: str, args: tuple) -> str:
        """The identifier for ``function(*args)``; minted on first use.

        Arguments are compared by structural value (atoms by value, trees
        by shape), so the identity is deterministic across evaluations of
        the same data.
        """
        key = (function, tuple(_cell_key(arg) for arg in args))
        with self._lock:
            ident = self._idents.get(key)
            if ident is None:
                count = self._counters.get(function, 0) + 1
                self._counters[function] = count
                ident = f"{function}_{count}"
                self._idents[key] = ident
            return ident

    def __len__(self) -> int:
        return len(self._idents)
