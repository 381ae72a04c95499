"""Query-mix helpers shared by the serving examples and the benchmark.

The seeded closed-loop measurement of :class:`MediatorServer` is the
``served_mix`` workload of ``benchmarks/e2e``; this module keeps only
the two pieces it draws on: the portal grouping query and zipfian rank
weights.
"""

from __future__ import annotations

from typing import List

#: The portal grouping query (regroup titles under each artist).
PORTAL = """
MAKE catalogue [ *($a) artist [ name: $a, * title: $t ] ]
MATCH artworks WITH doc . work [ title . $t, artist . $a ]
"""


def zipf_weights(n: int, s: float = 1.1) -> List[float]:
    """Unnormalized zipfian weights ``1/rank^s`` for *n* ranks."""
    return [1.0 / (rank ** s) for rank in range(1, n + 1)]
