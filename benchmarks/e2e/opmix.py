"""Seeded op lists with exact class shares.

A workload declares its op classes as ``(name, share-in-percent)`` pairs.
Every list generated from them holds each class in exactly its share
(largest remainder), so the amount of work is the same for every seed;
the seed decides only the order of the ops and the constants inside
them.  Constants are drawn *stratified* — one value near the middle of
each equal slice of the range — so neither a class's total cost nor the
cost at a given rank depends on a lucky or unlucky draw.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: Percentiles the end-to-end metrics report; a class boundary closer
#: than ``BOUNDARY_MARGIN`` points to one of them makes that percentile
#: flip between two latency modes from run to run (noise rule 4).
REPORTED_PERCENTILES = (50.0, 95.0)
BOUNDARY_MARGIN = 3.0

Shares = Sequence[Tuple[str, float]]


class Op(NamedTuple):
    """One client operation: a query text, or a write payload."""

    klass: str
    text: Optional[str] = None
    write: Optional[tuple] = None


def check_class_boundaries(shares: Shares) -> None:
    """Raise unless every cumulative boundary clears the percentiles.

    *shares* are declared in ascending order of expected latency, so the
    running sums are where the sorted latency sample changes mode.
    """
    boundary = 0.0
    for _, share in shares:
        boundary += share
        for percentile in REPORTED_PERCENTILES:
            if abs(boundary - percentile) < BOUNDARY_MARGIN:
                raise ValueError(
                    f"a class boundary at {boundary:g}% lies within "
                    f"{BOUNDARY_MARGIN:g} points of p{percentile:g}"
                )
    if abs(boundary - 100.0) > 1e-9:
        raise ValueError(f"class shares sum to {boundary:g}, not 100")


def allocate(shares: Shares, count: int) -> Dict[str, int]:
    """Exact per-class op counts for *count* ops (largest remainder)."""
    exact = {name: share * count / 100.0 for name, share in shares}
    counts = {name: int(value) for name, value in exact.items()}
    by_remainder = sorted(exact, key=lambda name: counts[name] - exact[name])
    for name in by_remainder[: count - sum(counts.values())]:
        counts[name] += 1
    return counts


#: Width of the seeded jitter inside a stratum, as a share of the stratum.
STRATUM_JITTER = 0.1


def stratified(rng: random.Random, count: int, low: float, high: float) -> List[float]:
    """*count* values in ``[low, high)``, one near the middle of each
    equal-width stratum, in seeded order.

    The jitter is narrow on purpose: a constant's cost follows its value
    (``year > Y`` returns rows in proportion), so a value free to fall
    anywhere in its stratum moved ``adhoc_federated``'s p95 — the sixth
    dearest of 16 ``year`` ops — between 76 and 88 ms from seed to seed.
    """
    if not count:
        return []
    width = (high - low) / count
    values = [
        low + (index + 0.5 + STRATUM_JITTER * (rng.random() - 0.5)) * width
        for index in range(count)
    ]
    rng.shuffle(values)
    return values


def cycled(rng: random.Random, count: int, choices: Sequence) -> List:
    """*count* choices covering *choices* evenly, in seeded order.

    Which choices get the remainder is fixed (the first ones), so the
    multiset — and the work it stands for — is the same for every seed.
    """
    values = [choices[index % len(choices)] for index in range(count)]
    rng.shuffle(values)
    return values


#: ``factory(rng, count) -> list of Op`` for one class.
ClassFactory = Callable[[random.Random, int], List[Op]]


def generate(
    shares: Shares,
    factories: Dict[str, ClassFactory],
    seed: int,
    stream: str,
    count: int,
) -> List[Op]:
    """The op list of *count* ops for ``(seed, stream)``, shuffled.

    *stream* separates independent lists drawn from one seed (warm-up
    vs. timed, client 0 vs. client 1).
    """
    rng = random.Random(f"{seed}:{stream}")
    ops: List[Op] = []
    for name, class_count in allocate(shares, count).items():
        produced = factories[name](rng, class_count)
        if len(produced) != class_count:
            raise ValueError(f"class {name!r} produced {len(produced)} ops")
        ops.extend(produced)
    rng.shuffle(ops)
    return ops


def ops_digest(streams: Sequence[Sequence[Op]]) -> str:
    """SHA-256 over the op lists — same seed, same digest."""
    digest = hashlib.sha256()
    for stream in streams:
        for op in stream:
            digest.update(repr(op).encode())
        digest.update(b"|")
    return digest.hexdigest()
