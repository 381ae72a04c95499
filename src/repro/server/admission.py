"""Admission-control primitives: quotas and shedding tiers.

The serving layer's first job is to say *no* cheaply.  Everything here
runs on the submitting caller's thread in constant time — a token-bucket
read, two integer comparisons — so a rejection costs microseconds
precisely when the mediator is busiest.  The decisions themselves:

* :class:`TokenBucket` — per-tenant rate quota (continuous refill, burst
  capacity).  A drained bucket yields the *exact* time until the next
  token, which becomes the ``retry_after`` hint on
  :class:`~repro.errors.QuotaExceededError`;
* shedding tiers over the admission-queue depth: below ``degrade_depth``
  every request runs normally; between ``degrade_depth`` and
  ``shed_depth`` low-priority requests are flipped into the existing
  graceful-degradation mode (partial answers beat rejections); past
  ``shed_depth`` low-priority requests are shed, and at ``queue_limit``
  everyone is — the queue never grows without bound;
* :class:`ServiceEstimator` — an EWMA of recent service times, from
  which an overloaded server estimates how long the backlog needs to
  drain (the ``retry_after`` on :class:`~repro.errors.OverloadedError`).

What admission did to one request is recorded once, on its
:class:`~repro.server.server.Ticket`.
"""

from __future__ import annotations

import threading
from typing import Optional

#: Request priorities, in pop order.  ``low`` is the sheddable tier.
PRIORITIES = ("high", "normal", "low")


class TokenBucket:
    """A continuous-refill token bucket (``rate`` tokens/s, ``burst`` cap).

    The bucket starts full, so a tenant's first ``burst`` requests always
    pass.  :meth:`acquire` is lock-free from the caller's point of view
    (the server serializes access per tenant); the arithmetic is a
    handful of float operations.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("quota rate and burst must be positive")
        self.rate = rate
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated: Optional[float] = None

    def acquire(self, now: float) -> tuple:
        """Take one token at time *now*; ``(True, 0.0)`` on success,
        ``(False, seconds until a token is available)`` when drained."""
        if self._updated is None:
            self._updated = now
        elif now > self._updated:
            self._tokens = min(
                self.burst, self._tokens + (now - self._updated) * self.rate
            )
            self._updated = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self._tokens) / self.rate


class ServiceEstimator:
    """EWMA of service times, feeding the overload ``retry_after`` hint.

    ``retry_after(depth, workers)`` answers: with this backlog and this
    many workers, how long until a resubmitted request would plausibly be
    admitted?  It is an estimate, not a promise — its job is to spread
    client retries over the drain window instead of thundering back.
    """

    __slots__ = ("_lock", "_alpha", "_mean")

    def __init__(self, initial: float = 0.02, alpha: float = 0.2) -> None:
        self._lock = threading.Lock()
        self._alpha = alpha
        self._mean = initial

    def observe(self, seconds: float) -> None:
        with self._lock:
            self._mean += self._alpha * (seconds - self._mean)

    @property
    def mean(self) -> float:
        with self._lock:
            return self._mean

    def retry_after(self, depth: int, workers: int) -> float:
        return self.mean * (depth + 1) / max(1, workers)
