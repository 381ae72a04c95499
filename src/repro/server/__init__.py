"""Concurrent YATL serving with admission control and overload shedding.

The mediator of the paper answers one query at a time; a portal serves
many sessions at once.  This package is the serving layer between the
two: a :class:`MediatorServer` runs a bounded worker pool over one
shared :class:`~repro.mediator.mediator.Mediator` — so every session
benefits from the same plan cache and compiled kernels — while
per-request state (tracer, deadline, source-call cache, tenant identity)
travels in an explicit
:class:`~repro.observability.context.RequestContext` instead of process
globals.

Robustness under load is explicit and typed:

* :mod:`repro.server.admission` — token-bucket tenant quotas, tiered
  load shedding (degrade, then shed), EWMA-based ``retry_after`` hints;
* :mod:`repro.server.server` — the bounded admission queue, priority
  scheduling, queued-deadline enforcement and graceful drain.

What admission did to a request is recorded once, on the
:class:`Ticket` that :meth:`MediatorServer.submit` returns.

Load is measured from outside: the ``served_mix`` workload of
``benchmarks/e2e`` drives two seeded closed-loop clients through a
server (it draws its portal query and zipfian weights from
:mod:`repro.server.workload`).
"""

from repro.server.admission import PRIORITIES, ServiceEstimator, TokenBucket
from repro.server.server import MediatorServer, ServerConfig, Ticket

__all__ = [
    "PRIORITIES",
    "MediatorServer",
    "ServerConfig",
    "ServiceEstimator",
    "Ticket",
    "TokenBucket",
]
