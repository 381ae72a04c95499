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
  scheduling, queued-deadline enforcement and graceful drain;
* :mod:`repro.server.workload` — seeded open/closed-loop drivers with a
  zipfian query and tenant mix, reporting p50/p99/QPS/shed-rate.
"""

from repro.server.admission import (
    PRIORITIES,
    AdmissionOutcome,
    ServiceEstimator,
    TokenBucket,
)
from repro.server.server import MediatorServer, ServerConfig, Ticket
from repro.server.workload import (
    WorkloadResult,
    default_mix,
    run_closed_loop,
    run_open_loop,
)

__all__ = [
    "PRIORITIES",
    "AdmissionOutcome",
    "MediatorServer",
    "ServerConfig",
    "ServiceEstimator",
    "Ticket",
    "TokenBucket",
    "WorkloadResult",
    "default_mix",
    "run_closed_loop",
    "run_open_loop",
]
