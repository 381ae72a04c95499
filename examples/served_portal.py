"""The cultural portal as a multi-tenant service under load.

One shared mediator (plan cache, compiled kernels, document indexes),
many concurrent sessions, and a server that says *no* gracefully:

1. a burst of mixed-priority queries from three tenants, all answered
   through the shared plan cache with per-request admission records;
2. a metered "free-tier" tenant hitting its token-bucket quota
   (``QuotaExceededError`` with the exact seconds until the next token);
3. a deliberate overload of a tiny-queue server — low-priority queries
   degrade, then shed; every rejection carries a ``retry_after`` hint;
4. a seeded closed-loop workload reporting p50/p99/QPS/shed-rate;
5. graceful drain: everything admitted finishes, nothing new enters.

Run:  python examples/served_portal.py [n_artifacts]
"""

import sys

from repro import (
    Mediator,
    MediatorServer,
    MetricsRegistry,
    O2Wrapper,
    OverloadedError,
    QuotaExceededError,
    ServerConfig,
    WaisWrapper,
)
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.server import run_closed_loop


def build_portal(n_artifacts: int) -> Mediator:
    database, store = CulturalDataset(n_artifacts=n_artifacts, seed=42).build()
    mediator = Mediator("portal", plan_cache_size=128)
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


def main() -> None:
    n_artifacts = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    mediator = build_portal(n_artifacts)
    registry = MetricsRegistry()

    print("=== 1. concurrent sessions through one shared plan cache ===")
    config = ServerConfig(workers=4, metrics=registry,
                          quotas={"free-tier": (2.0, 2.0)})
    with MediatorServer(mediator, config) as server:
        tickets = [
            server.submit(text, tenant=tenant, priority=priority)
            for text, tenant, priority in [
                (Q1, "museum", "high"),
                (Q2, "museum", "normal"),
                (Q1, "gallery", "normal"),
                (Q2, "gallery", "low"),
                (Q1, "free-tier", "low"),
            ]
        ]
        for ticket in tickets:
            result = ticket.result(timeout=30)
            print(f"  {result.admission!r} cached={result.cached}")

        print()
        print("=== 2. the free tier hits its quota (2 qps, burst 2) ===")
        admitted, rejected = 0, None
        for _ in range(4):
            try:
                server.submit(Q1, tenant="free-tier").result(30)
                admitted += 1
            except QuotaExceededError as exc:
                rejected = exc
        print(f"  admitted {admitted}, then: {rejected} "
              f"(retry in {rejected.retry_after:.2f}s)")

    print()
    print("=== 3. overload: a tiny queue degrades, then sheds ===")
    tiny = ServerConfig(workers=2, queue_limit=4, degrade_depth=1,
                        shed_depth=2)
    with MediatorServer(mediator, tiny) as server:
        outcomes = {"ok": 0, "degraded": 0, "shed": 0}
        tickets = []
        for i in range(40):
            try:
                tickets.append(server.submit(
                    Q2, priority="low" if i % 2 else "normal"
                ))
            except OverloadedError as exc:
                outcomes["shed"] += 1
                hint = exc.retry_after
        for ticket in tickets:
            result = ticket.result(timeout=30)
            outcomes["degraded" if result.admission.degraded_forced
                     else "ok"] += 1
        print(f"  {outcomes} (last retry_after hint: {hint * 1e3:.1f} ms)")

    print()
    print("=== 4. seeded closed-loop workload (8 clients) ===")
    with MediatorServer(mediator, ServerConfig(workers=4)) as server:
        run = run_closed_loop(server, clients=8, requests_per_client=10,
                              seed=7)
        print(f"  {run.completed}/{run.offered} answered, "
              f"qps={run.qps:.0f}, p50={run.p50 * 1e3:.1f} ms, "
              f"p99={run.p99 * 1e3:.1f} ms, mix={run.by_query}")

        print()
        print("=== 5. graceful drain ===")
        parting = server.submit(Q1)
        drained = server.drain(timeout=30)
        print(f"  drained={drained}, parting answer rows intact: "
              f"{parting.result(1).document() is not None}")
        try:
            server.submit(Q1)
        except OverloadedError as exc:
            print(f"  post-drain submit rejected: {exc}")

    print()
    print("=== server metrics (yat_server_*) ===")
    for line in registry.exposition().splitlines():
        if line.startswith("yat_server_requests_total"):
            print(f"  {line}")


if __name__ == "__main__":
    main()
