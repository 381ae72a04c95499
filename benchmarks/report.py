"""Regenerate every paper figure's result series in one run.

The paper's evaluation is qualitative (worked optimizations, Figures
4-9); this harness produces the quantitative counterpart on the synthetic
substrate: for each experiment in DESIGN.md's index it prints the series
whose *shape* must match the paper's claims — who wins, by what factor,
and where the crossovers fall.  EXPERIMENTS.md embeds this output.

Besides the text report, every series is accumulated into
``BENCH_report.json`` at the repo root (per-benchmark medians + stats)
so CI and the perf trajectory can diff runs without scraping stdout.

Run:  python benchmarks/report.py [--quick | --smoke]

``--quick`` shrinks sizes/repeats; ``--smoke`` shrinks further and skips
the subprocess pytest gates — a CI sanity pass that still exercises
every code path and emits the JSON report.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro import ExecutionPolicy, Mediator, O2Wrapper, SqlWrapper, WaisWrapper
from repro.core.algebra.evaluator import Environment, evaluate
from repro.core.algebra.operators import BindOp, ProjectOp, SourceOp
from repro.core.optimizer import (
    DemandNarrowingRule,
    OptimizerContext,
    navigation_to_extent_join,
    ref_is,
    split_below_root,
    split_nested_collection,
)
from repro.datasets import CulturalDataset, Q1, Q2, VIEW1_YAT
from repro.model.filters import FRest, FStar, FVar, felem

SMOKE = "--smoke" in sys.argv
QUICK = SMOKE or "--quick" in sys.argv
SIZES = (25,) if SMOKE else (25, 100) if QUICK else (25, 100, 400)
FRACTIONS = (0.05, 0.3) if QUICK else (0.05, 0.15, 0.3, 0.6, 0.9)
# Five timed samples in every mode: the regression checker compares
# smoke medians against the committed full-mode medians, and with fewer
# samples a transient load spike on a shared CI runner pushes a median
# past the 25% threshold.
REPEATS = 5

#: Machine-readable twin of the printed report, written to
#: ``BENCH_report.json`` by :func:`main`.
REPORT: dict = {
    "schema": 1,
    "mode": "smoke" if SMOKE else "quick" if QUICK else "full",
    "python": sys.version.split()[0],
    "benchmarks": [],
}

# The paper's setting is remote sources over a slow network; in-process
# wall-clock hides that.  The "wan" column models it explicitly:
#   modeled time = wall-clock + calls * RTT + bytes / bandwidth
WAN_RTT_S = 0.020          # 20 ms per source round trip
WAN_BANDWIDTH_BPS = 1e6    # 1 MB/s between sources and mediator


def wan_ms(elapsed_s: float, stats) -> float:
    """Modeled wide-area completion time in milliseconds."""
    return 1e3 * (
        elapsed_s
        + stats.total_source_calls * WAN_RTT_S
        + stats.total_bytes_transferred / WAN_BANDWIDTH_BPS
    )


def make_mediator(database, store):
    mediator = Mediator()
    mediator.connect(O2Wrapper("o2artifact", database))
    mediator.connect(WaisWrapper("xmlartwork", store))
    mediator.declare_containment("artworks", "artifacts")
    mediator.load_program(VIEW1_YAT)
    return mediator


class Timing(float):
    """Best-of-N wall seconds that also remembers every sample.

    Subclassing ``float`` keeps every existing ``t * 1e3`` call site
    working while :func:`emit` can still reach the full distribution.
    """

    __slots__ = ("samples",)

    def __new__(cls, samples):
        obj = super().__new__(cls, min(samples))
        obj.samples = tuple(samples)
        return obj

    @property
    def median(self) -> float:
        return statistics.median(self.samples)


def timed(callable_, repeats=REPEATS):
    # One untimed warmup first, so every mode measures the same steady
    # state: plan-cache hits, compiled kernels and wrapper memos are part
    # of the serving path now, and a cold first call would otherwise make
    # the single-repeat smoke numbers incomparable to the full baseline.
    callable_()
    samples = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        samples.append(time.perf_counter() - start)
    return result, Timing(samples)


def emit(name, params=None, **metrics):
    """Record one benchmark row into the JSON report.

    ``Timing`` values expand to ``{best_s, median_s, samples_s}``; other
    values pass through as-is.
    """
    rendered = {}
    for key, value in metrics.items():
        if isinstance(value, Timing):
            rendered[key] = {
                "best_s": float(value),
                "median_s": value.median,
                "samples_s": list(value.samples),
            }
        else:
            rendered[key] = value
    REPORT["benchmarks"].append(
        {"name": name, "params": dict(params or {}), "metrics": rendered}
    )


def banner(title):
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def report_q1():
    banner("F8 / Figure 8 — Q1 over the view: naive materialization vs optimized")
    print(f"{'n':>5} {'naive ms':>9} {'opt ms':>7} "
          f"{'naive KB':>9} {'opt KB':>7} {'calls':>7} "
          f"{'naive wan':>10} {'opt wan':>8} {'wan speedup':>11}")
    for n in SIZES:
        database, store = CulturalDataset(n_artifacts=n, seed=1).build()
        mediator = make_mediator(database, store)
        naive, t_naive = timed(lambda: mediator.query(Q1, optimize=False))
        optimized, t_opt = timed(lambda: mediator.query(Q1))
        assert naive.document() == optimized.document()
        naive_wan = wan_ms(t_naive, naive.report.stats)
        opt_wan = wan_ms(t_opt, optimized.report.stats)
        emit(
            "q1_view",
            {"n": n},
            naive=t_naive,
            optimized=t_opt,
            naive_bytes=naive.report.stats.total_bytes_transferred,
            optimized_bytes=optimized.report.stats.total_bytes_transferred,
            naive_calls=naive.report.stats.total_source_calls,
            optimized_calls=optimized.report.stats.total_source_calls,
            naive_wan_ms=naive_wan,
            optimized_wan_ms=opt_wan,
            wan_speedup=naive_wan / opt_wan,
        )
        print(
            f"{n:5d} {t_naive * 1e3:9.1f} {t_opt * 1e3:7.1f} "
            f"{naive.report.stats.total_bytes_transferred / 1024:9.1f} "
            f"{optimized.report.stats.total_bytes_transferred / 1024:7.1f} "
            f"{naive.report.stats.total_source_calls:3d}/{optimized.report.stats.total_source_calls:<3d} "
            f"{naive_wan:10.0f} {opt_wan:8.0f} {naive_wan / opt_wan:10.1f}x"
        )


def report_q2():
    banner("F9 / Figure 9 — Q2: capability pushdown + information passing")
    print(f"{'n':>5} {'naive ms':>9} {'opt ms':>7} "
          f"{'naive KB':>9} {'opt KB':>7} {'opt calls':>9} {'keys':>5} "
          f"{'naive wan':>10} {'opt wan':>8}")
    for n in SIZES:
        database, store = CulturalDataset(n_artifacts=n, seed=1).build()
        mediator = make_mediator(database, store)
        naive, t_naive = timed(lambda: mediator.query(Q2, optimize=False))
        optimized, t_opt = timed(lambda: mediator.query(Q2))
        assert naive.document() == optimized.document()
        emit(
            "q2_pushdown",
            {"n": n},
            naive=t_naive,
            optimized=t_opt,
            naive_bytes=naive.report.stats.total_bytes_transferred,
            optimized_bytes=optimized.report.stats.total_bytes_transferred,
            optimized_calls=optimized.report.stats.total_source_calls,
            optimized_passed_keys=optimized.report.stats.passed_keys,
            naive_wan_ms=wan_ms(t_naive, naive.report.stats),
            optimized_wan_ms=wan_ms(t_opt, optimized.report.stats),
        )
        print(
            f"{n:5d} {t_naive * 1e3:9.1f} {t_opt * 1e3:7.1f} "
            f"{naive.report.stats.total_bytes_transferred / 1024:9.1f} "
            f"{optimized.report.stats.total_bytes_transferred / 1024:7.1f} "
            f"{optimized.report.stats.total_source_calls:9d} "
            f"{optimized.report.stats.passed_keys:5d} "
            f"{wan_ms(t_naive, naive.report.stats):10.0f} "
            f"{wan_ms(t_opt, optimized.report.stats):8.0f}"
        )


def report_ablation():
    banner("E1 — ablation of the three rewriting rounds (Q2, n=100)")
    database, store = CulturalDataset(n_artifacts=100, seed=1).build()
    mediator = make_mediator(database, store)
    print(f"{'rounds':>10} {'ms':>8} {'KB':>8} {'calls':>6} "
          f"{'mediator rows':>14} {'wan ms':>8}")
    for label, rounds in [("none", None), ("1", (1,)), ("1+2", (1, 2)),
                          ("1+2+3", (1, 2, 3))]:
        if rounds is None:
            result, elapsed = timed(lambda: mediator.query(Q2, optimize=False))
        else:
            result, elapsed = timed(lambda r=rounds: mediator.query(Q2, rounds=r))
        stats = result.report.stats
        emit(
            "round_ablation",
            {"rounds": label, "n": 100},
            elapsed=elapsed,
            bytes=stats.total_bytes_transferred,
            calls=stats.total_source_calls,
            mediator_rows=stats.mediator_rows,
            wan_ms=wan_ms(elapsed, stats),
        )
        print(
            f"{label:>10} {elapsed * 1e3:8.1f} "
            f"{stats.total_bytes_transferred / 1024:8.1f} "
            f"{stats.total_source_calls:6d} {stats.mediator_rows:14d} "
            f"{wan_ms(elapsed, stats):8.0f}"
        )


def report_crossover():
    banner("E3 — bind join (set-valued / per-row) vs bulk join by selectivity "
           "(n=150)")
    print(f"{'fraction':>9} {'set ms':>8} {'per-row ms':>11} {'bulk ms':>8} "
          f"{'calls s/r/b':>12} {'KB s/r/b':>18} {'wan s/r/b':>16}")
    for fraction in FRACTIONS:
        database, store = CulturalDataset(
            n_artifacts=150, impressionist_fraction=fraction, seed=6
        ).build()
        mediator = make_mediator(database, store)
        runs = {
            # The default plan: one pushed call for all outer bindings.
            "setjoin": timed(lambda: mediator.query(Q2, rounds=(1, 2, 3))),
            # The paper's DJoin: one pushed call per outer row.
            "bindjoin": timed(lambda: mediator.query(
                Q2, rounds=(1, 2, 3), execution=ExecutionPolicy.serial()
            )),
            "bulkjoin": timed(lambda: mediator.query(Q2, rounds=(1, 2))),
        }
        metrics = {}
        for label, (result, elapsed) in runs.items():
            stats = result.report.stats
            metrics[label] = elapsed
            metrics[f"{label}_calls"] = stats.total_source_calls
            metrics[f"{label}_bytes"] = stats.total_bytes_transferred
            metrics[f"{label}_wan_ms"] = wan_ms(elapsed, stats)
        winner = min(runs, key=lambda label: metrics[f"{label}_wan_ms"])
        emit(
            "selectivity_crossover",
            {"fraction": fraction, "n": 150},
            winner=winner,
            **metrics,
        )
        order = ("setjoin", "bindjoin", "bulkjoin")
        print(
            f"{fraction:9.2f} {metrics['setjoin'] * 1e3:8.1f} "
            f"{metrics['bindjoin'] * 1e3:11.1f} {metrics['bulkjoin'] * 1e3:8.1f} "
            + "/".join(str(metrics[f'{l}_calls']) for l in order).rjust(13)
            + "/".join(f"{metrics[f'{l}_bytes'] / 1024:.1f}" for l in order).rjust(19)
            + "/".join(f"{metrics[f'{l}_wan_ms']:.0f}" for l in order).rjust(17)
        )


def report_sql_vs_oql():
    banner("E2 — the same fragment pushed to OQL and to SQL (n=200)")
    from repro.core.algebra.expressions import Cmp, Const, Var
    from repro.core.algebra.operators import SelectOp

    dataset = CulturalDataset(n_artifacts=200, seed=4)
    database, _store = dataset.build()
    o2 = O2Wrapper("o2artifact", database)
    sql = SqlWrapper("salesdb", dataset.build_sales(database))
    o2_flt = felem(
        "set",
        FStar(felem("class", felem("artifact", felem("tuple",
              felem("title", FVar("t")), felem("price", FVar("p")))))),
    )
    sql_flt = felem(
        "rows",
        FStar(felem("row", felem("title", FVar("t")), felem("price", FVar("p")))),
    )
    o2_plan = SelectOp(
        BindOp(SourceOp("o2artifact", "artifacts"), o2_flt, on="artifacts"),
        Cmp("<", Var("p"), Const(1_000_000.0)),
    )
    sql_plan = SelectOp(
        BindOp(SourceOp("salesdb", "sales"), sql_flt, on="sales"),
        Cmp("<", Var("p"), Const(1_000_000.0)),
    )
    (o2_tab, o2_native), t_o2 = timed(lambda: o2.execute_pushed(o2_plan))
    (sql_tab, sql_native), t_sql = timed(lambda: sql.execute_pushed(sql_plan))
    same = {(r["t"], r["p"]) for r in o2_tab} == {
        (r["t"], r["p"]) for r in sql_tab
    }
    emit(
        "sql_vs_oql",
        {"n": 200},
        oql=t_o2,
        sql=t_sql,
        oql_rows=len(o2_tab),
        sql_rows=len(sql_tab),
        identical=same,
    )
    print(f"rows: OQL={len(o2_tab)}  SQL={len(sql_tab)}  identical={same}")
    print(f"time: OQL={t_o2 * 1e3:.1f} ms  SQL={t_sql * 1e3:.1f} ms")
    print(f"OQL: {o2_native[:74]}")
    print(f"SQL: {sql_native[:74]}")


def report_equivalences():
    banner("F7 / Figure 7 — each equivalence, both forms evaluated (n=150)")
    database, store = CulturalDataset(n_artifacts=150, seed=1).build()
    o2 = O2Wrapper("o2artifact", database)
    wais = WaisWrapper("xmlartwork", store)
    context = OptimizerContext(
        interfaces={"o2artifact": o2.interface(), "xmlartwork": wais.interface()}
    )
    adapters = {"o2artifact": o2, "xmlartwork": wais}

    def run(plan):
        return evaluate(plan, Environment(adapters, functions={"ref_is": ref_is}))

    navigation = BindOp(
        SourceOp("o2artifact", "artifacts"),
        felem(
            "set",
            FStar(felem("class", felem("artifact", felem("tuple",
                  felem("title", FVar("t")),
                  felem("owners", felem("list", FStar(felem("class",
                        felem("person", felem("tuple",
                              felem("name", FVar("o")))))))))))),
        ),
        on="artifacts",
    )
    works = BindOp(
        SourceOp("xmlartwork", "artworks"),
        felem("works", FStar(felem("work",
              felem("artist", FVar("a")), felem("title", FVar("t")),
              felem("style", FVar("s")), felem("size", FVar("si")),
              FRest("fields")))),
        on="artworks",
    )
    cases = [
        ("Bind (navigation, monolithic)", navigation),
        ("  = DJoin split form", split_nested_collection(navigation, context)),
        ("  = extent Join form", navigation_to_extent_join(navigation, context)),
        ("Bind (works, monolithic)", works),
        ("  = linear split form", split_below_root(works, context)[1]),
        ("Project(t) o full Bind", ProjectOp(works, [("t", "t")])),
        ("  = simplified Bind",
         DemandNarrowingRule().apply(ProjectOp(works, [("t", "t")]), context)),
    ]
    print(f"{'form':40s} {'ms':>8} {'rows':>6}")
    for label, plan in cases:
        tab, elapsed = timed(lambda p=plan: run(p))
        emit(
            "equivalences",
            {"form": label.strip(), "n": 150},
            elapsed=elapsed,
            rows=len(tab),
        )
        print(f"{label:40s} {elapsed * 1e3:8.1f} {len(tab):6d}")


def report_resilience():
    banner("RES — resilience: policy overhead (happy path) + fault-injection tests")
    try:
        from benchmarks.bench_resilience_overhead import overhead_rows
    except ImportError:
        from bench_resilience_overhead import overhead_rows

    print(f"{'n':>5} {'none ms':>9} {'direct ms':>10} {'default ms':>11} "
          f"{'overhead':>9}")
    sizes = (25,) if QUICK else (25, 100)
    for n, timings, overhead in overhead_rows(sizes=sizes,
                                              repeats=3 if QUICK else 10):
        emit(
            "resilience_overhead",
            {"n": n},
            none_s=timings["none"],
            direct_s=timings["direct"],
            default_s=timings["default"],
            overhead_pct=overhead,
        )
        print(f"{n:5d} {timings['none'] * 1e3:9.2f} "
              f"{timings['direct'] * 1e3:10.2f} "
              f"{timings['default'] * 1e3:11.2f} {overhead:8.1f}%")

    if SMOKE:
        print("pytest gates skipped (--smoke); CI runs the full suite "
              "separately")
        return

    # The fault-injection and resilience suites gate the perf trajectory:
    # a policy that got fast by dropping semantics fails here.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q",
         "tests/test_resilience.py", "tests/test_faults.py"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    tail = (completed.stdout or completed.stderr).strip().splitlines()
    print("pytest -q tests/test_resilience.py tests/test_faults.py:")
    for line in tail[-3:]:
        print(f"  {line}")
    if completed.returncode != 0:
        raise SystemExit("resilience test suite failed")


def report_parallel():
    banner("P1/P2 — federated execution scheduler: parallel dispatch + batching")
    try:
        from benchmarks.bench_parallel_speedup import (
            djoin_batching_rows,
            union_speedup_rows,
        )
    except ImportError:
        from bench_parallel_speedup import djoin_batching_rows, union_speedup_rows

    latency = 0.02 if QUICK else 0.03
    serial_time, rows = union_speedup_rows(
        parallelism_levels=(2, 4) if QUICK else (1, 2, 4),
        n=20 if QUICK else 30,
        latency=latency,
        repeats=2 if QUICK else 3,
    )
    print(f"three-source Union, {latency * 1e3:.0f} ms injected latency per call:")
    print(f"{'policy':>14} {'seconds':>9} {'speedup':>8}")
    print(f"{'seed serial':>14} {serial_time:9.3f} {'1.0x':>8}")
    for parallelism, elapsed, speedup, _stats in rows:
        emit(
            "parallel_union",
            {"parallelism": parallelism, "latency_s": latency},
            serial_s=serial_time,
            parallel_s=elapsed,
            speedup=speedup,
        )
        print(f"{'parallel=' + str(parallelism):>14} {elapsed:9.3f} {speedup:7.1f}x")

    print("\nDJoin batching on the duplicate-heavy artist column:")
    print(f"{'n':>5} {'serial calls':>13} {'batched calls':>14} {'ratio':>7}")
    for n, serial_calls, batched_calls, ratio, _hits in djoin_batching_rows(
        sizes=(40,) if QUICK else (40, 80, 160)
    ):
        emit(
            "djoin_batching",
            {"n": n},
            serial_calls=serial_calls,
            batched_calls=batched_calls,
            ratio=ratio,
        )
        print(f"{n:5d} {serial_calls:13d} {batched_calls:14d} {ratio:6.1f}x")


def report_observability():
    banner("O1 — observability: tracer overhead (off vs on) + differential")
    try:
        from benchmarks.bench_observability_overhead import (
            differential_check,
            overhead_rows,
        )
    except ImportError:
        from bench_observability_overhead import differential_check, overhead_rows

    identical = differential_check(n=25 if QUICK else 40)
    print(f"tracing on/off differential: {identical} identical rows")
    emit("tracer_differential", {}, identical_rows=identical)

    print(f"{'n':>5} {'off ms':>9} {'traced ms':>10} {'overhead':>9} {'spans':>6}")
    sizes = (25,) if QUICK else (25, 100)
    for n, timings, overhead, spans in overhead_rows(
        sizes=sizes, repeats=3 if QUICK else 10
    ):
        emit(
            "tracer_overhead",
            {"n": n},
            off_s=timings["off"],
            traced_s=timings["traced"],
            traced_overhead_pct=overhead,
            spans=spans,
        )
        print(f"{n:5d} {timings['off'] * 1e3:9.2f} "
              f"{timings['traced'] * 1e3:10.2f} {overhead:8.1f}% {spans:6d}")


def report_plan_cache():
    banner("C1 — compile-once serving: cold planning vs warm plan-cache hits")
    try:
        from benchmarks.bench_plan_cache import warm_cold_rows
    except ImportError:
        from bench_plan_cache import warm_cold_rows

    print(f"{'query':>6} {'cold ms':>9} {'warm ms':>9} {'speedup':>9} {'same':>5}")
    for name, cold, warm, speedup, identical in warm_cold_rows(
        n_artifacts=25, seed=1, repeats=5 if QUICK else 15
    ):
        assert identical, f"{name}: warm answer diverged from cold"
        emit(
            "plan_cache",
            {"query": name},
            cold_s=cold,
            warm_s=warm,
            speedup=speedup,
        )
        print(f"{name:>6} {cold * 1e3:9.2f} {warm * 1e3:9.2f} "
              f"{speedup:8.1f}x {str(identical):>5}")


def report_result_cache():
    banner("R1 — result cache: warm hits, freshness, cached-serving goodput")
    try:
        from benchmarks.bench_result_cache import (
            freshness_row, goodput_rows, warm_vs_fresh_rows,
        )
    except ImportError:
        from bench_result_cache import (
            freshness_row, goodput_rows, warm_vs_fresh_rows,
        )

    print(f"{'query':>6} {'fresh ms':>10} {'warm ms':>9} {'speedup':>9}")
    warm_ok = True
    for name, fresh_s, warm_s, speedup, row_ok in warm_vs_fresh_rows(
        repeats=5 if QUICK else 20
    ):
        warm_ok = warm_ok and row_ok
        emit(
            "result_cache_warm",
            {"query": name},
            fresh_s=fresh_s,
            warm_s=warm_s,
            speedup=speedup,
        )
        print(f"{name:>6} {fresh_s * 1e3:10.3f} {warm_s * 1e3:9.3f} "
              f"{speedup:8.1f}x {'PASS' if row_ok else 'FAIL'}")

    stale_served, answers_differ, fresh_ok = freshness_row()
    print(f"freshness: stale_served={stale_served} "
          f"answers_differ={answers_differ} "
          f"{'PASS' if fresh_ok else 'FAIL'}")

    rows, speedup = goodput_rows(requests=40 if QUICK else 120)
    for label, row in rows:
        emit(
            "result_cache_serving",
            {"mode": label},
            offered=row.offered,
            completed=row.completed,
            qps=row.qps,
            p50_ms=row.p50 * 1e3,
            p99_ms=row.p99 * 1e3,
        )
        print(f"{label:>10}: {row.completed}/{row.offered} done, "
              f"{row.qps:.1f} qps")
    goodput_ok = speedup > 1.0
    print(f"goodput speedup (cache-on / cache-off): {speedup:.2f}x "
          f"{'PASS' if goodput_ok else 'FAIL'}")
    emit(
        "result_cache_acceptance",
        {},
        result_cache_warm_ok=warm_ok,
        result_cache_freshness_ok=fresh_ok,
        result_cache_goodput_ok=goodput_ok,
        goodput_speedup=speedup,
    )
    # Failed gates surface in the JSON (check_regressions.py fails on
    # any *_ok: false) rather than aborting here, so the report file
    # always reflects this run.


def report_store():
    banner("D1 — out-of-core store: SQL interval pushdown vs full materialization")
    try:
        from benchmarks.bench_store import speedup_rows
    except ImportError:
        from bench_store import speedup_rows

    # The acceptance bar lives at n=400; it is a ratio of two timings on
    # one machine, so it is measured even in smoke mode.
    sizes = tuple(sorted(set(SIZES) | {400}))
    repeats = 5 if QUICK else 10
    print(f"{'n':>5} {'materialize ms':>15} {'pushdown ms':>12} "
          f"{'speedup':>9} {'hydrated':>9}")
    speedup_400 = None
    fraction_400 = None
    for n, materialize_s, pushdown_s, speedup, fraction in speedup_rows(
        sizes=sizes, repeats=repeats
    ):
        emit(
            "store_pushdown",
            {"n": n},
            materialize_s=materialize_s,
            pushdown_s=pushdown_s,
            speedup=speedup,
            hydrated_fraction=fraction,
        )
        print(f"{n:5d} {materialize_s * 1e3:15.3f} {pushdown_s * 1e3:12.3f} "
              f"{speedup:8.1f}x {fraction:8.1%}")
        if n == 400:
            speedup_400 = speedup
            fraction_400 = fraction

    acceptance = {
        "store_pushdown_ok": bool(speedup_400 is not None
                                  and speedup_400 >= 3.0),
        "store_hydration_ok": bool(fraction_400 is not None
                                   and fraction_400 < 0.2),
    }
    emit("store_acceptance", {}, **acceptance)
    for name, passed in acceptance.items():
        print(f"  {name}: {'PASS' if passed else 'FAIL'}")


def report_serving():
    banner("S1 — concurrent serving: capacity, overload shedding, goodput")
    try:
        from benchmarks.bench_serving import serving_rows
    except ImportError:
        from bench_serving import serving_rows

    uncontended, saturated, overload, acceptance = serving_rows(
        n_artifacts=15 if SMOKE else 25,
        requests=60 if QUICK else 120,
    )
    print(f"{'phase':>12} {'offered':>8} {'done':>6} {'qps':>8} "
          f"{'p50 ms':>8} {'p99 ms':>8} {'shed':>6} {'degraded':>9}")
    for label, row in [("uncontended", uncontended),
                       ("saturated", saturated), ("overload", overload)]:
        # Latencies are load-shaped, not machine-speed-shaped, so they
        # are emitted in ms (outside the regression checker's timing
        # comparison); the acceptance booleans are the gate instead.
        emit(
            "serving",
            {"phase": label},
            offered=row.offered,
            completed=row.completed,
            qps=row.qps,
            p50_ms=row.p50 * 1e3,
            p99_ms=row.p99 * 1e3,
            shed=row.shed,
            degraded=row.degraded,
            goodput=row.goodput,
            max_reject_ms=row.max_reject_seconds * 1e3,
        )
        print(f"{label:>12} {row.offered:8d} {row.completed:6d} "
              f"{row.qps:8.1f} {row.p50 * 1e3:8.2f} {row.p99 * 1e3:8.2f} "
              f"{row.shed:6d} {row.degraded:9d}")
    emit("serving_acceptance", {}, **acceptance)
    for name, passed in acceptance.items():
        print(f"  {name}: {'PASS' if passed else 'FAIL'}")
    # A failed gate is reported in the JSON (check_regressions.py fails
    # on any *_ok: false) rather than aborting here, so the report file
    # always reflects this run.


def report_sharding():
    banner("SH1 — sharded sources: scatter-gather, shard pruning, replica failover")
    try:
        from benchmarks.bench_sharding import (
            failover_rows, pruning_row, scatter_rows,
        )
    except ImportError:
        from bench_sharding import failover_rows, pruning_row, scatter_rows

    repeats = 2 if QUICK else 3
    print("scatter-gather over latency-injected shards (25 ms/call):")
    print(f"{'shards':>7} {'serial s':>9} {'par=8 s':>9} {'speedup':>8}")
    speedup_8 = None
    for shards, serial_s, parallel_s, speedup in scatter_rows(
        shard_counts=(8,) if QUICK else (8, 16), repeats=repeats
    ):
        # Both arms pay the same injected latency, so the speedup is a
        # ratio on one machine — gate-worthy even in smoke mode.
        emit(
            "shard_scatter",
            {"shards": shards},
            serial_s=serial_s,
            parallel_s=parallel_s,
            speedup=speedup,
        )
        print(f"{shards:7d} {serial_s:9.3f} {parallel_s:9.3f} {speedup:7.1f}x")
        if shards == 8:
            speedup_8 = speedup

    pruned_s, unpruned_s, prune_speedup, shards_read = pruning_row(
        repeats=repeats
    )
    emit(
        "shard_pruning",
        {"shards": 8},
        pruned_s=pruned_s,
        unpruned_s=unpruned_s,
        speedup=prune_speedup,
        shards_read=shards_read,
    )
    print(f"pruning: {shards_read}/8 shards read, "
          f"{pruned_s * 1e3:.1f} ms vs unpruned {unpruned_s * 1e3:.1f} ms "
          f"({prune_speedup:.1f}x)")

    h50, h99, f50, f99, overhead = failover_rows(
        samples=10 if QUICK else 30
    )
    emit(
        "shard_failover",
        {},
        healthy_p50_ms=h50 * 1e3,
        healthy_p99_ms=h99 * 1e3,
        failover_p50_ms=f50 * 1e3,
        failover_p99_ms=f99 * 1e3,
        overhead_pct=overhead,
    )
    print(f"failover: healthy p99 {h99 * 1e3:.1f} ms, dead-primary p99 "
          f"{f99 * 1e3:.1f} ms ({overhead:+.1f}%)")

    acceptance = {
        "shard_scatter_ok": bool(speedup_8 is not None and speedup_8 >= 3.0),
        "shard_pruning_ok": bool(prune_speedup >= 5.0),
        "shard_failover_ok": bool(overhead < 15.0),
    }
    emit("shard_acceptance", {}, **acceptance)
    for name, passed in acceptance.items():
        print(f"  {name}: {'PASS' if passed else 'FAIL'}")


def main():
    print("YAT reproduction — experiment report"
          + (f" ({REPORT['mode']} mode)" if QUICK else ""))
    report_q1()
    report_q2()
    report_ablation()
    report_crossover()
    report_sql_vs_oql()
    report_equivalences()
    report_resilience()
    report_parallel()
    report_observability()
    report_plan_cache()
    report_result_cache()
    report_store()
    report_serving()
    report_sharding()
    out_path = Path(__file__).resolve().parent.parent / "BENCH_report.json"
    out_path.write_text(json.dumps(REPORT, indent=2) + "\n")
    print(f"\nwrote {len(REPORT['benchmarks'])} benchmark rows to {out_path.name}")
    print("all cross-checks passed (every optimized answer matched naive).")


if __name__ == "__main__":
    main()
