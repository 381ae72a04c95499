"""Command line: one workload per process, every metric printed by name.

``--workload W`` runs W in this process (re-executed once under
``PYTHONHASHSEED=0`` so set orders, and with them answers and digests,
repeat exactly).  Without ``--workload`` each of the four runs in its own
fresh subprocess, so ``peak_rss_mb`` is per workload and no memo leaks
from one to the next.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace`` the per-layer ones.  The exit code is
non-zero when any op failed or any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e import ROOT, harness, layers, tracing
from benchmarks.e2e.opmix import check_class_boundaries, ops_digest
from benchmarks.e2e.spec import END_TO_END, FAILED_OP_SHARE, OK_OP_SHARE, PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS

DEFAULT_SEED = 7
DEFAULT_SECONDS = 20
#: Rounds of an end-to-end run (noise rule 2).
ROUNDS = 5
#: Untraced rounds of a ``--trace`` run (the overhead baseline).
TRACE_BASELINE_ROUNDS = 2


def scratch_dir() -> tempfile.TemporaryDirectory:
    """Scratch space for the sqlite files, removed on exit (also on
    failure).  Inside the checkout, because the benchmark driver lets a
    run write nowhere else; ``.gitignore`` names the prefix."""
    return tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=ROOT)


class EngineTraced:
    """*workload* with the engine's own ``Tracer`` on every query."""

    def __init__(self, workload) -> None:
        self.workload = workload

    def session(self, scratch: str, recorder=None):
        session = self.workload.session(scratch)
        session.engine_tracer = True
        return session


class Run:
    """Everything one workload run produced."""

    def __init__(self, header: str, ops: int) -> None:
        self.header = header
        #: Timed ops per round — the sample count behind the percentiles.
        self.ops = ops
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Raw per-round measurements of the untraced rounds (``--out``).
        self.rounds: List[dict] = []
        self.spans: Optional[List[dict]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def op_count(workload, seconds: float) -> int:
    """Timed ops per round for a ``--seconds`` budget: fixed counts sized
    so that the ``ROUNDS`` timed phases take about that long on the reference
    machine at the commit that defined the benchmark."""
    count = round(workload.ops_per_second * seconds)
    return max(count - count % workload.clients, 20 * workload.clients)


def warmup_count(count: int) -> int:
    """Warm-up ops for *count* timed ops (noise rule 3)."""
    return math.ceil(count * harness.WARMUP_FRACTION)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: str) -> Run:
    workload = WORKLOADS[name]()
    count = op_count(workload, seconds)
    warm = workload.streams(seed, "warmup", warmup_count(count))
    timed = workload.streams(seed, "timed", count)
    check_class_boundaries(workload.modes(warm, timed))
    untraced = ROUNDS if not trace else TRACE_BASELINE_ROUNDS
    run = Run(
        f"workload {name}  seed={seed} rounds={untraced}"
        f"{' + 1 traced' if trace else ''} ops={count} "
        f"warmup={sum(op is not None for ops in warm for op in ops)} "
        f"clients={workload.clients}",
        count,
    )
    run.info["ops_digest"] = ops_digest(warm + timed)

    def verify(session, _result):
        return workload.verify(session, timed)

    results = [
        harness.run_round(
            workload, warm, timed, scratch,
            inspect=verify if index == untraced - 1 else None,
        )
        for index in range(untraced)
    ]
    checks = results[-1].inspected
    all_rounds = list(results)

    if trace:
        recorder = tracing.SpanRecorder()
        walls = [result.wall_s for result in results]

        def probe(session, traced):
            return layers.layer_metrics(session, traced, recorder, walls)

        traced = harness.run_round(
            workload, warm, timed, scratch, recorder=recorder, inspect=probe
        )
        all_rounds.append(traced)
        run.metrics = traced.inspected
        if name == "adhoc_federated":
            engine = harness.run_round(EngineTraced(workload), warm, timed, scratch)
            all_rounds.append(engine)
            base = statistics.median(walls)
            run.metrics["observability.engine_tracer_overhead_pct"] = (
                100.0 * (engine.wall_s - base) / base
            )
        run.info.update(harness.end_to_end(results, workload.clients))
        run.spans = recorder.as_json()
    else:
        run.metrics = harness.end_to_end(results, workload.clients)

    digests = {result.answers_digest for result in all_rounds}
    run.info["answers_digest"] = results[0].answers_digest
    if len(digests) != 1:
        run.problems.append(f"answers differ between rounds: {sorted(digests)}")
    wrong = [label for label, ok in checks if not ok]
    if wrong:
        run.problems.append(f"answers differ from the oracle: {wrong}")
    run.info["verified"] = f"{len(checks) - len(wrong)} of {len(checks)} oracle checks"
    run.rounds = [
        {
            "setup_s": result.setup_s,
            "wall_s": result.wall_s,
            "cpu_s": result.cpu_s,
            "peak_rss_mb": result.peak_rss_mb,
            "source_wan_ms_per_op": result.source_wan_ms_per_op,
            "latencies_ms": result.latencies_ms,
        }
        for result in results
    ]
    run.attempted = sum(len(r.flat) for r in all_rounds) + len(checks)
    run.failed = sum(r.failed for r in all_rounds) + len(wrong)
    failed_share = run.failed / run.attempted
    run.info[FAILED_OP_SHARE] = failed_share
    (run.info if trace else run.metrics)[OK_OP_SHARE] = 1.0 - failed_share
    return run


# -- output ---------------------------------------------------------------------------


def render(run: Run, trace: bool) -> str:
    """Every metric by name with its unit, sample counts beside the
    percentiles; informational values after."""
    specs = PER_LAYER if trace else END_TO_END
    lines = [run.header]
    for spec in specs:
        value = run.metrics[spec.name]
        note = ""
        spread = run.metrics.get(f"{spec.name}.spread_pct")
        if spread is not None:
            note = f"  (ops={run.ops}, spread across rounds {spread:.1f}%)"
        lines.append(f"  {spec.name:<46} {value:>14.4f} {spec.unit}{note}")
    lines.append(f"  ({run.failed} of {run.attempted} attempted ops failed)")
    for key, value in run.info.items():
        if isinstance(value, float):
            value = f"{value:.4f}"
        lines.append(f"  {key}: {value}")
    for problem in run.problems:
        lines.append(f"  PROBLEM: {problem}")
    return "\n".join(lines)


def result_line(run: Run, trace: bool) -> str:
    specs = PER_LAYER if trace else END_TO_END
    return json.dumps(
        {
            "correct": run.correct,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                spec.name: {"value": run.metrics[spec.name], "unit": spec.unit}
                for spec in specs
            },
        }
    )


# -- entry ------------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload in this process (default: all "
                             "four, each in its own subprocess)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement budget; sets the fixed op count per "
                             "round (default %(default)s)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced round and report the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--check", action="store_true",
                        help="run the harness self-test and exit")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the results (and, with --trace, the "
                             "spans) as JSON to PATH")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_one(args: argparse.Namespace) -> int:
    trace = bool(args.trace)
    with scratch_dir() as scratch:
        run = run_workload(args.workload, args.seed, args.seconds, trace, scratch)
    print(render(run, trace))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "metrics": run.metrics,
                    "info": run.info,
                    "problems": run.problems,
                    "rounds": run.rounds,
                    "spans": run.spans,
                },
                handle,
                indent=1,
            )
    print(result_line(run, trace), flush=True)
    return 0 if run.correct else 1


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh interpreter, one after the other."""
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable, "-m", "benchmarks.e2e", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.out:
            stem, extension = os.path.splitext(args.out)
            command += ["--out", f"{stem}.{name}{extension}"]
        status |= subprocess.run(command, cwd=ROOT, check=False).returncode
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.check:
        from benchmarks.e2e import selfcheck

        return selfcheck.main()
    if args.workload is None:
        return _run_all(args)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Replace this process (no child is left behind) with one whose
        # string hashes are fixed.
        arguments = sys.argv[1:] if argv is None else list(argv)
        os.execve(
            sys.executable,
            [sys.executable, "-m", "benchmarks.e2e", *arguments],
            {**os.environ, "PYTHONHASHSEED": "0",
             "PYTHONPATH": os.pathsep.join(
                 [str(ROOT), os.environ.get("PYTHONPATH", "")]
             ).rstrip(os.pathsep)},
        )
    return _run_one(args)
