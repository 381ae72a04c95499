"""``--check``: the harness tests itself, with tiny op counts.

Each check is a function that raises ``AssertionError`` with a message;
``test_e2e_smoke.py`` runs the same functions under pytest.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from typing import Callable, Dict, List

from benchmarks.e2e import ROOT, cli, opmix
from benchmarks.e2e.spec import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SERIAL = [name for name, workload in WORKLOADS.items() if workload.clients == 1]
#: Tiny but complete: every op class occurs, and ``served_mix``'s latency
#: modes already clear the reported percentiles (below 96 ops they do not,
#: and the start-up check of noise rule 4 refuses the run).
TINY_SECONDS = 6.0


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def check_op_lists() -> None:
    """Same seed, same ops; another seed, other ops; exact class counts."""
    for name, factory in WORKLOADS.items():
        workload = factory()
        first = workload.streams(7, "timed", 200)
        again = factory().streams(7, "timed", 200)
        other = workload.streams(11, "timed", 200)
        assert opmix.ops_digest(first) == opmix.ops_digest(again), name
        assert opmix.ops_digest(first) != opmix.ops_digest(other), name
        if workload.shares:
            counts: Dict[str, int] = {}
            for op in first[0]:
                counts[op.klass] = counts.get(op.klass, 0) + 1
            assert counts == opmix.allocate(workload.shares, 200), (name, counts)


def check_class_boundaries() -> None:
    """Noise rule 4 holds for every workload's latency modes at the
    default op counts, and rejects a bad mix."""
    for factory in WORKLOADS.values():
        workload = factory()
        count = cli.op_count(workload, cli.DEFAULT_SECONDS)
        opmix.check_class_boundaries(
            workload.modes(
                workload.streams(7, "warmup", cli.warmup_count(count)),
                workload.streams(7, "timed", count),
            )
        )
    try:
        # The prototype's first sharded mix: p50 sat on the 50% boundary
        # and moved 11% between invocations.
        opmix.check_class_boundaries((("a", 50), ("b", 30), ("c", 20)))
    except ValueError:
        return
    raise AssertionError("a 50/30/20 mix must be rejected")


def check_contract() -> None:
    """``BENCHMARK.json`` and :mod:`benchmarks.e2e.spec` say the same."""
    contract = _contract()
    assert contract["paths"] == ["benchmarks/e2e"], contract["paths"]
    declared = {w["name"]: w["why"] for w in contract["workloads"]}
    assert declared == {n: w.why for n, w in WORKLOADS.items()}, declared
    end_to_end = [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert contract["end_to_end"] == end_to_end, "end_to_end differs from spec"
    per_layer = [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert contract["per_layer"] == per_layer, "per_layer differs from spec"
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    names += list(WORKLOADS)
    assert len(set(names)) == len(names), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name


def check_repeatability() -> None:
    """Same seed: identical transfer cost and answers on the serial
    workloads, run to run."""
    with cli.scratch_dir() as scratch:
        for name in SERIAL:
            runs = [
                cli.run_workload(name, 7, TINY_SECONDS, False, scratch)
                for _ in range(2)
            ]
            for run in runs:
                assert run.correct, (name, run.problems)
            first, second = runs
            assert (
                first.metrics["source_wan_ms_per_op"]
                == second.metrics["source_wan_ms_per_op"]
            ), name
            assert first.info["answers_digest"] == second.info["answers_digest"], name


def _command(name: str, trace: int) -> dict:
    """Run the contract's command; returns the parsed result line after
    checking that the human-readable part names every metric too."""
    contract = _contract()
    command = contract["command"] + [
        "--workload", name, "--seed", "7", "--trace", str(trace),
        "--seconds", str(TINY_SECONDS),
    ]
    if command[0] == "python3":
        command[0] = sys.executable
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False
    )
    assert done.returncode == 0, (name, trace, done.stdout[-2000:], done.stderr[-2000:])
    *report, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, name
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    printed = {key: value["unit"] for key, value in result["metrics"].items()}
    assert printed == units, (name, trace, set(printed) ^ set(units))
    listed = {line.split()[0] for line in report if line.startswith("  ")}
    assert set(units) <= listed, (name, trace, set(units) - listed)
    return result["metrics"]


def check_command_end_to_end() -> None:
    """The command prints exactly the declared end-to-end metrics."""
    for name in WORKLOADS:
        metrics = _command(name, 0)
        for metric, entry in metrics.items():
            assert entry["value"] > 0, (name, metric)


def check_command_traced() -> None:
    """The command prints exactly the declared per-layer metrics, and the
    stage spans cover every serial op's wall time."""
    for name in WORKLOADS:
        metrics = _command(name, 1)
        if name in SERIAL:
            coverage = metrics["trace.stage_coverage"]["value"]
            assert coverage >= 0.9, (name, coverage)


CHECKS: List[Callable[[], None]] = [
    check_op_lists,
    check_class_boundaries,
    check_contract,
    check_repeatability,
    check_command_end_to_end,
    check_command_traced,
]


def main() -> int:
    status = 0
    for check in CHECKS:
        try:
            check()
        except AssertionError as failure:
            status = 1
            print(f"FAIL {check.__name__}: {failure}")
        else:
            print(f"ok   {check.__name__}")
    return status
