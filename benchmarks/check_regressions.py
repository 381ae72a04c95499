"""Fail CI when a benchmark regresses against the committed baseline.

Compares a freshly generated ``BENCH_report.json`` against the one
committed at the repo root.  Rows are matched by ``(name, params)``;
within each matched row every timing metric (a ``{median_s, ...}``
sample dict or a bare ``*_s`` float) is compared as ``current /
baseline``.

CI machines are not the machine that produced the baseline, so raw
ratios mean nothing by themselves.  The checker first estimates a global
machine-speed scale — the median ratio across *all* matched timings —
and then flags only the timings that regressed more than ``--threshold``
(default 1.25, i.e. >25%) beyond that scale.  A uniform slowdown (cold
CI runner) moves the scale, not the verdicts; a single benchmark getting
slower moves its own ratio only.

Timings where both sides sit under the noise floor (default 5 ms) are
skipped: at that scale the interpreter's jitter swamps any real signal.
A flagged timing must also regress by more than ``--slack-ms`` in
absolute terms, so a couple of milliseconds of jitter on a small number
never reads as a 2x slowdown.

Run:  python benchmarks/check_regressions.py BASELINE CURRENT [options]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

NOISE_FLOOR_S = 0.005
SLACK_S = 0.005
MIN_MATCHES_FOR_SCALING = 3


def _row_key(row: dict) -> tuple:
    params = row.get("params") or {}
    return (row["name"], tuple(sorted(params.items())))


def _timings(metrics: dict) -> dict:
    """``metric name -> seconds`` for every timing-valued metric."""
    out = {}
    for key, value in metrics.items():
        if isinstance(value, dict) and "median_s" in value:
            out[key] = float(value["median_s"])
        elif key.endswith("_s") and isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def load_rows(path: Path) -> dict:
    report = json.loads(path.read_text())
    rows = {}
    for row in report.get("benchmarks", []):
        rows[_row_key(row)] = row.get("metrics", {})
    return rows


def check_acceptance(current: dict) -> list:
    """Failed ``*_ok`` acceptance booleans in the current report.

    Benchmarks with hard acceptance criteria (e.g. the serving layer's
    overload contract) emit boolean metrics named ``*_ok``; any that is
    ``False`` fails the check regardless of timings, because it encodes
    a behavioral contract, not a machine-speed comparison.
    """
    failed = []
    for (name, params), metrics in current.items():
        for metric, value in metrics.items():
            if metric.endswith("_ok") and value is False:
                failed.append(f"{name}{dict(params)}::{metric}")
    return failed


def compare(baseline_path: Path, current_path: Path, threshold: float,
            noise_floor: float, slack: float) -> int:
    baseline = load_rows(baseline_path)
    current = load_rows(current_path)

    failed_acceptance = check_acceptance(current)
    if failed_acceptance:
        print("ACCEPTANCE FAILURES (boolean gates in the current report):")
        for label in failed_acceptance:
            print(f"  {label}")
        return 1

    # A benchmark retired since the baseline (or skipped by this report
    # mode) has nothing to compare: that passes, but is said out loud.
    absent = sorted(
        {name for name, _params in baseline}
        - {name for name, _params in current}
    )
    if absent:
        print("baseline benchmarks absent from the current report "
              f"(not compared): {', '.join(absent)}")

    pairs = []  # (label, base_s, cur_s, ratio)
    for key, base_metrics in baseline.items():
        cur_metrics = current.get(key)
        if cur_metrics is None:
            continue
        base_timings = _timings(base_metrics)
        cur_timings = _timings(cur_metrics)
        for metric, base_s in base_timings.items():
            cur_s = cur_timings.get(metric)
            if cur_s is None or base_s <= 0:
                continue
            name, params = key
            label = f"{name}{dict(params)}::{metric}"
            pairs.append((label, base_s, cur_s, cur_s / base_s))

    if not pairs:
        print("no matching benchmark rows between baseline and current; "
              "nothing to check")
        return 0

    ratios = [ratio for _l, _b, _c, ratio in pairs]
    if len(pairs) >= MIN_MATCHES_FOR_SCALING:
        # A scale below 1.0 means the current tree is broadly *faster*
        # than the baseline; clamping at 1.0 keeps a benchmark that
        # merely failed to improve from being flagged as a regression.
        scale = max(statistics.median(ratios), 1.0)
    else:
        scale = 1.0
        print(f"only {len(pairs)} matched timings; skipping machine-speed "
              "scaling (scale=1.0)")

    regressions = []
    skipped = 0
    for label, base_s, cur_s, ratio in pairs:
        if base_s < noise_floor and cur_s < noise_floor:
            skipped += 1
            continue
        # Both gates must trip: the relative one scales with machine
        # speed, the absolute slack keeps a few milliseconds of jitter
        # on a small timing from reading as a 2x "regression".
        if ratio > scale * threshold and cur_s - base_s * scale > slack:
            regressions.append((label, base_s, cur_s, ratio))

    print(f"checked {len(pairs)} timings "
          f"(machine-speed scale {scale:.2f}x, threshold +{(threshold - 1) * 100:.0f}%, "
          f"{skipped} under the {noise_floor * 1e3:.0f} ms noise floor)")
    if regressions:
        print("\nREGRESSIONS:")
        for label, base_s, cur_s, ratio in sorted(
            regressions, key=lambda item: -item[3]
        ):
            print(f"  {label}: {base_s * 1e3:.2f} ms -> {cur_s * 1e3:.2f} ms "
                  f"({ratio:.2f}x vs scale {scale:.2f}x)")
        return 1
    print("no benchmark regressed beyond the scaled threshold")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path,
                        help="committed BENCH_report.json")
    parser.add_argument("current", type=Path,
                        help="freshly generated BENCH_report.json")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="allowed slowdown beyond the machine-speed "
                             "scale (default 1.25 = +25%%)")
    parser.add_argument("--noise-floor-ms", type=float,
                        default=NOISE_FLOOR_S * 1e3,
                        help="skip timings where both sides are below this")
    parser.add_argument("--slack-ms", type=float, default=SLACK_S * 1e3,
                        help="absolute regression a timing must exceed, on "
                             "top of the relative threshold")
    args = parser.parse_args(argv)
    return compare(args.baseline, args.current, args.threshold,
                   args.noise_floor_ms / 1e3, args.slack_ms / 1e3)


if __name__ == "__main__":
    sys.exit(main())
