"""Census of ``src/repro``: which functions no test and no workload runs.

    python tools/census.py [--seconds 3] [-v]

Every ``def`` in ``src/repro`` is listed with ``ast``; a profile hook
(``sys.setprofile`` + ``threading.setprofile``) records the
``(file, first line)`` of every call, first over ``pytest`` on
``tests/``, then over one ``--seconds S --trace 1`` run of each workload
of ``benchmarks/e2e``.  It prints, per file, the functions that never
ran (dunders counted apart) and those that ran only under tests.
Stdlib only; the profiler makes everything 3-5x slower, so it is part
of no test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"


def functions() -> dict:
    """``{(file, first line): (qualified name, lines)}`` of every def."""
    found = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (prefix + child.name, child.end_lineno - first + 1)
                visit(path, child, prefix + child.name + ".")
            else:
                inner = child.name + "." if isinstance(child, ast.ClassDef) else ""
                visit(path, child, prefix + inner)

    for path in sorted(SRC.rglob("*.py")):
        visit(path, ast.parse(path.read_text()), "")
    return found


class Recorder:
    """Profile hook adding ``(file, first line)`` of every call to the
    current phase's set; pool threads outlive phases, so the hook reads
    the set through ``self``.  Also a pytest plugin: a test that recurses
    to the limit makes the hook raise, which unsets it, so it is set again
    before every test."""

    def __init__(self) -> None:
        self.seen: set = set()

    def hook(self, frame, event, _arg):
        if event == "call":
            self.seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    def pytest_runtest_setup(self, item):
        sys.setprofile(self.hook)

    def record(self, run) -> set:
        self.seen = seen = set()
        threading.setprofile(self.hook)
        sys.setprofile(self.hook)
        try:
            run()
        except SystemExit:
            pass
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        return seen


def table(title: str, rows: dict, verbose: bool) -> None:
    print(f"\n== {title}: {len(rows)} functions, {sum(n for _, n in rows.values())} lines")
    by_file = defaultdict(list)
    for (path, _first), entry in sorted(rows.items()):
        by_file[os.path.relpath(path, SRC)].append(entry)
    for path, entries in sorted(by_file.items(), key=lambda kv: -sum(n for _, n in kv[1])):
        names = ", ".join(name for name, _ in entries)
        shown = names if verbose or len(names) <= 100 else names[:97] + "..."
        print(f"{path:42} {len(entries):4} {sum(n for _, n in entries):5}  {shown}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="3")
    parser.add_argument("-v", action="store_true", help="print every name")
    args = parser.parse_args()
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    if (os.environ.get("PYTHONHASHSEED"), os.environ.get("PYTHONPATH")) != ("0", path):
        # Fixed string hashes (else the benchmark CLI re-executes itself
        # and drops the hook), and the source on the tests' subprocesses'
        # path: both must be set before the interpreter starts.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path})
    os.chdir(ROOT)
    import pytest
    from benchmarks.e2e import cli
    from benchmarks.e2e.workloads import WORKLOADS

    recorder = Recorder()
    tests = recorder.record(lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", "tests"], plugins=[recorder]))
    workloads = set()
    for name in WORKLOADS:
        workloads |= recorder.record(lambda: cli.main(
            ["--workload", name, "--seconds", args.seconds, "--trace", "1"]))
    found = functions()
    never = {k: v for k, v in found.items() if k not in tests | workloads}
    dunders = {k: v for k, v in never.items() if v[0].rsplit(".", 1)[-1].startswith("__")}
    print(f"\n{len(found)} functions, {sum(n for _, n in found.values())} lines in src/repro")
    print(f"never run: {len(never)} functions, {sum(n for _, n in never.values())} lines, "
          f"of which dunders {len(dunders)} ({sum(n for _, n in dunders.values())} lines)")
    table("never run, dunders excluded",
          {k: v for k, v in never.items() if k not in dunders}, args.v)
    table("run only under tests",
          {k: v for k, v in found.items() if k in tests and k not in workloads}, args.v)
    return 0


if __name__ == "__main__":
    sys.exit(main())
