"""Census of ``src/repro``: which settings no caller passes, which
functions no test and no workload runs, and which wrapper ``raise``
sites the tests reach.

    python tools/census.py [--seconds 3] [-v] [--settings | --raises | --calls [--seed 7]]

First, statically (``ast`` only; ``--settings`` stops there and exits
1 when it lists any, which CI enforces): every
defaulted parameter of a public function, method or class that no call
in ``src``, ``tests``, ``examples`` or ``benchmarks`` passes (see
:func:`settings`).  Then every ``def`` in ``src/repro`` is listed with
``ast``; a profile hook
(``sys.setprofile`` + ``threading.setprofile``) records the
``(file, first line)`` of every call, first over ``pytest`` on
``tests/``, then over one ``--seconds S --trace 1`` run of each workload
of ``benchmarks/e2e``, then over one run of each ``examples/*.py`` (CI
runs them all).  It prints, per file, the functions that never ran
(dunders counted apart), those that ran only under tests and those
that only examples ran.
Stdlib only; the profiler makes everything 3-5x slower, so it is part
of no test suite.

``--raises`` instead lists every ``raise`` statement under
``src/repro/wrappers/`` with the ids of the tier-1 tests that execute
it, found by a line trace (``sys.settrace`` + ``threading.settrace``)
that follows only frames of that package (about 1 min); it exits 1
when some site no test reaches, which CI enforces.

``--calls`` instead prints, for each op class of each workload, its
warm calls per op: the ``call`` and ``c_call`` events of a profile hook
(``sys.setprofile`` + ``threading.setprofile``, set before the session
starts its threads) over the benchmark's own seeded timed op list for
``--seconds``, replayed one op at a time on one fresh session after its
warm-up (``--seed``, default the benchmark's).  Hashes are fixed, so two
runs agree exactly wherever one thread does the work (about 1 min).
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import os
import runpy
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


class RaiseTracer:
    """Line trace of the frames whose file is in *sites* (``{file:
    {line}}``), recording the test that runs each site line; a pytest
    plugin that names the running test and sets the trace again before
    each one (a test may unset it)."""

    def __init__(self, sites: dict) -> None:
        self.sites = sites
        self.test = ""
        self.reached = defaultdict(set)

    def trace(self, frame, event, _arg):
        lines = self.sites.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, _arg):
            if event == "line" and frame.f_lineno in lines:
                self.reached[(frame.f_code.co_filename, frame.f_lineno)].add(self.test)
            return local

        return local(frame, event, _arg)

    def pytest_runtest_setup(self, item):
        self.test = item.nodeid
        sys.settrace(self.trace)


def raise_sites() -> dict:
    """``{file: {line: statement text}}`` of every ``raise`` in the
    wrappers package."""
    sites = {}
    for path in sorted((SRC / "wrappers").rglob("*.py")):
        text = path.read_text()
        sites[str(path)] = {
            node.lineno: " ".join(ast.get_source_segment(text, node).split())
            for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Raise)
        }
    return sites


def raises() -> int:
    """Print each wrapper raise site with the tier-1 tests that reach it."""
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    import pytest

    sites = raise_sites()
    tracer = RaiseTracer({path: set(lines) for path, lines in sites.items()})
    threading.settrace(tracer.trace)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")],
                     plugins=[tracer])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = sum(len(lines) for lines in sites.values())
    print(f"\n== raise sites under src/repro/wrappers: {total}")
    unreached = 0
    for path, lines in sites.items():
        for line, statement in sorted(lines.items()):
            tests = sorted(tracer.reached.get((path, line), ()))
            unreached += not tests
            shown = statement if len(statement) <= 90 else statement[:87] + "..."
            print(f"{os.path.relpath(path, ROOT)}:{line}  {shown}")
            for test in tests or ["(no tier-1 test reaches it)"]:
                print(f"    {test}")
    print(f"== unreached: {unreached}")
    return 1 if unreached else 0


class CallCounter:
    """Profile hook counting ``call`` and ``c_call`` events while on."""

    def __init__(self) -> None:
        self.on = False
        self.count = 0

    def hook(self, frame, event, _arg):
        if self.on and event in ("call", "c_call"):
            self.count += 1


def calls(seed: int, seconds: float) -> int:
    """Print warm calls per op for each op class of each workload."""
    from benchmarks.e2e import cli, harness
    from benchmarks.e2e.workloads import WORKLOADS

    print(f"== warm calls per op (seed {seed}, --seconds {seconds:g})")
    for name, factory in WORKLOADS.items():
        workload = factory()
        count = cli.op_count(workload, seconds)
        warm = workload.streams(seed, "warmup", cli.warmup_count(count))
        timed = [op for ops in workload.streams(seed, "timed", count)
                 for op in ops if op is not None]
        counter = CallCounter()
        per_class = defaultdict(lambda: [0, 0])  # class -> [ops, calls]
        threading.setprofile(counter.hook)
        sys.setprofile(counter.hook)
        try:
            with cli.scratch_dir() as scratch:
                session = workload.session(scratch)
                try:
                    harness.drive(session, warm)
                    for op in timed:
                        counter.count, counter.on = 0, True
                        session.run(op)
                        counter.on = False
                        per_class[op.klass][0] += 1
                        per_class[op.klass][1] += counter.count
                finally:
                    session.close()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
        for klass, (ops, total) in per_class.items():
            print(f"{name:16} {klass:12} ops={ops:4}  calls={total:12,}"
                  f"  calls/op={total / ops:9,.0f}")
    return 0


def fixed_hashes() -> None:
    """Re-execute with fixed string hashes (else the benchmark CLI
    re-executes itself and drops the hook, and set order moves the
    counts) and the source on the tests' subprocesses' path: both must
    be set before the interpreter starts."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    if (os.environ.get("PYTHONHASHSEED"), os.environ.get("PYTHONPATH")) != ("0", path):
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": path})
    os.chdir(ROOT)


def table(title: str, rows: dict, verbose: bool) -> None:
    print(f"\n== {title}: {len(rows)} functions, {sum(n for _, n in rows.values())} lines")
    by_file = defaultdict(list)
    for (path, _first), entry in sorted(rows.items()):
        by_file[os.path.relpath(path, SRC)].append(entry)
    for path, entries in sorted(by_file.items(), key=lambda kv: -sum(n for _, n in kv[1])):
        names = ", ".join(name for name, _ in entries)
        shown = names if verbose or len(names) <= 100 else names[:97] + "..."
        print(f"{path:42} {len(entries):4} {sum(n for _, n in entries):5}  {shown}")


def _base_name(expr) -> str:
    return expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", "")


def _settings(method: ast.FunctionDef, skip: int) -> list:
    """``[(position or None, name)]`` of *method*'s defaulted parameters;
    keyword-only ones have no position.  *skip* drops ``self``/``cls``."""
    args = method.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(index - skip, arg.arg) for index, arg in enumerate(positional)
             if index >= max(first, skip)]
    found += [(None, arg.arg) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return found


def settings() -> list:
    """Every defaulted parameter of a public function, method or class of
    ``src/repro`` that no call in ``src``, ``tests``, ``examples`` or
    ``benchmarks`` passes, as ``[(file, line, "owner(name=)")]``.

    Static and name-based: a call ``f(...)`` or ``x.f(...)`` passes the
    keywords and the leading positions it spells to every public def
    named ``f`` (a class name stands for its ``__init__``, inherited when
    it has none; ``cls(...)`` for the enclosing class; ``super().f(...)``
    for the bases' ``f``), and ``*``/``**`` forward every position or
    keyword.  Fields of ``Node`` subclasses are structure, not settings:
    ``Node.remade`` passes them all."""
    classes = {}   # class name -> (base names, {method name: FunctionDef}, file)
    defs = []      # (file, owner class or None, FunctionDef, skip)
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((path, None, node, 0))
            elif isinstance(node, ast.ClassDef):
                methods = {m.name: m for m in node.body if isinstance(m, ast.FunctionDef)}
                classes[node.name] = ([_base_name(b) for b in node.bases], methods, path)
                if node.name.startswith("_"):
                    continue
                for name, method in methods.items():
                    if name.startswith("_") and name != "__init__":
                        continue
                    static = any(_base_name(d) == "staticmethod" for d in method.decorator_list)
                    defs.append((path, node.name, method, 0 if static else 1))

    def ancestors(name):
        seen, todo = [], [name]
        while todo:
            current = todo.pop(0)
            if current in classes and current not in seen:
                seen.append(current)
                todo.extend(classes[current][0])
        return seen

    def constructor(name):
        """The class whose ``__init__`` a call to *name* runs."""
        return next((c for c in ancestors(name) if "__init__" in classes[c][1]), None)

    passed = defaultdict(set)  # (class or None, def name) -> positions and keywords
    trees = [ROOT / "src", ROOT / "tests", ROOT / "examples", ROOT / "benchmarks"]
    for path in sorted(p for tree in trees for p in tree.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call):
                        inner.enclosing = node.name
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func, targets = call.func, []
            if isinstance(func, ast.Name) and func.id == "cls":
                targets = [(constructor(getattr(call, "enclosing", "")), "__init__")]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call)
                  and _base_name(func.value.func) == "super"):
                bases = classes.get(getattr(call, "enclosing", ""), ((),))[0]
                targets = [(c, func.attr) for b in bases for c in ancestors(b)]
            elif isinstance(func, (ast.Name, ast.Attribute)):
                name = _base_name(func)
                targets = [(None, name)] + [(c, name) for c in classes if name in classes[c][1]]
                if name in classes:
                    targets.append((constructor(name), "__init__"))
            marks = {k.arg for k in call.keywords}
            if None in marks:
                marks.add("**")
            for index, arg in enumerate(call.args):
                marks.add("*" if isinstance(arg, ast.Starred) else index)
            for target in targets:
                passed[target] |= marks
    structure = {c for c in classes if "Node" in ancestors(c)[1:]}
    found = []
    for path, owner, method, skip in defs:
        if owner in structure and method.name == "__init__":
            continue
        marks = passed[(owner, method.name)]
        label = owner if method.name == "__init__" else (
            f"{owner}.{method.name}" if owner else method.name)
        for position, name in _settings(method, skip):
            if name in marks or "**" in marks or (
                    position is not None and (position in marks or "*" in marks)):
                continue
            found.append((os.path.relpath(path, ROOT), method.lineno, f"{label}({name}=)"))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="3")
    parser.add_argument("-v", action="store_true", help="print every name")
    parser.add_argument("--settings", action="store_true",
                        help="print only the static settings section (no run); "
                        "exit 1 if it lists any")
    parser.add_argument("--raises", action="store_true",
                        help="list every raise under src/repro/wrappers with the "
                        "tier-1 tests that reach it (line trace, no workloads); "
                        "exit 1 if some site is unreached")
    parser.add_argument("--calls", action="store_true",
                        help="print warm calls per op for each op class of each "
                        "workload (profile hook, no tests)")
    parser.add_argument("--seed", type=int, default=7,
                        help="the workloads' op-list seed for --calls")
    args = parser.parse_args()
    if args.raises:
        return raises()
    if args.calls:
        fixed_hashes()
        return calls(args.seed, float(args.seconds))
    unset = settings()
    print(f"== settings no caller passes: {len(unset)}")
    for path, line, setting in unset:
        print(f"{path}:{line}  {setting}")
    if args.settings:
        return 1 if unset else 0
    fixed_hashes()
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
    examples = set()
    for path in sorted((ROOT / "examples").glob("*.py")):
        sys.argv = [str(path)]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            examples |= recorder.record(
                lambda: runpy.run_path(str(path), run_name="__main__"))
    found = functions()
    never = {k: v for k, v in found.items() if k not in tests | workloads | examples}
    dunders = {k: v for k, v in never.items() if v[0].rsplit(".", 1)[-1].startswith("__")}
    print(f"\n{len(found)} functions, {sum(n for _, n in found.values())} lines in src/repro")
    print(f"never run: {len(never)} functions, {sum(n for _, n in never.values())} lines, "
          f"of which dunders {len(dunders)} ({sum(n for _, n in dunders.values())} lines)")
    table("never run, dunders excluded",
          {k: v for k, v in never.items() if k not in dunders}, args.v)
    table("run only under tests",
          {k: v for k, v in found.items() if k in tests and k not in workloads}, args.v)
    table("run only by examples",
          {k: v for k, v in found.items() if k in examples - tests - workloads}, args.v)
    return 0


if __name__ == "__main__":
    sys.exit(main())
