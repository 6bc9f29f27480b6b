#!/usr/bin/env python3
"""List the package statements that no outside caller reaches.

    python3 scripts/traffic.py          # well under a minute on one core

Runs, in this one process with LOCALSGD_THREADS=1 and under `sys.settrace`
restricted to frames of the files in src/localsgd, what callers outside
the package run:

    the six demos     in a temporary copy of demos/ beside a copy of the
                      synth50 fixture, as tests/test_demos.py runs them
    localsgd theory   --K 1,2,4,8 --H 1,4,16 --eps 0.001 --rho 25
    localsgd fstar    on tests/data/synth50.libsvm
    the benchmark     benchmarks/run.py --seed 4242 --seconds 1 --trace 0,
                      once per workload of BENCHMARK.json; it writes its
                      records to .bench_out/, as when run alone

Their stdout is dropped, and each one's time goes to stderr.  Then it
prints, for each module, the statements that none of them executed, with
`R` marking a `raise`.  Docstrings, def and class lines, `global`
declarations and `try:` lines are not counted as statements.  A statement
counts as executed when a line event fired on one of its lines; for a
compound statement (if, for, while, with) only its header lines count.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import shutil
import sys
import tempfile
import time
from pathlib import Path

os.environ["LOCALSGD_THREADS"] = "1"  # one process: a sweep opens no pool

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "localsgd"
SYNTH50 = ROOT / "tests" / "data" / "synth50.libsvm"
NOT_STATEMENTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global,
                  ast.Nonlocal, ast.Try)


def trace_package(executed):
    """Start recording, in `executed` (file name -> set of line numbers),
    each line that a frame of a package file runs."""
    prefix = str(PACKAGE) + os.sep

    def on_call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = executed.setdefault(frame.f_code.co_filename, set())

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line
        return on_line
    sys.settrace(on_call)


def run_caller(label, fn, *args):
    """Call fn(*args) with its stdout dropped; a nonzero exit is an error."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = fn(*args)
        except SystemExit as exc:
            code = exc.code
    if code not in (0, None):
        raise RuntimeError(f"{label} exited with {code}")
    print(f"{label}: {time.perf_counter() - start:.1f} s", file=sys.stderr)


def run_script(path, *argv):
    sys.argv = [str(path), *argv]
    runpy.run_path(str(path), run_name="__main__")


def statements(path):
    """(first line, lines that count, is a raise) of each statement of a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, NOT_STATEMENTS):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        found.append((node.lineno, range(node.lineno, last + 1), isinstance(node, ast.Raise)))
    return sorted(found)


def report(executed):
    """Print each module's statements that no line event reached."""
    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = executed.get(str(path), set())
        source = path.read_text(encoding="utf-8").splitlines()
        found = statements(path)
        missed = [(line, is_raise) for line, lines, is_raise in found
                  if not ran.intersection(lines)]
        total, missed_total = total + len(found), missed_total + len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(found)} statements "
              "not executed")
        for line, is_raise in missed:
            print(f"  {'R' if is_raise else ' '} {line:>4}  {source[line - 1].strip()}")
    print(f"total: {missed_total} of {total} statements not executed")


def main():
    executed = {}
    sys.path.insert(0, str(PACKAGE.parent))
    sys.path.insert(0, str(ROOT / "benchmarks"))  # run.py imports its neighbours
    trace_package(executed)  # before the import, so module-level lines count
    from localsgd.cli import main as cli

    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "demos", copy / "demos", ignore=shutil.ignore_patterns("out"))
        (copy / "tests" / "data").mkdir(parents=True)
        shutil.copy(SYNTH50, copy / "tests" / "data")
        for demo in sorted((copy / "demos").glob("0*.py")):
            run_caller(f"demos/{demo.name}", run_script, demo)
    run_caller("localsgd theory", cli,
               ["theory", "--K", "1,2,4,8", "--H", "1,4,16", "--eps", "0.001", "--rho", "25"])
    run_caller("localsgd fstar", cli, ["fstar", str(SYNTH50)])
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in benchmark["workloads"]:
        run_caller(f"benchmark {workload['name']}", run_script, ROOT / "benchmarks" / "run.py",
                   "--workload", workload["name"], "--seed", "4242", "--seconds", "1",
                   "--trace", "0")
    sys.settrace(None)
    report(executed)


if __name__ == "__main__":
    main()
