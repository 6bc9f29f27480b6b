"""Self-tests of the benchmark, kept out of the package's test suite.

    python3 -m pytest benchmarks/test_benchmark.py -q

They check that the w8a-shaped generator is deterministic and parses to the
stated shape, that the per-layer metric names match BENCHMARK.json, and
that outputs corrupted on purpose are counted as failed checks, so a zero
failure count is not vacuous.
"""

import csv
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402  (pins the thread environment like a benchmark run)
import w8a_shaped  # noqa: E402
from layers import layer_metrics  # noqa: E402
from localsgd.data import parse_libsvm  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import LemmasEngines, SweepSynth50, Workload  # noqa: E402


def test_generator_is_deterministic_and_has_the_w8a_shape():
    text = w8a_shaped.render(*w8a_shaped.generate_rows(3))
    assert text == w8a_shaped.render(*w8a_shaped.generate_rows(3))
    assert text != w8a_shaped.render(*w8a_shaped.generate_rows(4))

    dataset = parse_libsvm(text.splitlines())
    assert (dataset.n, dataset.d) == (49_749, 300)
    assert set(dataset.features.data) == {1.0}
    assert abs(dataset.features.nnz / dataset.n - 11.7) < 0.2
    assert 0.025 < float((dataset.labels > 0).mean()) < 0.035
    counts = sorted(dataset.features.getnnz(axis=0), reverse=True)
    assert counts[0] > 20 * counts[-1], "feature frequencies should be skewed"


def test_per_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = layer_metrics(Workload(ROOT, 0, ROOT), Tracer(), Tracer(), [], 1)
    reported = {name: unit for name, (_value, unit) in reported.items()}
    reported["trace.overhead_s"] = "s"
    assert reported == declared


def test_a_raising_check_counts_as_one_failure():
    def broken():
        raise ValueError("unreadable output")

    assert run.run_checks(broken) == [
        ("broken raised ValueError: unreadable output", False)]


@pytest.fixture
def sweep(tmp_path):
    workload = SweepSynth50(ROOT, 1, tmp_path)
    workload.prepare()
    state = workload.setup()
    return workload, state, workload.unit(state, 0)


def _failed(checks):
    return [name for name, ok in checks if not ok]


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def test_sweep_t_star_off_by_one_is_a_failed_check(sweep):
    workload, state, output = sweep
    assert _failed(run.run_checks(workload.check, state, output)) == []

    def bump(rows):
        column = rows[0].index("iterations")
        rows[1][column] = str(int(rows[1][column]) + 1)

    _rewrite_csv(output[2] / "results.csv", bump)
    assert _failed(run.run_checks(workload.check, state, output)) == ["results row 0"]


def test_sweep_wrong_theory_value_is_a_failed_check(sweep):
    workload, state, output = sweep

    def skew(rows):
        rows[1][-1] = repr(float(rows[1][-1]) + 1e-9)

    _rewrite_csv(output[2] / "speedup_theory.csv", skew)
    assert len(_failed(run.run_checks(workload.check, state, output))) == 1


def test_sweep_nonzero_exit_code_is_a_failed_check(sweep):
    workload, state, (part, _code, out) = sweep
    assert _failed(run.run_checks(workload.check, state, (part, 2, out))) == ["exit code 0"]


def test_failed_lemma_is_a_failed_check(tmp_path):
    workload = LemmasEngines(ROOT, 1, tmp_path)
    workload.prepare()
    state = workload.setup()
    output = workload.unit(state, 0)
    assert _failed(run.run_checks(workload.check, state, output)) == []

    def fail_async(rows):
        for row in rows[1:]:
            if row[0] == "async-deviation":
                row[-1] = "0"

    _rewrite_csv(output[2] / "lemma_checks.csv", fail_async)
    assert _failed(run.run_checks(workload.check, state, output)) == ["async-deviation"]
