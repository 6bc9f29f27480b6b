#!/usr/bin/env python3
"""Layered benchmark of localsgd, run from the root of a checkout.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): sweep-synth50,
lemmas-engines, scale-w8a-shaped.  Every run is
single-process with LOCALSGD_THREADS and the BLAS/OpenMP thread counts
pinned to 1.

A run makes the workload's inputs from the seed, sets up (parse, objective,
reference solve) `setup_repeats` times, then runs the workload's parts in
turn, round after round, until S seconds have passed (at least three
rounds), and checks every part's outputs.  A set-up cheaper than
CHEAP_SETUP_S is also repeated before every round.

Every set-up and every part is timed together with a fixed speed probe
run right before and after it (probe.py), and reported in reference
seconds: wall time divided by the probe's time, times the probe's time on
the reference host.  On a shared host whose speed changes by up to 2x
from minute to minute, this keeps two runs comparable; the raw wall and
probe times are kept in the record file.

--trace 0 reports the end-to-end metrics, timed with tracing off:

    setup_s       median reference seconds of one set-up
    run_s         reference seconds of one round: the sum over parts of
                  each part's median over the run's rounds
    peak_rss_mb   peak resident memory of the process

--trace 1 sets up once with tracing on, runs rounds untraced and then
traced for S/2 seconds each, and reports the per-layer metrics.  data.*,
harness.reference_s and objectives.gradient.calls describe the traced
set-up (in wall seconds); every other per-layer metric is per traced
round, and trace.overhead_s is the traced minus the untraced run_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed (output checks made and failed; a check that raises
counts as failed) and metrics.  failed_ratio, failed over attempted, is
printed and recorded but is not a metric, since it is 0 on a correct
program.  A fuller record with machine info, every
check, every timing and sha256 digests of the written outputs goes to
.bench_out/, and with --trace 1 the spans go there too.
"""

import os

PINNED_ENV = {
    "LOCALSGD_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import REFERENCE_S, probe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_ROUNDS = 3
CHEAP_SETUP_S = 0.1


def load_package():
    """Put the checkout's src/ first on the path; fail without it."""
    init = ROOT / "src" / "localsgd" / "__init__.py"
    if not init.is_file():
        print(f"error: {init.relative_to(ROOT)} not found; run the benchmark "
              "from the root of a localsgd checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import localsgd

    if Path(localsgd.__file__).resolve() != init.resolve():
        print(f"error: imported localsgd from {localsgd.__file__}, not {init}",
              file=sys.stderr)
        sys.exit(2)


def machine_info(seed):
    import numpy
    import scipy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def cache(index):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        try:
            return path.read_text(encoding="utf-8").strip()
        except OSError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pinned_env": {key: os.environ.get(key) for key in PINNED_ENV},
        "seed": seed,
    }


def run_checks(fn, *args):
    """[(name, passed)] from one check call; a raising check fails once."""
    try:
        return [(str(name), bool(ok)) for name, ok in fn(*args)]
    except Exception as exc:  # the benchmark reports, it does not crash
        return [(f"{fn.__name__} raised {type(exc).__name__}: {exc}", False)]


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


class ProbedClock:
    """Times calls together with the speed probe run right around them."""

    def __init__(self):
        self._last = probe()

    def timed(self, fn, *args):
        """(wall seconds, mean probe seconds around the call, result)."""
        before = self._last
        elapsed, result = timed(fn, *args)
        self._last = probe()
        return elapsed, (before + self._last) / 2, result


def reference_seconds(samples):
    """Median of wall/probe over (wall, probe) samples, in reference seconds."""
    return statistics.median(wall / probe_s for wall, probe_s in samples) * REFERENCE_S


def run_rounds(workload, state, seconds, clock, between_rounds=None):
    """Run the workload's parts in turn until `seconds` passed.

    Returns per-part (wall, probe) samples (one list per part, one entry
    per round), every output, and the number of rounds (at least
    MIN_ROUNDS).
    """
    samples = [[] for _ in range(workload.parts)]
    outputs = []
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if between_rounds is not None:
            between_rounds()
        for part in range(workload.parts):
            elapsed, probe_s, output = clock.timed(workload.unit, state, part)
            samples[part].append((elapsed, probe_s))
            outputs.append(output)
        rounds += 1
    return samples, outputs, rounds


def round_seconds(samples):
    """Reference seconds of one round: the sum over its parts."""
    return sum(reference_seconds(part_samples) for part_samples in samples)


def untraced_run(workload, seconds):
    clock = ProbedClock()
    setup_samples = []

    def set_up():
        for _ in range(workload.setup_repeats):
            elapsed, probe_s, state = clock.timed(workload.setup)
            setup_samples.append((elapsed, probe_s))
        return state

    state = set_up()
    # A cheap set-up is repeated before every round as well, so that its
    # median, like run_s, is taken over the whole run.
    cheap = max(wall for wall, _probe_s in setup_samples) < CHEAP_SETUP_S
    part_samples, outputs, _rounds = run_rounds(
        workload, state, seconds, clock, between_rounds=set_up if cheap else None)
    metrics = {
        "setup_s": (reference_seconds(setup_samples), "s"),
        "run_s": (round_seconds(part_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    timings = {"setup_wall_probe_s": setup_samples, "part_wall_probe_s": part_samples}
    return state, outputs, metrics, timings, None


def traced_run(workload, seconds):
    from layers import layer_metrics
    from tracing import Tracer

    clock = ProbedClock()
    setup_tracer = Tracer()
    with setup_tracer.installed():
        setup_time, _probe_s, state = clock.timed(workload.setup)
    plain, plain_outputs, _rounds = run_rounds(workload, state, seconds / 2, clock)
    unit_tracer = Tracer()
    with unit_tracer.installed():
        traced, traced_outputs, rounds = run_rounds(workload, state, seconds / 2, clock)
    metrics = layer_metrics(workload, setup_tracer, unit_tracer, traced_outputs, rounds)
    metrics["trace.overhead_s"] = (round_seconds(traced) - round_seconds(plain), "s")
    timings = {"setup_wall_s": setup_time, "part_wall_probe_s": plain,
               "traced_part_wall_probe_s": traced}
    return state, plain_outputs + traced_outputs, metrics, timings, (setup_tracer, unit_tracer)


def main(argv=None):
    load_package()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="localsgd layered benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        workload.prepare()
        measure = traced_run if args.trace else untraced_run
        state, outputs, metrics, timings, tracers = measure(workload, args.seconds)
        checks = run_checks(workload.check_setup, state)
        for output in outputs:
            checks += run_checks(workload.check, state, output)
        digests = {}
        digests_agree = True
        for output in outputs:
            for name, digest in workload.digests(output).items():
                digests_agree &= digests.setdefault(name, digest) == digest
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for _name, ok in checks if not ok)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracers is not None:
        tracers[0].write_spans(out_dir / f"{stem}.setup-spans.json")
        tracers[1].write_spans(out_dir / f"{stem}.unit-spans.json")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "timings": timings,
        "failed_ratio": failed / len(checks) if checks else 1.0,
        "checks": [{"name": name, "passed": ok} for name, ok in checks],
        "digests": digests,
        "digests_agree_across_rounds": digests_agree,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {record['failed_ratio']:.6g} ({failed} of {len(checks)} checks)")
    for name, ok in checks:
        if not ok:
            print(f"FAILED check: {name}")
    print(f"machine: {json.dumps(record['machine'])}")
    print(json.dumps({
        "correct": failed == 0 and len(checks) > 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
