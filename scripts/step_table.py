#!/usr/bin/env python3
"""Print the per-step cost of the engine loop as a JSON table.

    PYTHONPATH=src python3 scripts/step_table.py > table.json

Each cell runs `sync._simulate` on a batch of S runs, seeds 0 to S-1, of
K workers for T = 2000 steps with sync period H = 4, b = 1, the theorem
schedule and nothing recorded, and reports the best of 2 wall times
divided by T, in µs per step: once as is and once with
`track_second_moment`.  The objectives are quad10 (d = 10, kappa = 4,
n = 64, unit noise) and synth50, the logistic fixture under tests/data.
The `draws` table times `sync._index_chunks` alone, the index draw of
every (run, worker) substream, in µs per stream: S seeds, K workers, T
steps, b = 1 and n = 64, best of 3.  Its last rows sit at the routing
boundary of `sync._SPAWNED_STREAMS`: 8 and 9 streams, and 9 streams
whose last seed is 2^130, which numpy's spawned generators draw.

Every cell is timed together with benchmarks/probe.py's fixed speed
probe, run right before and after each timed call, as benchmarks/run.py
does; beside its raw µs, a cell reports reference µs, the best wall time
divided by the mean probe time around it, times the probe's reference
time `REFERENCE_S`.  Those drift far less than raw walls on a shared
host.  A run of both tables takes about two minutes on one core.
"""

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from localsgd import (LogisticObjective, RecordFlags, RunConfig, make_quadratic, parse_libsvm,
                      regular_sync_schedule, theorem_steps)
from localsgd.sync import _index_chunks, _simulate

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from probe import REFERENCE_S, probe  # noqa: E402

SYNTH50 = ROOT / "tests" / "data" / "synth50.libsvm"
T, H, REPEATS = 2000, 4, 2
KS, SS = (1, 4, 8, 16), (1, 16, 64, 256)
DRAW_SS, DRAW_KS, DRAW_TS, DRAW_N, DRAW_REPEATS = (1, 100, 1000), (1, 4, 8), (64, 1000), 64, 3
# (label, seeds, K) of the draws rows past the grid: S*K = 8 and 9, and a
# 9-stream batch that holds a seed of 2^130
DRAW_BOUNDARY = [("range(S)", list(range(S)), K) for S, K in ((1, 8), (8, 1), (1, 9), (9, 1))]
DRAW_BOUNDARY.append(("range(8) + [2**130]", list(range(8)) + [2**130], 1))


def probed_best(fn, repeats):
    """(raw, reference) seconds of the best of `repeats` calls of fn: its
    best wall time, and its best wall time over the mean probe time around
    the call, times `REFERENCE_S`."""
    walls, ratios = [], []
    before = probe()
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        wall = time.perf_counter() - start
        after = probe()
        walls.append(wall)
        ratios.append(wall / ((before + after) / 2))
        before = after
    return min(walls), min(ratios) * REFERENCE_S


def objectives():
    with open(SYNTH50, "r", encoding="utf-8") as fh:
        synth50 = LogisticObjective(parse_libsvm(fh))
    quad10 = make_quadratic(d=10, mu=1.0, L=4.0, n=64, noise=1.0, seed=7)[0]
    return {"quad10": quad10, "synth50": synth50}


def us_per_step(objective, K, S, track):
    """(raw, reference) µs per step of one step-table cell."""
    runs = [RunConfig(K=K, T=T, b=1, sync=regular_sync_schedule(T, H),
                      steps=theorem_steps(objective.curvature(), H), seed=seed,
                      x0=np.zeros(objective.d), record=RecordFlags(virtual=False, f_values=False))
            for seed in range(S)]
    seconds = probed_best(lambda: _simulate(runs, objective, track_second_moment=track), REPEATS)
    return [round(s / T * 1e6, 2) for s in seconds]


def us_per_stream(seeds, K, T):
    """(raw, reference) µs per (run, worker) stream of one draws-table cell."""
    def draw():
        for _chunk in _index_chunks(seeds, K, DRAW_N, 1, T):
            pass

    return [round(s / (len(seeds) * K) * 1e6, 2) for s in probed_best(draw, DRAW_REPEATS)]


def draws_table():
    """The draws rows: the S x K x T grid on seeds range(S), then `DRAW_BOUNDARY`."""
    batches = [("range(S)", list(range(S)), K) for S in DRAW_SS for K in DRAW_KS]
    rows = []
    for label, seeds, K in batches + DRAW_BOUNDARY:
        for T in DRAW_TS:
            raw, ref = us_per_stream(seeds, K, T)
            rows.append({"S": len(seeds), "K": K, "T": T, "seeds": label,
                         "us_per_stream": raw, "ref_us_per_stream": ref})
    return rows


def main():
    rows = []
    for name, objective in objectives().items():
        for K in KS:
            for S in SS:
                raw, ref = us_per_step(objective, K, S, False)
                raw_tracked, ref_tracked = us_per_step(objective, K, S, True)
                rows.append({"objective": name, "K": K, "S": S,
                             "us_per_step": raw, "ref_us_per_step": ref,
                             "us_per_step_tracked": raw_tracked,
                             "ref_us_per_step_tracked": ref_tracked})
    setting = {"T": T, "H": H, "b": 1, "steps": "theorem_steps(curvature, H)",
               "record": "RecordFlags(virtual=False, f_values=False)", "best_of": REPEATS,
               "probe_reference_s": REFERENCE_S}
    machine = {"python": platform.python_version(), "numpy": np.__version__,
               "processor": platform.processor() or platform.machine()}
    draws = draws_table()
    setting["draws"] = {"n": DRAW_N, "b": 1, "best_of": DRAW_REPEATS}
    json.dump({"setting": setting, "machine": machine, "rows": rows, "draws": draws},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
