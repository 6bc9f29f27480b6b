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
steps, b = 1 and n = 64, best of 3.  A run of both tables takes about
half a minute on one core.
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

SYNTH50 = Path(__file__).resolve().parent.parent / "tests" / "data" / "synth50.libsvm"
T, H, REPEATS = 2000, 4, 2
KS, SS = (1, 4), (1, 16, 64, 256)
DRAW_SS, DRAW_KS, DRAW_TS, DRAW_N, DRAW_REPEATS = (1, 100, 1000), (1, 4, 8), (64, 1000), 64, 3


def objectives():
    with open(SYNTH50, "r", encoding="utf-8") as fh:
        synth50 = LogisticObjective(parse_libsvm(fh))
    quad10 = make_quadratic(d=10, mu=1.0, L=4.0, n=64, noise=1.0, seed=7)[0]
    return {"quad10": quad10, "synth50": synth50}


def us_per_step(objective, K, S, track):
    runs = [RunConfig(K=K, T=T, b=1, sync=regular_sync_schedule(T, H),
                      steps=theorem_steps(objective.curvature(), H), seed=seed,
                      x0=np.zeros(objective.d), record=RecordFlags(virtual=False, f_values=False))
            for seed in range(S)]
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _simulate(runs, objective, track_second_moment=track)
        best = min(best, time.perf_counter() - start)
    return round(best / T * 1e6, 2)


def us_per_stream(S, K, T):
    best = float("inf")
    for _ in range(DRAW_REPEATS):
        start = time.perf_counter()
        for _chunk in _index_chunks(list(range(S)), K, DRAW_N, 1, T):
            pass
        best = min(best, time.perf_counter() - start)
    return round(best / (S * K) * 1e6, 2)


def main():
    rows = [{"objective": name, "K": K, "S": S,
             "us_per_step": us_per_step(objective, K, S, False),
             "us_per_step_tracked": us_per_step(objective, K, S, True)}
            for name, objective in objectives().items() for K in KS for S in SS]
    setting = {"T": T, "H": H, "b": 1, "steps": "theorem_steps(curvature, H)",
               "record": "RecordFlags(virtual=False, f_values=False)", "best_of": REPEATS}
    machine = {"python": platform.python_version(), "numpy": np.__version__,
               "processor": platform.processor() or platform.machine()}
    draws = [{"S": S, "K": K, "T": T, "us_per_stream": us_per_stream(S, K, T)}
             for S in DRAW_SS for K in DRAW_KS for T in DRAW_TS]
    setting["draws"] = {"n": DRAW_N, "b": 1, "seeds": "range(S)", "best_of": DRAW_REPEATS}
    json.dump({"setting": setting, "machine": machine, "rows": rows, "draws": draws},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
