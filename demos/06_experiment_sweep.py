#!/usr/bin/env python3
"""Full experiment pipeline on the bundled logistic fixture.

Grid-searches the stepsize families for every (eps, K, H, b) cell,
measures iterations-to-accuracy (first of the four tracked averages to
reach the target), prices communication at rho=25, and writes
results.csv / speedup_theory.csv / speedup.svg.  This is the scaled-down
version of the w8a experiment (see w8a_speedup.ini next to this script).
"""

from pathlib import Path

from localsgd.harness import DatasetSpec, ExperimentConfig, run_experiment

HERE = Path(__file__).resolve().parent
FIXTURE = HERE.parent / "tests" / "data" / "synth50.libsvm"
OUT = HERE / "out" / "logistic_sweep"

config = ExperimentConfig(
    dataset=DatasetSpec(kind="libsvm", path=str(FIXTURE)),
    eps_list=[0.02],
    K_list=[1, 2, 4],
    H_list=[1, 2, 4, 8, 16],
    b_list=[1],
    rho=25.0,
    seed=3,
    epoch_cap=60,
    i_min=-8,
    i_max=4,
    out_dir=str(OUT),
    svg=True,
)

rows, exit_code = run_experiment(config)
print(f"sweep finished (exit code {exit_code}); outputs in {OUT}\n")

print(f"{'K':>3} {'H':>3} {'steps':>6} {'family':>10} {'c':>10} "
      f"{'rounds':>7} {'speedup':>8}")
for row in rows:
    print(f"{row.K:>3} {row.H:>3} {row.iterations:>6} {row.family:>10} "
          f"{row.c:>10.5f} {row.comm_rounds:>7} {row.speedup:>8.3f}")

print("\nwith communication 25x as expensive as a gradient step, the")
print("communication-heavy H=1 columns lose badly once K > 1.")
