#!/usr/bin/env python3
"""Local SGD on a synthetic strongly convex quadratic.

Runs K parallel workers that average their iterates every H steps and
compares the suboptimality of the weighted output average against the
closed-form bound, for a few worker counts.  The punchline is the linear
speedup: doubling K roughly halves the error at a fixed step budget while
communication happens only every H steps.
"""

import math

import numpy as np

from localsgd import (
    ProblemConstants,
    RecordFlags,
    RunConfig,
    make_quadratic,
    regular_sync_schedule,
    run_local_sgd_ensemble,
    theorem1_bound,
    theorem_steps,
)

objective, reference, constants = make_quadratic(
    d=10, mu=1.0, L=4.0, n=64, noise=1.0, seed=7
)
print(f"quadratic fixture: d={objective.d}, kappa={constants.kappa}, "
      f"sigma^2={constants.sigma_sq}, f* = {reference.f_star:.6f}")

T = 4000
H = int(math.isqrt(T // 8))
r0 = float(reference.x_star @ reference.x_star)
seeds = list(range(50))

print(f"\nT={T}, H={H}, averaging every H steps, {len(seeds)} seeds per row")
print(f"{'K':>3} {'mean f-gap':>12} {'bound':>12} {'gap*K':>12}")
for K in (1, 2, 4, 8):
    steps = theorem_steps((constants.mu, constants.L), H)
    config = RunConfig(
        K=K, T=T, b=1, sync=regular_sync_schedule(T, H), steps=steps, seed=0,
        x0=np.zeros(objective.d),
        record=RecordFlags(virtual=False, f_values=False),
    )
    result = run_local_sgd_ensemble(config, objective, seeds,
                                    track_second_moment=True)
    gap = float(np.mean(result.f_output - reference.f_star))
    measured = ProblemConstants(
        L=constants.L, mu=constants.mu, sigma_sq=constants.sigma_sq,
        G_sq=result.max_second_moment,
    )
    bound = theorem1_bound(measured, K, T, H, 1, steps.a, r0)
    print(f"{K:>3} {gap:>12.3e} {bound:>12.3e} {gap * K:>12.3e}")

print("\ngap*K is roughly constant: K workers are K times as fast, while")
print(f"synchronizing only every {H} steps.")
