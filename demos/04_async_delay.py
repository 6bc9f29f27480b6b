#!/usr/bin/env python3
"""Asynchronous local SGD: delayed writes and load balancing.

Shows three things: (i) with zero delay and aligned schedules the
asynchronous engine reproduces the synchronous run, (ii) bounded write
delays leave a measurable but bounded staleness in the write log, and
(iii) a fast worker can advance a slow worker's sequence in H-step blocks,
with a certified staleness bound.
"""

import numpy as np

from localsgd import (
    DelayModel,
    RunConfig,
    load_balanced_assignment,
    make_quadratic,
    measured_delay,
    regular_sync_schedule,
    run_async_local_sgd,
    run_load_balanced,
    run_local_sgd,
    theorem_steps,
)

objective, reference, constants = make_quadratic(
    d=10, mu=1.0, L=4.0, n=64, noise=1.0, seed=7
)
K, T, H = 4, 48, 4


def config(window, seed=3):
    return RunConfig(
        K=K, T=T, b=1, sync=regular_sync_schedule(T, H),
        steps=theorem_steps((constants.mu, constants.L), window),
        seed=seed, x0=np.zeros(objective.d),
    )


# (i) degeneration to the synchronous run
cfg = config(H)
sync_trace = run_local_sgd(cfg, objective)
async_trace, log = run_async_local_sgd(cfg, [cfg.sync] * K, DelayModel("zero"), objective)
gap = np.max(np.abs(async_trace.xbar - sync_trace.xbar))
print(f"zero delay, aligned schedules: max |async - sync| = {gap:.2e}, "
      f"measured staleness = {measured_delay(log)}")

# (ii) bounded delays
for delay in (DelayModel("fixed", tau=3), DelayModel("random-bounded", tau=6, seed=11)):
    cfg = config(H + delay.tau)
    trace, log = run_async_local_sgd(cfg, [cfg.sync] * K, delay, objective)
    final_gap = objective.value(trace.xbar[-1]) - reference.f_star
    print(f"{delay.kind}(tau={delay.tau}): measured staleness = "
          f"{measured_delay(log)}, final virtual f-gap = {final_gap:.2e}")

# (iii) load balancing across heterogeneous workers
for speeds in ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0)):
    plan = load_balanced_assignment(speeds, H=H, n_blocks=6)
    owners = {}
    for seq, block, worker, _start, _end in plan.entries:
        owners.setdefault(seq, []).append(worker)
    print(f"\nspeeds {speeds}: staleness bound {plan.bound} (= {plan.bound // H}H), "
          f"identity={all(seq == worker for seq, _b, worker, _s, _e in plan.entries)}")
    for seq, workers in sorted(owners.items()):
        print(f"  sequence {seq} computed by workers {workers}")

cfg2 = RunConfig(
    K=2, T=24, b=1, sync=regular_sync_schedule(24, H),
    steps=theorem_steps((constants.mu, constants.L), 3 * H),
    seed=5, x0=np.zeros(objective.d),
)
trace, log, plan = run_load_balanced(cfg2, [2.0, 1.0], objective)
print(f"\nreplayed (2,1) plan: realized staleness {measured_delay(log)} "
      f"<= bound {plan.bound} <= 3H = {3 * H}")
