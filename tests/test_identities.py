"""The engine's identities on seeded random configurations.

Every engine runs on one time-step loop, `sync._simulate`, so these
identities guard it: row r of a batch is its one-seed run, bitwise; a
screened run stops where a recorded one does; zero-delay async follows
sync; and every-step sync is mini-batch SGD with batch K*b.
"""

from dataclasses import replace

import numpy as np
import pytest

from localsgd import (
    DelayModel,
    LogisticObjective,
    regular_sync_schedule,
    run_async_local_sgd,
    run_local_sgd,
    run_local_sgd_ensemble,
    run_minibatch_sgd,
)
from localsgd.asynchronous import run_async_ensemble
from localsgd.averaging import SCHEMES
from localsgd.harness import reference_for
from localsgd.sync import _simulate
from oracles import random_cases, recorded_steps

CASES = 100
ROWS = ("xbar", "deviations", "noise_sq", "iterates", "output_average", "final_iterates",
        "final_aggregate")


def same_run(batch, r, single):
    """Whether row r of an EnsembleResult is the RunTrace `single`, bitwise."""
    for name in ROWS:
        rows, row = getattr(batch, name), getattr(single, name)
        if (rows is None) != (row is None):
            return False
        if row is not None and (rows[r].shape != row.shape or rows[r].tobytes() != row.tobytes()):
            return False
    if batch.diverged[r] != single.diverged:
        return False
    if batch.crossed[r] != (-1 if single.t_star is None else single.t_star):
        return False
    # the f values end where each loop did; the batch's row reads NaN after
    evals = len(single.eval_steps)
    if not np.array_equal(batch.eval_steps[:evals], single.eval_steps):
        return False
    if (batch.f_by_scheme is None) != (single.f_by_scheme is None):
        return False
    return single.f_by_scheme is None or all(
        batch.f_by_scheme[kind][r, :evals].tobytes() == single.f_by_scheme[kind].tobytes()
        and np.isnan(batch.f_by_scheme[kind][r, evals:]).all() for kind in SCHEMES)


def within(got, want):
    """Whether two arrays (steps, ...) agree to 1e-12 max(1, |x|) at each
    step, NaN where both are; |x| is the largest |coordinate| of `want`
    at that step."""
    scale = np.fmax(1.0, np.fmax.reduce(np.abs(want).reshape(len(want), -1), axis=1))
    scale = scale.reshape((-1,) + (1,) * (want.ndim - 1))
    both = np.isnan(got) & np.isnan(want)
    return bool(np.all(both | (np.abs(got - want) <= 1e-12 * scale)))


def failed_identities(case, objective):
    """The identities that `case`, one of `random_cases`, breaks.

    Each batch is compared with the one-seed run of the case's row.
    """
    config, seeds, schedules, r = case["config"], case["seeds"], case["schedules"], case["row"]
    delay, target, K = case["delay"], case["target"], config.K
    seeded = replace(config, seed=seeds[r])
    syncs = [config.sync] * K
    failed = []

    # 1. row r of a sync or async batch is its one-seed run
    if not same_run(run_local_sgd_ensemble(config, objective, seeds), r,
                    run_local_sgd(seeded, objective)):
        failed.append("sync batch row")
    if not same_run(run_async_ensemble(config, syncs, delay, objective, seeds), r,
                    run_async_local_sgd(seeded, syncs, delay, objective)[0]):
        failed.append("async batch row")

    # 1 and 3. a target batch with a schedule per run: row r, with its
    # crossing step, is the single run
    batch = _simulate(config, objective, seeds, steps=schedules, target=target)
    if not same_run(batch, r, run_local_sgd(replace(seeded, steps=schedules[r]), objective,
                                            stop_when=target)):
        failed.append("target batch row")

    # 2. a screened t* is the t* with every value recorded: the same batch,
    # screened if it recorded the f values and recorded if it did not
    flipped = replace(config.record, f_values=not config.record.f_values)
    other = _simulate(replace(config, record=flipped), objective, seeds, steps=schedules,
                      target=target)
    if not np.array_equal(other.crossed, batch.crossed):
        failed.append("screened t*")

    # 4. zero-delay async follows sync.  This and 5 add the same terms in
    # another order, so they agree to rounding of the iterates' size at each
    # step; an expanding stepsize takes quad10 iterates as far as 1e98
    virtual = replace(config, record=replace(config.record, virtual=True))
    sync = run_local_sgd(virtual, objective)
    zero, _ = run_async_local_sgd(virtual, syncs, DelayModel("zero"), objective)
    if not (within(zero.xbar, sync.xbar) and zero.diverged == sync.diverged
            and within(zero.final_iterates[None], sync.final_iterates[None])):
        failed.append("zero-delay async")

    # 5. every-step sync is mini-batch SGD with batch K*b, up to where it froze
    every = replace(virtual, sync=regular_sync_schedule(config.T, 1))
    trace = run_local_sgd(every, objective)
    steps = recorded_steps(trace.xbar)
    if not within(trace.xbar[:steps], run_minibatch_sgd(every, objective)[:steps]):
        failed.append("H=1 mini-batch")
    return failed


@pytest.fixture(scope="module")
def objectives(quad10, synth50):
    logistic = LogisticObjective(synth50)
    return {"quad10": (quad10[0], quad10[1].f_star),
            "synth50": (logistic, reference_for(logistic).f_star)}


def test_random_configurations_keep_the_engine_identities(objectives):
    # a failure is a finding about the engine: report the case, do not
    # narrow the generator's ranges
    failures = []
    for i, case in enumerate(random_cases(objectives, CASES)):
        with np.errstate(over="ignore", invalid="ignore"):
            failed = failed_identities(case, objectives[case["name"]][0])
        if failed:
            failures.append((i, failed, case))
    assert not failures, failures[:3]
