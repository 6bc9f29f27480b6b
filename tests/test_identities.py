"""The engine's identities on seeded random configurations.

Every engine runs on one time-step loop, `sync._simulate`, so these
identities guard it: row r of a batch is its one-seed run, bitwise, also
with a stepsize schedule and a sync period per run; a screened run stops
where a recorded one does; zero-delay async follows sync; and every-step
sync is mini-batch SGD with batch K*b.
"""

from dataclasses import fields, replace

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
from localsgd.sync import RunTrace, _simulate
from oracles import random_cases, recorded_steps

CASES = 100
# every per-run array of a RunTrace; the batch shares its eval_steps, compared on their own
ROWS = tuple(f.name for f in fields(RunTrace)
             if "np.ndarray" in f.type and f.name != "eval_steps")


def same_run(batch, r, single, per_run_periods=False):
    """Whether row r of an EnsembleResult is the RunTrace `single`, bitwise.

    With `per_run_periods`, the batch's eval_steps are the steps at which
    any of its runs evaluated, so they need only hold the single run's.
    """
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
    if per_run_periods:
        if not np.isin(single.eval_steps, batch.eval_steps).all():
            return False
    elif not np.array_equal(batch.eval_steps[:evals], single.eval_steps):
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
    runs = [replace(config, seed=seed, steps=s) for seed, s in zip(seeds, schedules)]
    batch = _simulate(runs, objective, target=target)
    if not same_run(batch, r, run_local_sgd(runs[r], objective, stop_when=target)):
        failed.append("target batch row")

    # 2. a screened t* is the t* with every value recorded: the same batch,
    # screened if it recorded the f values and recorded if it did not
    flipped = replace(config.record, f_values=not config.record.f_values)
    other = _simulate([replace(run, record=flipped) for run in runs], objective, target=target)
    if not np.array_equal(other.crossed, batch.crossed):
        failed.append("screened t*")

    # 1 and 3. a batch without recorded f values, with a schedule and a
    # sync period per run: row r, with its crossing step, final iterates
    # and output average (with no target), is its one-seed run under its
    # own schedules
    unrecorded = replace(config.record, f_values=False)
    periodic = [replace(run, record=unrecorded, sync=sync)
                for run, sync in zip(runs, case["syncs"])]
    for goal in (target, None):
        mixed = _simulate(periodic, objective, target=goal)
        if not same_run(mixed, r, run_local_sgd(periodic[r], objective, stop_when=goal),
                        per_run_periods=True):
            failed.append("per-run period row" if goal is None else "per-run period target row")

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
