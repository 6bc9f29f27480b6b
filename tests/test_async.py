import re
from dataclasses import replace

import numpy as np
import pytest

from localsgd import (
    ConstantStep,
    DelayModel,
    LogisticObjective,
    RecordFlags,
    RunConfig,
    ShiftedQuadraticAverage,
    TheoremDecayStep,
    WriteLog,
    load_balanced_assignment,
    measured_delay,
    regular_sync_schedule,
    run_async_local_sgd,
    run_local_sgd,
    run_load_balanced,
    theorem1_bound,
    theorem_steps,
)
from localsgd import sync
from localsgd.asynchronous import (Read, Write, _replayed, _Replay, run_async_ensemble,
                                   write_plan)
from localsgd.averaging import SCHEMES
from localsgd.lemmas import check_async_deviation
from localsgd.sync import _index_chunks, _simulate, run_local_sgd_ensemble
from oracles import (GradientCounter, ThresholdQuadratic, assignment_bound, assignment_entries,
                     recorded_steps)


def async_config(quad10, K, T, H, window, seed=0, b=1):
    obj, ref, const = quad10
    return RunConfig(K=K, T=T, b=b, sync=regular_sync_schedule(T, H),
                     steps=theorem_steps((const.mu, const.L), window),
                     seed=seed, x0=np.zeros(obj.d), record=RecordFlags(deviations=True))


def test_zero_delay_aligned_matches_synchronous(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=4, T=60, H=5, window=5, seed=31)
    schedules = [config.sync] * 4
    sync_trace = run_local_sgd(
        RunConfig(**{**config.__dict__, "record": RecordFlags(iterates=True)}), obj
    )
    async_trace, log = run_async_local_sgd(config, schedules, DelayModel("zero"), obj)
    assert np.max(np.abs(async_trace.xbar - sync_trace.xbar)) <= 1e-12
    assert np.max(np.abs(async_trace.final_iterates - sync_trace.final_iterates)) <= 1e-12
    assert measured_delay(log) == 0


def test_single_worker_is_serial_sgd_exactly(quad10):
    obj, _, _ = quad10
    for delay in (DelayModel("zero"), DelayModel("fixed", tau=7),
                  DelayModel("random-bounded", tau=4, seed=5)):
        config = async_config(quad10, K=1, T=40, H=4, window=4 + delay.tau, seed=17)
        serial = run_local_sgd(config, obj)
        trace, _ = run_async_local_sgd(config, [config.sync], delay, obj)
        assert np.array_equal(trace.final_iterates[0], serial.final_iterates[0])
        assert np.array_equal(trace.xbar, serial.xbar)
        assert np.all(trace.deviations == 0.0)


def test_fixed_delay_staleness_bounded(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=3, T=48, H=4, window=9, seed=2)
    schedules = [config.sync] * 3
    trace, log = run_async_local_sgd(config, schedules, DelayModel("fixed", tau=5), obj)
    assert measured_delay(log) == 5
    trace, log = run_async_local_sgd(
        config, schedules, DelayModel("random-bounded", tau=5, seed=3), obj
    )
    assert measured_delay(log) <= 5


def visible_ids(read):
    """Ids of every write `read` sees, ascending."""
    return tuple(range(read.prefix)) + read.extras


def pair_scan_delay(log):
    """The realized staleness of `log` by an exhaustive scan over (read, write) pairs."""
    worst = 0
    for r in log.reads:
        for i, w in enumerate(log.writes):
            if w.worker == r.worker or w.step > r.step or i in visible_ids(r):
                continue
            worst = max(worst, r.step - w.step + 1)
    return worst


def test_measured_delay_hand_built_log():
    # one write lands two steps late
    log = WriteLog()
    log.writes.append(Write(worker=0, step=2, wall=2.0, lag=2))
    log.writes.append(Write(worker=1, step=2, wall=2.0, lag=0))
    log.writes.append(Write(worker=1, step=4, wall=4.0, lag=0))
    log.reads.append(Read(worker=1, step=2, prefix=0, extras=(1,)))
    log.reads.append(Read(worker=0, step=2, prefix=2, extras=()))
    log.reads.append(Read(worker=1, step=3, prefix=0, extras=(1,)))
    log.reads.append(Read(worker=0, step=4, prefix=3, extras=()))
    assert measured_delay(log) == pair_scan_delay(log) == 2
    # a log without reads has no delay to measure
    log.reads.clear()
    with pytest.raises(ValueError, match="^write log has no recorded reads$"):
        measured_delay(log)


@pytest.mark.parametrize("K, per_worker_H, delay, speeds", [
    (3, (4,), DelayModel("fixed", tau=5), None),
    (4, (2,), DelayModel("fixed", tau=7), None),
    (3, (4,), DelayModel("random-bounded", tau=6, seed=11), None),
    (4, (1,), DelayModel("random-bounded", tau=9, seed=3), None),
    (3, (2, 5, 3), DelayModel("fixed", tau=3), None),
    (4, (6, 1), DelayModel("random-bounded", tau=4, seed=8), None),
    (2, (4,), DelayModel("zero"), (2.0, 1.0)),
    (3, (4,), DelayModel("zero"), (3.0, 1.0, 1.5)),
    (4, (2,), DelayModel("zero"), (0.5, 2.0, 1.0, 4.0)),
])
def test_measured_delay_equals_the_pair_scan_on_plans(K, per_worker_H, delay, speeds):
    T = 48
    schedules = [regular_sync_schedule(T, per_worker_H[k % len(per_worker_H)])
                 for k in range(K)]
    wall_times = (None if speeds is None else
                  load_balanced_assignment(speeds, per_worker_H[0], T // per_worker_H[0])
                  .wall_times())
    log = write_plan(K, T, schedules, delay, wall_times)
    assert measured_delay(log) == pair_scan_delay(log)


def test_visibility_sets_are_monotone(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=3, T=40, H=4, window=10, seed=6)
    schedules = [config.sync] * 3
    _, log = run_async_local_sgd(
        config, schedules, DelayModel("random-bounded", tau=6, seed=11), obj
    )
    # each sequence's successive reads see nested write sets
    for k in range(3):
        seen = [set(visible_ids(r)) for r in log.reads if r.worker == k]
        assert len(seen) == 40 // 4
        assert all(prev <= cur for prev, cur in zip(seen, seen[1:]))
        assert max(w.step for w in log.writes if w.worker == k) == 40
    # all updates visible at the horizon plus the declared delay window
    assert all(w.wall + w.lag <= 40 + 6 for w in log.writes)


def test_aggregate_equals_virtual_sequence_at_horizon(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=4, T=48, H=6, window=12, seed=9)
    schedules = [config.sync] * 4
    trace, _ = run_async_local_sgd(
        config, schedules, DelayModel("random-bounded", tau=6, seed=2), obj
    )
    assert np.max(np.abs(trace.final_aggregate - trace.xbar[-1])) <= 1e-10


def test_declared_bound_violation_aborts(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=3, T=24, H=4, window=9, seed=4)
    schedules = [config.sync] * 3
    # only a load-balanced run declares a tau of its own, through the one path
    counter = GradientCounter(obj)
    with pytest.raises(RuntimeError, match="declared bound"):
        _replayed(config, schedules, DelayModel("fixed", tau=5), counter, [config.seed],
                  declared_tau=2)
    assert counter.calls == 0


def test_schedules_must_contain_horizon(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=2, T=24, H=4, window=4)
    bad = regular_sync_schedule(20, 4)
    with pytest.raises(ValueError, match="horizon"):
        run_async_local_sgd(config, [config.sync, bad], DelayModel("zero"), obj)


def test_write_plan_checks_its_schedules():
    sched = regular_sync_schedule(24, 4)
    with pytest.raises(ValueError, match="one synchronization schedule per worker"):
        write_plan(3, 24, [sched] * 2, DelayModel("zero"))
    with pytest.raises(ValueError, match="horizon"):
        write_plan(2, 24, [sched, regular_sync_schedule(20, 4)], DelayModel("zero"))


def test_write_plan_rejects_a_decreasing_wall_of_one_sequence():
    T, H = 24, 4
    schedules = [regular_sync_schedule(T, H)] * 3
    wall_times = load_balanced_assignment([3.0, 1.0, 1.5], H, T // H).wall_times()
    wall_times[(1, 2 * H)] = wall_times[(1, H)] - 0.5
    with pytest.raises(ValueError, match="wall instants of sequence 1 decrease at step 8"):
        write_plan(3, T, schedules, DelayModel("zero"), wall_times)


def test_staleness_check_raises_above_tau_and_returns_the_measured_value(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=3, T=24, H=4, window=4)
    schedules, delay = [config.sync] * 3, DelayModel("fixed", tau=5)
    log = write_plan(3, 24, schedules, delay)
    for tau in (5, 9):
        result, _ = _replayed(config, schedules, delay, obj, [1, 2], declared_tau=tau)
        assert result.staleness == measured_delay(log) == 5
    with pytest.raises(RuntimeError, match="declared bound"):
        _replayed(config, schedules, delay, obj, [1, 2], declared_tau=4)


@pytest.mark.parametrize("delay", [DelayModel("fixed", tau=3),
                                   DelayModel("random-bounded", tau=6, seed=11),
                                   DelayModel("zero")])
def test_ensemble_staleness_is_the_measured_delay_of_the_plan(quad10, delay):
    obj, _, _ = quad10
    config = async_config(quad10, K=3, T=48, H=4, window=4 + delay.tau)
    schedules = [config.sync] * 3
    batch = run_async_ensemble(config, schedules, delay, obj, [1, 2])
    assert batch.staleness == measured_delay(write_plan(3, 48, schedules, delay))
    assert run_local_sgd_ensemble(config, obj, [1, 2]).staleness == 0


@pytest.mark.parametrize("speed", [np.nan, np.inf, 0.0, -1.0])
def test_load_balancing_rejects_a_speed_that_is_not_finite_and_positive(quad10, speed):
    # a NaN speed used to end in a KeyError, and an infinite one in a plan
    # of zero-length blocks
    message = r"^speeds must be finite and positive, got \(1\.0, "
    with pytest.raises(ValueError, match=message):
        load_balanced_assignment([1.0, speed], H=4)
    counter = GradientCounter(quad10[0])
    with pytest.raises(ValueError, match=message):
        run_load_balanced(async_config(quad10, K=2, T=8, H=4, window=12), [1.0, speed], counter)
    assert not counter.counts


def test_heterogeneous_per_worker_schedules(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=2, T=24, H=6, window=6, seed=12)
    schedules = [regular_sync_schedule(24, 3), regular_sync_schedule(24, 6)]
    trace, log = run_async_local_sgd(config, schedules, DelayModel("zero"), obj)
    assert trace.comm_rounds[0] == 8
    assert trace.comm_rounds[1] == 4
    assert measured_delay(log) == 0


def test_load_balancing_plans():
    plan = load_balanced_assignment([1.0, 1.0, 1.0], H=4, n_blocks=5)
    assert all(seq == worker for seq, _b, worker, _s, _e in plan.entries)
    assert plan.bound == 4

    plan21 = load_balanced_assignment([2.0, 1.0], H=4, n_blocks=6)
    assert plan21.bound <= 3 * 4
    workers_for_seq1 = {w for seq, _b, w, _s, _e in plan21.entries if seq == 1}
    assert len(workers_for_seq1) > 1  # the fast worker helps the slow sequence

    # the 3:1 pattern: fast worker runs three own blocks while the slow
    # sequence finishes one, giving staleness exactly 3H
    plan31 = load_balanced_assignment([3.0, 1.0], H=4, n_blocks=6)
    assert plan31.bound == 3 * 4

    single = load_balanced_assignment([1.0], H=2, n_blocks=3)
    assert all(seq == worker for seq, _b, worker, _s, _e in single.entries)

    with pytest.raises(ValueError):
        load_balanced_assignment([1.0, -1.0], H=2)
    for H, n_blocks in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="^H and n_blocks must be >= 1$"):
            load_balanced_assignment([1.0, 1.0], H=H, n_blocks=n_blocks)


def test_load_balancing_bound_equals_the_scan_over_all_blocks():
    rng = np.random.default_rng(0)
    for _ in range(300):
        K = int(rng.integers(1, 6))
        # small integer speeds make blocks end at the same instant
        speeds = (rng.integers(1, 4, size=K) if rng.random() < 0.5
                  else rng.uniform(0.2, 3.0, size=K))
        H, n_blocks = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        plan = load_balanced_assignment(speeds, H, n_blocks)
        assert plan.bound == assignment_bound(plan.entries, H)


def test_load_balancing_picks_equal_the_scan_over_all_pairs():
    rng = np.random.default_rng(1)
    for trial in range(300):
        K = int(rng.integers(1, 7))
        # integer speeds make blocks end at the same instant, so keys tie
        speeds = (rng.integers(1, 4, size=K) if trial % 2
                  else rng.uniform(0.2, 3.0, size=K))
        H, n_blocks = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        plan = load_balanced_assignment(speeds, H, n_blocks)
        expected = assignment_entries(speeds, H, n_blocks)
        assert plan.entries == expected
        assert all(type(a) is type(b) for got, want in zip(plan.entries, expected)
                   for a, b in zip(got, want))


def test_load_balanced_run_realized_delay(quad10):
    obj, _, _ = quad10
    H = 4
    plan = load_balanced_assignment([2.0, 1.0], H=H, n_blocks=6)
    config = RunConfig(
        K=2, T=24, b=1, sync=regular_sync_schedule(24, H),
        steps=theorem_steps((1.0, 4.0), H + plan.bound),
        seed=21, x0=np.zeros(obj.d),
    )
    trace, log, plan_used = run_load_balanced(config, [2.0, 1.0], obj)
    assert plan_used.bound <= 3 * H
    assert measured_delay(log) <= 3 * H
    assert np.max(np.abs(trace.final_aggregate - trace.xbar[-1])) <= 1e-10

    with pytest.raises(ValueError, match="^load-balanced runs need T divisible by H$"):
        run_load_balanced(replace(config, T=22, sync=regular_sync_schedule(22, H)),
                          [2.0, 1.0], obj)
    with pytest.raises(ValueError, match=r"^need one speed per logical sequence \(K of them\)$"):
        run_load_balanced(config, [2.0, 1.0, 1.0], obj)


def full_scan_async(config, per_worker_syncs, delay, objective, wall_times=None):
    """The asynchronous engine as one scalar step loop whose reads scan the whole log.

    Every read sums x0 and the visible update blocks / K in write order.
    xbar is the mean over the sequences of each one's iterate plus the
    blocks / K that its last read did not see, added in write order.
    Returns xbar, deviations, final iterates, final aggregate, reads per
    worker and the visible ids of every read.
    """
    K, T = config.K, config.T
    lag_rng = np.random.default_rng(delay.seed)

    def wall(k, step):
        return float(step if wall_times is None else wall_times[(k, step)])

    X = np.tile(config.x0, (K, 1))
    base, xbar = X.copy(), config.x0.copy()
    seen = [set() for _ in range(K)]  # the writes each sequence's last read saw
    xbars, devs = [xbar.copy()], [float(np.mean(np.sum((X - xbar) ** 2, axis=1)))]
    writes, reads, rounds = [], [], np.zeros(K, dtype=np.int64)
    indices = (chunk[:, :, i] for chunk in _index_chunks([config.seed], K, objective.n,
                                                          config.b, T)
               for i in range(chunk.shape[2]))
    for t, I in enumerate(indices):
        eta = config.steps.eta(t)
        grads = objective.minibatch_gradient_many(X, I[0])
        X -= eta * grads
        syncing = [k for k in range(K) if per_worker_syncs[k].is_sync(t + 1)]
        for k in syncing:
            lag = (int(lag_rng.integers(0, delay.tau + 1))
                   if delay.kind == "random-bounded" else delay.tau)
            writes.append((k, wall(k, t + 1) + lag, X[k] - base[k]))
        for k in syncing:
            if K == 1:
                value, visible = X[0].copy(), list(range(len(writes)))
            else:
                value, visible = config.x0.copy(), []
                for i, (worker, visible_wall, block) in enumerate(writes):
                    if worker == k or visible_wall <= wall(k, t + 1):
                        value += block / K
                        visible.append(i)
            X[k] = value
            base[k] = value.copy()
            rounds[k] += 1
            reads.append(tuple(visible))
            seen[k] = set(visible)
        unseen = [sum((block / K for i, (_, _, block) in enumerate(writes) if i not in ids),
                      np.zeros_like(xbar)) for ids in seen]
        xbar = (X + np.array(unseen)).mean(axis=0)
        xbars.append(xbar.copy())
        devs.append(float(np.mean(np.sum((X - xbar) ** 2, axis=1))))
    aggregate = config.x0 + sum(block for _, _, block in writes) / K
    return np.asarray(xbars), np.asarray(devs), X, aggregate, rounds, reads


@pytest.mark.parametrize("K, per_worker_H, delay, speeds", [
    (4, (3, 3), DelayModel("zero"), None),
    (3, (3, 6), DelayModel("fixed", tau=2), None),
    (4, (6, 3), DelayModel("random-bounded", tau=5, seed=8), None),
    (1, (3,), DelayModel("fixed", tau=4), None),
    (1, (6,), DelayModel("random-bounded", tau=3, seed=2), None),
    (2, (4, 4), DelayModel("zero"), (2.0, 1.0)),
    (3, (4, 4), DelayModel("zero"), (3.0, 1.0, 1.5)),
    # H and tau apart at the same K and T: each batch replays its own plan
    (3, (2,), DelayModel("fixed", tau=2), None),
    (3, (8,), DelayModel("fixed", tau=2), None),
    (3, (4,), DelayModel("zero"), None),
])
def test_batched_replay_equals_single_runs_bitwise(quad10, K, per_worker_H, delay, speeds):
    obj, _, _ = quad10
    T = 48
    schedules = [regular_sync_schedule(T, per_worker_H[k % len(per_worker_H)])
                 for k in range(K)]
    wall_times, tau = None, delay.tau
    if speeds is not None:
        plan = load_balanced_assignment(speeds, 4, n_blocks=T // 4)
        wall_times, tau = plan.wall_times(), plan.bound
    config = async_config(quad10, K=K, T=T, H=max(per_worker_H),
                          window=max(per_worker_H) + tau, b=2)

    def ensemble(seeds):
        if speeds is None:
            return run_async_ensemble(config, schedules, delay, obj, seeds,
                                      track_second_moment=True)
        # no public runner batches a load-balanced plan; the one path of
        # every async run does
        return _replayed(config, schedules, delay, obj, seeds, track_second_moment=True,
                         wall_times=wall_times, declared_tau=tau)[0]

    def single_run(seeded):
        if speeds is None:
            return run_async_local_sgd(seeded, schedules, delay, obj)
        return run_load_balanced(seeded, speeds, obj)[:2]

    seeds = [5, 6, 7, 5]
    batch = ensemble(seeds)
    moments = []
    for r, seed in enumerate(seeds):
        single, log = single_run(replace(config, seed=seed))
        assert batch.staleness == measured_delay(log)
        assert np.array_equal(batch.deviations[r], single.deviations)
        # a one-seed batch is the single run too, and tracks its second moment
        alone = ensemble([seed])
        assert np.array_equal(alone.deviations[0], single.deviations)
        moments.append(alone.max_second_moment)
        # the folded sum, the rest of the prefix and the extras add in the
        # full scan's order
        xbar, devs, final, aggregate, rounds, reads = full_scan_async(
            replace(config, seed=seed), schedules, delay, obj, wall_times)
        for got, want in ((single.xbar, xbar), (single.deviations, devs),
                          (single.final_iterates, final),
                          (single.final_aggregate, aggregate),
                          (single.comm_rounds, rounds)):
            assert np.array_equal(got, want)
        assert [visible_ids(read) for read in log.reads] == reads
    assert batch.max_second_moment == max(moments)
    assert not batch.diverged.any()


def test_block_planned_replay_equals_the_full_scan(monkeypatch, logistic50):
    # runs share and differ in seeds and leave the stack inside blocks and
    # chunks; the rows before each run's drop equal its scalar replay
    monkeypatch.setattr(sync, "_CHUNK_STEPS", 16)
    K, T, b = 3, 40, 2
    schedules = [regular_sync_schedule(T, 3), regular_sync_schedule(T, 4),
                 regular_sync_schedule(T, 3)]
    delay = DelayModel("random-bounded", tau=3, seed=4)
    seeds, stops = [5, 6, 5, 8], [6, 40, 19, 11]
    config = RunConfig(K=K, T=T, b=b, sync=schedules[1], steps=ConstantStep(c=2.0**-5),
                       seed=0, x0=np.zeros(logistic50.d), record=RecordFlags(deviations=True))
    result = sync._simulate(config, logistic50, seeds,
                            exchange=_Replay(write_plan(K, T, schedules, delay), config.x0,
                                             len(seeds), K, T),
                            limits=lambda crossed: np.array(stops))
    for r, (seed, stop) in enumerate(zip(seeds, stops)):
        xbar, devs, *_ = full_scan_async(replace(config, seed=seed), schedules, delay,
                                         logistic50)
        assert result.xbar[r, :stop + 1].tobytes() == xbar[:stop + 1].tobytes()
        assert result.deviations[r, :stop + 1].tobytes() == devs[:stop + 1].tobytes()
        assert np.isnan(result.xbar[r, stop + 1:]).all()
        assert np.isnan(result.deviations[r, stop + 1:]).all()


def test_async_run_flags_divergence_like_the_sync_engine(quad10):
    obj, _, _ = quad10
    # at c=0.03 the seeds diverge at different steps, so runs leave the batch
    T, seeds = 300, [3, 4, 5, 6]
    schedules = [regular_sync_schedule(T, 3)] * 2
    delay = DelayModel("fixed", tau=2)
    for c, blows_up in ((0.03, True), (1.0 / 256.0, False)):
        config = RunConfig(K=2, T=T, b=1, sync=schedules[0], steps=ConstantStep(c=c),
                           seed=0, x0=np.zeros(obj.d), record=RecordFlags(deviations=True))
        batch = run_async_ensemble(config, schedules, delay, obj, seeds)
        for r, seed in enumerate(seeds):
            single, _ = run_async_local_sgd(replace(config, seed=seed), schedules, delay, obj)
            assert single.diverged == bool(batch.diverged[r]) == blows_up
            assert np.all(np.abs(single.final_iterates) < 1e100)
            # both record up to the step where the run froze, then NaN
            recorded = recorded_steps(single.deviations)
            assert (recorded < T + 1) == blows_up
            assert np.array_equal(batch.deviations[r][:recorded], single.deviations[:recorded])
            assert np.array_equal(batch.deviations[r], single.deviations, equal_nan=True)
            assert np.all(np.isnan(batch.deviations[r][recorded:]))
            # a diverged run's output average reads NaN, alone and in a batch
            assert np.array_equal(batch.output_average[r], single.output_average,
                                  equal_nan=True)
            assert np.isnan(batch.output_average[r]).all() == blows_up
            assert np.isnan(batch.f_output[r]) == blows_up


def test_async_entry_points_check_the_shift_before_any_gradient(quad10):
    obj, _, _ = quad10
    # kappa = 4, so a = 65 > 16 kappa; only a window H + tau >= 65 rejects it
    config = RunConfig(K=2, T=24, b=1, sync=regular_sync_schedule(24, 4),
                       steps=TheoremDecayStep(mu=1.0, a=65.0), seed=0, x0=np.zeros(obj.d))
    schedules = [config.sync] * 2
    for tau, rejected in ((61, True), (60, False)):
        delay = DelayModel("fixed", tau=tau)
        for run in (lambda o: run_async_local_sgd(config, schedules, delay, o),
                    lambda o: run_async_ensemble(config, schedules, delay, o, [1, 2]),
                    lambda o: check_async_deviation(config, delay, o, runs=4)):
            counter = GradientCounter(obj)
            if rejected:
                with pytest.raises(ValueError, match="shift a=65.0"):
                    run(counter)
                assert counter.calls == 0
            else:
                run(counter)
                assert counter.calls > 0


def test_every_shift_check_rejects_a_shift_with_one_message(quad10):
    # kappa = 4 and H = 4, so a = 64 misses a > max(16 kappa, H) by a hair
    obj, _, const = quad10
    config = RunConfig(K=2, T=8, b=1, sync=regular_sync_schedule(8, 4),
                       steps=TheoremDecayStep(mu=const.mu, a=64.0), seed=0,
                       x0=np.zeros(obj.d))
    messages = set()
    for check in (lambda: theorem1_bound(const, K=2, T=8, H=4, b=1, a=64.0, r0=1.0),
                  lambda: run_local_sgd(config, obj),
                  lambda: run_async_local_sgd(config, [config.sync] * 2,
                                              DelayModel("zero"), obj)):
        with pytest.raises(ValueError, match="shift a=64.0") as rejected:
            check()
        messages.add(str(rejected.value))
    assert len(messages) == 1


def test_an_ensemble_of_no_runs_is_rejected_before_any_oracle_call(quad10):
    # an empty seed list used to end in a ZeroDivisionError from the block
    # sizing of the loop, after a value pass on no points
    obj, _, _ = quad10
    config = async_config(quad10, K=2, T=8, H=4, window=6)
    counter = GradientCounter(obj)
    for run in (lambda: run_local_sgd_ensemble(config, counter, []),
                lambda: run_async_ensemble(config, [config.sync] * 2, DelayModel("fixed", tau=2),
                                           counter, [])):
        with pytest.raises(ValueError, match="at least one seed"):
            run()
    assert not counter.counts


def test_async_entry_points_run_a_constant_step_on_an_unregularized_objective(synth50):
    # mu = 0 here, so kappa is undefined; only a decaying schedule needs it
    obj = LogisticObjective(synth50, lam=0.0)
    config = RunConfig(K=2, T=8, b=1, sync=regular_sync_schedule(8, 4),
                       steps=ConstantStep(c=0.1), seed=0, x0=np.zeros(obj.d))
    trace, _ = run_async_local_sgd(config, [config.sync] * 2, DelayModel("fixed", tau=1), obj)
    assert np.all(np.isfinite(trace.xbar)) and not trace.diverged
    trace, _, _ = run_load_balanced(config, [2.0, 1.0], obj)
    assert np.all(np.isfinite(trace.xbar)) and not trace.diverged


def test_async_ensemble_result_equals_single_runs_bitwise(quad10):
    # the ensemble result of both engines: the async one also keeps each
    # run's output average, the shift-a average of its virtual sequence
    obj, _, _ = quad10
    K, T = 3, 40
    schedules = [regular_sync_schedule(T, 4)] * K
    delay = DelayModel("random-bounded", tau=3, seed=6)
    config = async_config(quad10, K=K, T=T, H=4, window=7, b=2)
    seeds = [8, 9, 8]
    batch = run_async_ensemble(config, schedules, delay, obj, seeds)
    for r, seed in enumerate(seeds):
        single, _ = run_async_local_sgd(replace(config, seed=seed), schedules, delay, obj)
        assert batch.deviations[r].tobytes() == single.deviations.tobytes()
        average = ShiftedQuadraticAverage(config.steps.a)
        for t in range(T):
            average.update(single.xbar[t], t)
        assert batch.output_average[r].tobytes() == average.value.tobytes()
    assert np.array_equal(batch.f_output, obj.value_many(batch.output_average))


@pytest.mark.parametrize("kind, tau, message", [
    ("lagged", 1, "unknown delay model 'lagged'"),
    ("fixed", -1, "tau must be an integer >= 0, got -1"),
    ("zero", 2, "zero-delay model must declare tau=0"),
])
def test_delay_model_rejects_an_unknown_kind_or_a_tau_out_of_range(kind, tau, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        DelayModel(kind, tau=tau)


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_delay_model_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    # a negative seed used to be accepted and to fail later in write_plan
    with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, got {seed!r}$"):
        DelayModel("random-bounded", tau=2, seed=seed)
    assert DelayModel("random-bounded", tau=2, seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("kind", ["fixed", "random-bounded"])
@pytest.mark.parametrize("tau", [2.5, 2.0, True, "2"])
def test_delay_model_rejects_a_tau_that_is_not_an_integer(kind, tau):
    # a fractional tau would fail mid-run (fixed) or widen the shift check (random-bounded)
    message = f"tau must be an integer >= 0, got {tau!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DelayModel(kind, tau=tau)
    assert DelayModel(kind, tau=np.int64(2)).tau == 2


# each RecordFlags row and the trace field it fills
RECORDED_ROWS = {"virtual": "xbar", "deviations": "deviations", "f_values": "f_by_scheme",
                 "iterates": "iterates", "noise_norms": "noise_sq"}


def same_bytes(got, want):
    """Bitwise equality of two rows: arrays, or dicts of arrays by scheme."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same_bytes(got[k], want[k]) for k in want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("flag", [None, *RECORDED_ROWS])
@pytest.mark.parametrize("engine", ["run_local_sgd", "run_local_sgd_ensemble",
                                    "run_async_local_sgd", "run_async_ensemble",
                                    "run_load_balanced"])
def test_every_engine_records_what_config_record_asks_for(logistic50, engine, flag):
    # a row is there if and only if config.record asks for it, and row r of
    # an ensemble's row is bitwise the one-seed run's field
    record = RecordFlags(virtual=False, f_values=False)
    if flag is not None:
        record = replace(record, **{flag: True})
    config = RunConfig(K=2, T=24, b=2, sync=regular_sync_schedule(24, 4),
                       steps=ConstantStep(c=2.0**-4), seed=0, x0=np.zeros(logistic50.d),
                       record=record)
    schedules, delay, seeds = [config.sync] * 2, DelayModel("fixed", tau=2), [3, 4, 3]
    single = {
        "run_local_sgd": lambda c: run_local_sgd(c, logistic50),
        "run_async_local_sgd": lambda c: run_async_local_sgd(c, schedules, delay,
                                                             logistic50)[0],
        "run_load_balanced": lambda c: run_load_balanced(c, [2.0, 1.0], logistic50)[0],
    }
    ensembles = {
        "run_local_sgd_ensemble": (
            "run_local_sgd", lambda c: run_local_sgd_ensemble(c, logistic50, seeds)),
        "run_async_ensemble": (
            "run_async_local_sgd",
            lambda c: run_async_ensemble(c, schedules, delay, logistic50, seeds)),
    }
    if engine in single:
        result, traces = None, [single[engine](config)]
    else:
        one_seed, ensemble = ensembles[engine]
        result = ensemble(config)
        traces = [single[one_seed](replace(config, seed=seed)) for seed in seeds]
        assert not result.diverged.any()
    for r, trace in enumerate(traces):
        if result is not None:
            assert np.array_equal(result.eval_steps, trace.eval_steps)
        for row_flag, name in RECORDED_ROWS.items():
            asked = row_flag == flag
            assert (getattr(trace, name) is not None) == asked, name
            if result is None:
                continue
            rows = getattr(result, name)
            assert (rows is not None) == asked, name
            if asked:
                row = ({scheme: f[r] for scheme, f in rows.items()} if name == "f_by_scheme"
                       else rows[r])
                assert same_bytes(row, getattr(trace, name)), (name, r)


@pytest.mark.parametrize("runner, scenario", [
    (runner, scenario) for runner in ("sync", "async", "simulate")
    for scenario in ("completes", "diverges", "target", "frozen")
    if scenario != "target" or runner == "simulate"])
def test_row_r_of_a_batch_is_the_one_seed_run(quad10, runner, scenario):
    # a run that completes, diverges at its own step, stops at its own t*
    # or freezes at t = 0: each recorded row has its documented shape, and
    # row r of the batch equals the one-seed run, NaN where both are NaN
    obj, ref, const = quad10
    K, T, H, tau, seeds = 2, 48, 4, 2, [3, 4, 3, 5]
    if scenario == "frozen":  # f(x0) is not finite
        obj = ThresholdQuadratic(obj.hess, obj.B, c=-1.0)
    steps = (ConstantStep(c=4.0) if scenario == "diverges"
             else theorem_steps((const.mu, const.L), H + tau))
    config = RunConfig(K=K, T=T, b=1, sync=regular_sync_schedule(T, H), steps=steps, seed=0,
                       x0=np.zeros(obj.d),
                       record=RecordFlags(deviations=True, iterates=True, noise_norms=True))
    schedules, delay = [config.sync] * K, DelayModel("fixed", tau=tau)
    target = (0.05 if scenario == "target" else 1e-12, ref.f_star)
    seeded = [replace(config, seed=seed) for seed in seeds]
    if runner == "sync":
        batch = vars(run_local_sgd_ensemble(config, obj, seeds))
        traces = [run_local_sgd(c, obj) for c in seeded]
    elif runner == "async":
        batch = vars(run_async_ensemble(config, schedules, delay, obj, seeds))
        traces = [run_async_local_sgd(c, schedules, delay, obj)[0] for c in seeded]
    else:
        batch = vars(_simulate(config, obj, seeds, target=target))
        traces = [run_local_sgd(c, obj, stop_when=target) for c in seeded]
    shapes = {"xbar": (T + 1, obj.d), "deviations": (T + 1,), "noise_sq": (T,),
              "iterates": (K, T + 1, obj.d), "output_average": (obj.d,)}
    stops = []
    for r, single in enumerate(traces):
        assert bool(batch["diverged"][r]) == single.diverged
        assert batch["crossed"][r] == (-1 if single.t_star is None else single.t_star)
        assert single.final_iterates.shape == (K, obj.d)
        assert np.array_equal(batch["final_iterates"][r], single.final_iterates)
        if runner == "async":  # the shared aggregate as the run left the stack
            assert single.final_aggregate.shape == (obj.d,)
            assert np.array_equal(batch["final_aggregate"][r], single.final_aggregate)
        else:
            assert batch["final_aggregate"] is None and single.final_aggregate is None
        for name, shape in shapes.items():
            assert getattr(single, name).shape == shape, name
            assert batch[name].shape == (len(seeds),) + shape, name
            assert np.array_equal(batch[name][r], getattr(single, name), equal_nan=True), name
        # the f values end where each loop did: the batch's row may run
        # longer, NaN after the steps of this run
        evals = len(single.eval_steps)
        assert np.array_equal(batch["eval_steps"][:evals], single.eval_steps)
        for kind in SCHEMES:
            assert single.f_by_scheme[kind].shape == (evals,)
            f_row = batch["f_by_scheme"][kind]
            assert f_row.shape == (len(seeds), len(batch["eval_steps"]))
            assert np.array_equal(f_row[r, :evals], single.f_by_scheme[kind], equal_nan=True)
            assert np.isnan(f_row[r, evals:]).all()
        stops.append((recorded_steps(single.xbar), single.diverged, single.t_star))
    recorded, diverged, t_star = zip(*stops)
    assert {
        "completes": set(recorded) == {T + 1} and not any(diverged),
        "diverges": all(diverged) and len(set(recorded)) > 1 and max(recorded) <= T,
        "target": set(t_star) == {17, 16, 19} and recorded == (18, 17, 18, 20),
        "frozen": all(diverged) and set(recorded) == {1},
    }[scenario]
