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
from localsgd.asynchronous import (ReadEvent, WriteEvent, _check_staleness, _Replay,
                                   run_async_ensemble, write_plan)
from localsgd.lemmas import check_async_deviation
from localsgd.sync import _index_chunks
from oracles import assignment_bound, assignment_entries


def async_config(quad10, K, T, H, window, seed=0, b=1):
    obj, ref, const = quad10
    return RunConfig(K=K, T=T, b=b, sync=regular_sync_schedule(T, H),
                     steps=theorem_steps((const.mu, const.L), window),
                     seed=seed, x0=np.zeros(obj.d))


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


def test_measured_delay_hand_built_log():
    # one write lands two steps late; oracle: exhaustive scan over pairs
    log = WriteLog()
    log.writes.append(WriteEvent(id=0, worker=0, step=2, wall=2.0, lag=2))
    log.writes.append(WriteEvent(id=1, worker=1, step=2, wall=2.0, lag=0))
    log.writes.append(WriteEvent(id=2, worker=1, step=4, wall=4.0, lag=0))
    log.reads.append(ReadEvent(worker=1, step=2, visible_ids=(1,)))
    log.reads.append(ReadEvent(worker=0, step=2, visible_ids=(0, 1)))
    log.reads.append(ReadEvent(worker=1, step=3, visible_ids=(1,)))
    log.reads.append(ReadEvent(worker=0, step=4, visible_ids=(0, 1, 2)))

    def oracle(log):
        worst = 0
        for r in log.reads:
            for w in log.writes:
                if w.worker == r.worker or w.step > r.step or w.id in r.visible_ids:
                    continue
                worst = max(worst, r.step - w.step + 1)
        return worst

    assert measured_delay(log) == oracle(log) == 2


def test_visibility_sets_are_monotone(quad10):
    obj, _, _ = quad10
    config = async_config(quad10, K=3, T=40, H=4, window=10, seed=6)
    schedules = [config.sync] * 3
    _, log = run_async_local_sgd(
        config, schedules, DelayModel("random-bounded", tau=6, seed=11), obj
    )
    # each sequence's successive reads see nested write sets
    for k in range(3):
        seen = [set(r.visible_ids) for r in log.reads if r.worker == k]
        assert len(seen) == 40 // 4
        assert all(prev <= cur for prev, cur in zip(seen, seen[1:]))
        assert max(w.step for w in log.writes if w.worker == k) == 40
    # all updates visible at the horizon plus the declared delay window
    assert all(w.visible_wall <= 40 + 6 for w in log.writes)


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
    with pytest.raises(RuntimeError, match="declared bound"):
        run_async_local_sgd(config, schedules, DelayModel("fixed", tau=5), obj,
                            declared_tau=2)


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


def test_staleness_check_raises_above_tau_and_returns_the_measured_value():
    log = write_plan(3, 24, [regular_sync_schedule(24, 4)] * 3, DelayModel("fixed", tau=5))
    assert _check_staleness(log, 5) == _check_staleness(log, 9) == measured_delay(log) == 5
    with pytest.raises(RuntimeError, match="declared bound"):
        _check_staleness(log, 4)


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
    assert plan.is_identity()
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
    assert single.is_identity()

    with pytest.raises(ValueError):
        load_balanced_assignment([1.0, -1.0], H=2)


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


def full_scan_async(config, per_worker_syncs, delay, objective, wall_times=None):
    """The asynchronous engine as one scalar step loop whose reads scan the whole log.

    Every read sums x0 and the visible update blocks / K in write order.
    Returns xbar, deviations, final iterates, final aggregate, reads per
    worker and the visible ids of every read.
    """
    K, T = config.K, config.T
    lag_rng = np.random.default_rng(delay.seed)

    def wall(k, step):
        return float(step if wall_times is None else wall_times[(k, step)])

    X = np.tile(config.x0, (K, 1))
    base, xbar = X.copy(), config.x0.copy()
    xbars, devs = [xbar.copy()], [float(np.mean(np.sum((X - xbar) ** 2, axis=1)))]
    writes, reads, rounds = [], [], np.zeros(K, dtype=np.int64)
    indices = (chunk[:, :, i] for chunk in _index_chunks([config.seed], K, objective.n,
                                                          config.b, T)
               for i in range(chunk.shape[2]))
    for t, I in enumerate(indices):
        eta = config.steps.eta(t)
        grads = objective.minibatch_gradient_many(X, I[0])
        X -= eta * grads
        xbar = xbar - eta * grads.mean(axis=0)
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
    seeds = [5, 6, 7, 5]
    batch = run_async_ensemble(config, write_plan(K, T, schedules, delay, wall_times),
                               obj, seeds, track_second_moment=True)
    moments = []
    for r, seed in enumerate(seeds):
        single, log = run_async_local_sgd(replace(config, seed=seed), schedules, delay, obj,
                                          wall_times=wall_times, declared_tau=tau,
                                          track_second_moment=True)
        assert np.array_equal(batch.deviations[r], single.deviations)
        moments.append(single.max_second_moment)
        # the settled sum plus pending writes adds in the full scan's order
        xbar, devs, final, aggregate, rounds, reads = full_scan_async(
            replace(config, seed=seed), schedules, delay, obj, wall_times)
        for got, want in ((single.xbar, xbar), (single.deviations, devs),
                          (single.final_iterates, final),
                          (single.final_aggregate, aggregate),
                          (single.comm_rounds, rounds)):
            assert np.array_equal(got, want)
        assert [read.visible_ids for read in log.reads] == reads
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
                       seed=0, x0=np.zeros(logistic50.d))
    run = sync._simulate(config, logistic50, seeds,
                         exchange=_Replay(write_plan(K, T, schedules, delay), config.x0,
                                          len(seeds), K, T),
                         keep=lambda t, crossed: t < np.array(stops))
    for r, (seed, stop) in enumerate(zip(seeds, stops)):
        xbar, devs, *_ = full_scan_async(replace(config, seed=seed), schedules, delay,
                                         logistic50)
        assert run["rows"]["xbar"][:stop + 1, r].tobytes() == xbar[:stop + 1].tobytes()
        assert run["rows"]["deviations"][:stop + 1, r].tobytes() == devs[:stop + 1].tobytes()
        assert np.isnan(run["rows"]["xbar"][stop + 1:, r]).all()


def test_async_run_flags_divergence_like_the_sync_engine(quad10):
    obj, _, _ = quad10
    # at c=0.03 the seeds diverge at different steps, so runs leave the batch
    T, seeds = 300, [3, 4, 5, 6]
    schedules = [regular_sync_schedule(T, 3)] * 2
    delay = DelayModel("fixed", tau=2)
    plan = write_plan(2, T, schedules, delay)
    for c, blows_up in ((0.03, True), (1.0 / 256.0, False)):
        config = RunConfig(K=2, T=T, b=1, sync=schedules[0], steps=ConstantStep(c=c),
                           seed=0, x0=np.zeros(obj.d))
        batch = run_async_ensemble(config, plan, obj, seeds)
        for r, seed in enumerate(seeds):
            single, _ = run_async_local_sgd(replace(config, seed=seed), schedules, delay, obj)
            assert single.diverged == bool(batch.diverged[r]) == blows_up
            assert np.all(np.abs(single.final_iterates) < 1e100)
            # the run records what the single run recorded, then NaN
            recorded = len(single.deviations)
            assert (recorded < T + 1) == blows_up
            assert np.array_equal(batch.deviations[r][:recorded], single.deviations)
            assert np.all(np.isnan(batch.deviations[r][recorded:]))
            assert np.isnan(batch.output_average[r]).all() == blows_up
            assert np.isnan(batch.f_output[r]) == blows_up


class GradientCounter:
    """An objective that counts the calls to its gradient oracles."""

    def __init__(self, objective):
        self.objective = objective
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self.objective, name)
        if "gradient" not in name:
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


def test_async_entry_points_check_the_shift_before_any_gradient(quad10):
    obj, _, _ = quad10
    # kappa = 4, so a = 65 > 16 kappa; only a window H + tau >= 65 rejects it
    config = RunConfig(K=2, T=24, b=1, sync=regular_sync_schedule(24, 4),
                       steps=TheoremDecayStep(mu=1.0, a=65.0), seed=0, x0=np.zeros(obj.d))
    schedules = [config.sync] * 2
    for tau, rejected in ((61, True), (60, False)):
        delay = DelayModel("fixed", tau=tau)
        for run in (lambda o: run_async_local_sgd(config, schedules, delay, o),
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
    batch = run_async_ensemble(config, write_plan(K, T, schedules, delay), obj, seeds)
    for r, seed in enumerate(seeds):
        single, _ = run_async_local_sgd(replace(config, seed=seed), schedules, delay, obj)
        assert batch.deviations[r].tobytes() == single.deviations.tobytes()
        average = ShiftedQuadraticAverage(config.steps.a)
        for t in range(T):
            average.update(single.xbar[t], t)
        assert batch.output_average[r].tobytes() == average.value.tobytes()
    assert np.array_equal(batch.f_output, obj.value_many(batch.output_average))
