import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from localsgd import (
    ConstantStep,
    DelayModel,
    LogisticObjective,
    QuadraticObjective,
    RecordFlags,
    RunConfig,
    TheoremDecayStep,
    make_quadratic,
    regular_sync_schedule,
    run_local_sgd,
    run_local_sgd_ensemble,
    run_minibatch_sgd,
    theorem_steps,
)
from localsgd import sync
from localsgd.asynchronous import run_async_ensemble
from localsgd.averaging import SCHEMES, RunningAverage
from localsgd.harness import DatasetSpec, ExperimentConfig, reference_for
from localsgd.schedules import ExperimentDecayStep
from localsgd.sync import (_certified_by_any, _certified_miss, _index_chunks, _simulate,
                           _worker_mean)
from oracles import GradientCounter, ThresholdQuadratic, recorded_steps


def quad_config(quad10, K, T, H, b=1, seed=0, record=None, a_extra=0.0):
    obj, ref, const = quad10
    steps = TheoremDecayStep(mu=const.mu,
                             a=theorem_steps((const.mu, const.L), H).a + a_extra)
    return RunConfig(
        K=K, T=T, b=b, sync=regular_sync_schedule(T, H), steps=steps, seed=seed,
        x0=np.zeros(obj.d), record=record or RecordFlags(iterates=True, deviations=True),
    )


def count_stream_state_passes(monkeypatch):
    """A list that gets the K of every `sync._stream_states` call from now on."""
    passes = []
    stream_states = sync._stream_states

    def counted(seeds, K):
        passes.append(K)
        return stream_states(seeds, K)

    monkeypatch.setattr(sync, "_stream_states", counted)
    return passes


def test_single_worker_matches_serial_sgd(quad10):
    obj, _, _ = quad10
    config = quad_config(quad10, K=1, T=40, H=5, seed=13)
    trace = run_local_sgd(config, obj)

    # serial oracle consuming the same substream
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(13).spawn(1)[0]))
    x = np.zeros(obj.d)
    path = [x.copy()]
    for t in range(40):
        idx = rng.integers(0, obj.n, size=1)
        x = x - config.steps.eta(t) * obj.minibatch_gradient(x, idx)
        path.append(x.copy())
    assert np.array_equal(trace.xbar, np.asarray(path))


def test_every_step_sync_equals_coupled_minibatch(monkeypatch, quad10):
    # at K = 9 the run draws more than `_SPAWNED_STREAMS` streams, from the
    # states of `_stream_states`, and the baseline from numpy's spawned
    # generators: the pass is checked against its independent reference
    passes = count_stream_state_passes(monkeypatch)
    obj, _, _ = quad10
    for K, b in ((2, 1), (4, 2), (9, 1), (9, 2)):
        passes.clear()
        config = quad_config(quad10, K=K, T=50, H=1, b=b, seed=99)
        trace = run_local_sgd(config, obj)
        baseline = run_minibatch_sgd(config, obj)
        assert passes == ([K] if K > sync._SPAWNED_STREAMS else [])
        assert np.max(np.abs(trace.xbar - baseline)) <= 1e-12
    with pytest.raises(ValueError, match="^x0 dimension does not match the objective$"):
        run_minibatch_sgd(replace(config, x0=np.zeros(obj.d + 1)), obj)


def test_quadratic_virtual_average_does_not_depend_on_sync_period(quad10):
    # one shared diagonal Hessian makes the gradient affine, so the worker
    # mean of the gradients is the gradient at the worker mean: xbar is the
    # coupled mini-batch path for every H, although the workers drift apart
    # between syncs.  So a quadratic H sweep measures no drift.
    obj, _, _ = quad10
    for H in (1, 8, 50, 400):
        config = quad_config(quad10, K=4, T=400, H=H, b=2, seed=3)
        trace = run_local_sgd(config, obj)
        assert np.max(np.abs(trace.xbar - run_minibatch_sgd(config, obj))) <= 1e-12
        assert (trace.deviations.max() > 0.0) == (H > 1)


def test_two_worker_hand_example():
    # f_i(x) = x^2/2 on one component: step from 2 with eta=1 lands at 0
    obj = QuadraticObjective([1.0], [[0.0]])
    config = RunConfig(
        K=2, T=1, b=1, sync=regular_sync_schedule(1, 1),
        steps=ConstantStep(c=1.0 / 32.0), seed=0, x0=np.array([2.0]),
    )
    trace = run_local_sgd(config, obj)
    assert trace.xbar[1] == pytest.approx(0.0)
    assert np.all(trace.final_iterates == 0.0)


def test_sampled_gradients_are_unbiased(quad10):
    # all workers at a common point: sampled mean over many resamples
    # approaches the exact aggregate gradient (Monte-Carlo oracle)
    obj, _, _ = quad10
    point = np.full(obj.d, 0.7)
    rng = np.random.default_rng(2024)
    samples = obj.component_gradients_at(point, rng.integers(0, obj.n, size=10_000))
    exact = obj.gradient(point)
    err = samples.mean(axis=0) - exact
    stderr = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    assert np.all(np.abs(err) <= 3.0 * stderr + 1e-12)


def test_full_batch_sampling_gives_exact_gradient(quad10):
    obj, _, _ = quad10
    x = np.linspace(-1, 1, obj.d)
    g = obj.minibatch_gradient(x, np.arange(obj.n))
    assert np.allclose(g, obj.gradient(x), atol=1e-12)


def test_workers_identical_at_sync_indices(quad10):
    obj, _, _ = quad10
    config = quad_config(quad10, K=4, T=48, H=6, seed=3)
    trace = run_local_sgd(config, obj)
    for t in config.sync.indices:
        spread = np.max(np.abs(trace.iterates[:, t, :] - trace.iterates[0, t, :]))
        assert spread <= 1e-12
        assert trace.deviations[t] <= 1e-24
    assert trace.deviations[0] == 0.0
    assert trace.comm_rounds == len(config.sync.indices)
    # deviation is positive somewhere strictly inside a block
    assert trace.deviations[config.sync.indices[0] - 1] > 0.0


def test_virtual_sequence_identity_across_syncs(quad10):
    # oracle: replay the run with duplicated substreams, recompute the
    # aggregate sampled gradient g_t, and confirm the recorded virtual
    # sequence obeys xbar_{t+1} = xbar_t - eta_t g_t at every step,
    # including the averaging steps
    obj, _, _ = quad10
    config = quad_config(
        quad10, K=3, T=30, H=5, seed=8,
        record=RecordFlags(noise_norms=True, virtual=True, iterates=True),
    )
    trace = run_local_sgd(config, obj)

    rngs = [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(8).spawn(3)]
    for t in range(30):
        eta = config.steps.eta(t)
        g = np.mean(
            [obj.minibatch_gradient(trace.iterates[k, t, :],
                                    rngs[k].integers(0, obj.n, size=1))
             for k in range(3)],
            axis=0,
        )
        drift = trace.xbar[t + 1] - (trace.xbar[t] - eta * g)
        assert np.max(np.abs(drift)) <= 1e-12, t
    assert len(trace.noise_sq) == 30


def test_determinism_bitwise(quad10):
    obj, _, _ = quad10
    config = quad_config(quad10, K=3, T=25, H=4, seed=77)
    t1 = run_local_sgd(config, obj)
    t2 = run_local_sgd(config, obj)
    assert np.array_equal(t1.xbar, t2.xbar)
    assert np.array_equal(t1.iterates, t2.iterates)
    assert np.array_equal(t1.deviations, t2.deviations)
    for kind in t1.f_by_scheme:
        assert np.array_equal(t1.f_by_scheme[kind], t2.f_by_scheme[kind])


def test_iterations_to_accuracy_scans_recorded_steps(quad10):
    obj, ref, _ = quad10
    config = quad_config(quad10, K=2, T=200, H=4, seed=42,
                         record=RecordFlags(f_every=1))
    trace = run_local_sgd(config, obj)
    f0 = obj.value(np.zeros(obj.d))
    assert run_local_sgd(config, obj, stop_when=(f0 - ref.f_star + 1.0, ref.f_star)).t_star == 0

    eps = (f0 - ref.f_star) / 4.0
    got = run_local_sgd(config, obj, stop_when=(eps, ref.f_star)).t_star
    # linear-scan oracle over the values the run records without a target
    best = np.minimum.reduce([trace.f_by_scheme[k] for k in trace.f_by_scheme])
    hits = [int(t) for t, v in zip(trace.eval_steps, best) if v - ref.f_star <= eps]
    assert got == (hits[0] if hits else None)
    assert got is not None

    with pytest.raises(ValueError):
        run_local_sgd(config, obj, stop_when=(0.0, ref.f_star))
    # a target that is not a pair of finite numbers is rejected before any oracle call
    counter = GradientCounter(obj)
    for target, message in (((0.1, np.nan), "target f_star must be finite, got nan"),
                            ((0.1, True), "target f_star must be finite, got True"),
                            ((np.inf, ref.f_star),
                             "target accuracy must be finite and positive, got inf")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_local_sgd(config, counter, stop_when=target)
    assert not counter.counts


def test_ensemble_matches_scalar_engine(quad10):
    obj, _, _ = quad10
    config = quad_config(quad10, K=4, T=30, H=3, seed=0,
                         record=RecordFlags(virtual=False, deviations=True, f_values=False,
                                            noise_norms=True))
    seeds = [11, 222, 3333]
    ensemble = run_local_sgd_ensemble(
        config, obj, seeds,
        track_second_moment=True,
    )
    for r, seed in enumerate(seeds):
        single = run_local_sgd(
            config.__class__(**{**config.__dict__, "seed": seed,
                                "record": RecordFlags(iterates=True, deviations=True,
                                                      noise_norms=True)}),
            obj,
        )
        assert np.array_equal(ensemble.deviations[r], single.deviations)
        assert np.array_equal(ensemble.output_average[r], single.output_average)
        assert np.allclose(ensemble.noise_sq[r], single.noise_sq, atol=1e-15)


def _tracked_ensemble(engine, objective, c, x0, seeds, K=3, T=24, H=4):
    """An ensemble that tracks G^2 and records its iterates, and the max of
    second_moment_many over the iterates the loop tracks: steps t < T, up
    to where a run froze (NaN after it), and at least 0.0."""
    config = RunConfig(K=K, T=T, b=2, sync=regular_sync_schedule(T, H), steps=ConstantStep(c=c),
                       seed=0, x0=x0, record=RecordFlags(virtual=False, f_values=False,
                                                         iterates=True))
    if engine == "sync":
        result = run_local_sgd_ensemble(config, objective, seeds, track_second_moment=True)
    else:
        result = run_async_ensemble(config, [config.sync] * K, DelayModel("fixed", tau=2),
                                    objective, seeds, track_second_moment=True)
    with np.errstate(over="ignore"):
        moments = objective.second_moment_many(result.iterates[:, :, :T])
    return result, moments, max(0.0, float(np.nanmax(moments)))


@pytest.mark.parametrize("engine", ["sync", "async"])
@pytest.mark.parametrize("name, c, late", [("quad10", 2.0**-7, False), ("quad10", 0.6 / 32, True),
                                           ("logistic50", 2.0**-4, False)],
                         ids=["quad10-decreasing", "quad10-overshooting", "logistic50"])
def test_tracked_second_moment_is_the_max_over_the_iterates(request, engine, name, c, late):
    # seeds 3 and 3 tie their rows at every step, and all rows tie at x0;
    # at eta = 32c = 0.6 > 2 / L the quadratic's moment grows, so its max is late
    objective = request.getfixturevalue(name)
    objective = objective[0] if name == "quad10" else objective
    x0 = np.linspace(-1.0, 1.0, objective.d)
    result, moments, want = _tracked_ensemble(engine, objective, c, x0, [3, 8, 3, 5])
    assert result.max_second_moment == want
    assert not result.diverged.any()
    assert (moments[:, :, 0].max() < want) == late


@pytest.mark.parametrize("engine", ["sync", "async"])
def test_tracked_second_moment_reads_a_row_that_overflows(engine):
    # G^2 overflows at x0 while the iterate is finite; the step then
    # diverges, and the run freezes
    objective = QuadraticObjective([1e200, 1.0], [[0.0, 1.0], [2.0, -1.0]])
    result, moments, want = _tracked_ensemble(engine, objective, 2.0**-6, np.ones(2), [4, 9])
    assert want == np.inf and result.max_second_moment == np.inf
    assert result.diverged.all()


def test_ensemble_matches_scalar_engine_on_logistic(logistic50):
    # both engines share one loop and one CSR oracle, so they agree to
    # rounding (bitwise, as the next test checks)
    mu, L = logistic50.curvature()
    config = RunConfig(
        K=3, T=40, b=2, sync=regular_sync_schedule(40, 4),
        steps=theorem_steps((mu, L), 4), seed=0, x0=np.zeros(logistic50.d),
        record=RecordFlags(iterates=True, deviations=True),
    )
    ensemble = run_local_sgd_ensemble(config, logistic50, [42])
    single = run_local_sgd(
        config.__class__(**{**config.__dict__, "seed": 42}), logistic50
    )
    assert np.allclose(ensemble.deviations[0], single.deviations, atol=1e-12)
    assert np.allclose(ensemble.output_average[0], single.output_average, atol=1e-12)


def test_ensemble_equals_scalar_engine_on_logistic_bitwise(logistic50):
    # both engines run the same loop on the same CSR oracle
    mu, L = logistic50.curvature()
    config = RunConfig(
        K=3, T=40, b=2, sync=regular_sync_schedule(40, 4),
        steps=theorem_steps((mu, L), 4), seed=0, x0=np.zeros(logistic50.d),
        record=RecordFlags(deviations=True, noise_norms=True, f_every=1),
    )
    seeds = [42, 7]
    ensemble = run_local_sgd_ensemble(config, logistic50, seeds)
    for r, seed in enumerate(seeds):
        single = run_local_sgd(config.__class__(**{**config.__dict__, "seed": seed}),
                               logistic50)
        assert np.array_equal(ensemble.deviations[r], single.deviations)
        assert np.array_equal(ensemble.noise_sq[r], single.noise_sq)
        assert np.array_equal(ensemble.output_average[r], single.output_average)


def test_ensemble_flags_divergence_like_scalar_engine(quad10):
    obj, _, _ = quad10
    seeds = [3, 4, 5]
    for c, blows_up in ((4.0, True), (1.0 / 256.0, False)):
        config = RunConfig(
            K=2, T=60, b=1, sync=regular_sync_schedule(60, 3),
            steps=ConstantStep(c=c), seed=0, x0=np.zeros(obj.d),
            record=RecordFlags(deviations=True),
        )
        ensemble = run_local_sgd_ensemble(config, obj, seeds)
        for r, seed in enumerate(seeds):
            single = run_local_sgd(
                config.__class__(**{**config.__dict__, "seed": seed}), obj)
            assert single.diverged == blows_up
            assert bool(ensemble.diverged[r]) == single.diverged
            # both record up to the step where the run froze, then NaN
            recorded = recorded_steps(single.deviations)
            assert (recorded < config.T + 1) == blows_up
            assert np.array_equal(ensemble.deviations[r][:recorded],
                                  single.deviations[:recorded])
            assert np.array_equal(ensemble.deviations[r], single.deviations, equal_nan=True)
            assert np.all(np.isnan(ensemble.deviations[r][recorded:]))
            # a diverged run's output average reads NaN, alone and in a batch
            assert np.array_equal(ensemble.output_average[r], single.output_average,
                                  equal_nan=True)
            assert np.isnan(single.output_average).all() == blows_up
            assert np.isnan(ensemble.f_output[r]) == blows_up


def test_per_run_stepsizes_match_single_runs_bitwise(logistic50):
    # one batch of runs, each with its own schedule, sheds the runs that
    # reach eps or diverge; every row equals its single run until then
    n, d = logistic50.n, logistic50.d
    steps = ([ExperimentDecayStep(c=2.0**i, n=n) for i in (-6, -1, 3)]
             + [ConstantStep(c=2.0**i) for i in (-4, -1, 9)])
    f_star = logistic50.value(np.zeros(d)) - 0.3
    eps = 0.05
    config = RunConfig(K=3, T=120, b=2, sync=regular_sync_schedule(120, 4),
                       steps=steps[0], seed=0, x0=np.zeros(d),
                       record=RecordFlags(virtual=False, deviations=False))
    for seeds in ([11] * len(steps), list(range(20, 20 + len(steps)))):
        runs = [replace(config, seed=seed, steps=s) for seed, s in zip(seeds, steps)]
        run = _simulate(runs, logistic50, target=(eps, f_star))
        outcomes = set()
        for r, (schedule, seed) in enumerate(zip(steps, seeds)):
            single = run_local_sgd(
                config.__class__(**{**config.__dict__, "steps": schedule, "seed": seed}),
                logistic50, stop_when=(eps, f_star))
            assert run.crossed[r] == (-1 if single.t_star is None else single.t_star)
            assert run.diverged[r] == single.diverged
            assert np.array_equal(run.final_iterates[r], single.final_iterates)
            evals = len(single.eval_steps)
            for kind in SCHEMES:
                f_row = run.f_by_scheme[kind][r]
                assert np.array_equal(f_row[:evals], single.f_by_scheme[kind])
                assert np.all(np.isnan(f_row[evals:]))
            outcomes.add("diverged" if single.diverged
                         else "unreached" if single.t_star is None else "reached")
        assert outcomes == {"diverged", "unreached", "reached"}
    # a run whose limit is step 0 leaves the batch at x0; the runs after it
    # in the stack are unchanged
    full = _simulate(runs, logistic50, target=(eps, f_star))
    kept = _simulate(runs, logistic50, target=(eps, f_star),
                     limits=lambda crossed: np.where(np.arange(len(steps)) > 0, np.inf, 0))
    assert kept.crossed[0] == -1 and not kept.diverged[0]
    assert np.array_equal(kept.final_iterates[0], np.zeros((3, d)))
    for name in ("crossed", "diverged", "final_iterates"):
        assert np.array_equal(getattr(kept, name)[1:], getattr(full, name)[1:])


def test_a_target_stops_each_run_where_it_first_reaches_eps(quad10):
    # with a target and no limits, the loop stops every run at its own t*:
    # its per-step rows read NaN after it, and t* is the one-seed run's
    obj, ref, _ = quad10
    config = quad_config(quad10, K=2, T=200, H=4, record=RecordFlags(deviations=True))
    seeds, target = [0, 1, 2, 3, 4], (0.1, ref.f_star)
    run = _simulate([replace(config, seed=seed) for seed in seeds], obj, target=target)
    assert run.crossed.tolist() == [14, 13, 13, 13, 14]
    for r, seed in enumerate(seeds):
        t_star = run.crossed[r]
        assert t_star == run_local_sgd(replace(config, seed=seed), obj, stop_when=target).t_star
        for row in (run.xbar[r], run.deviations[r]):
            assert np.isfinite(row[:t_star + 1]).all()
            assert np.isnan(row[t_star + 1:]).all()


def test_repeated_seeds_match_single_runs_bitwise(logistic50):
    # seeds 5 and 6 are drawn once each and shared by two runs; run 0
    # diverges and leaves the stack early, run 1 stops at its t*
    n, d = logistic50.n, logistic50.d
    steps = [ConstantStep(c=512.0), ExperimentDecayStep(c=0.5, n=n),
             ExperimentDecayStep(c=0.5, n=n), ConstantStep(c=0.0625)]
    seeds = [5, 6, 5, 6]
    target = (0.05, logistic50.value(np.zeros(d)) - 0.3)
    config = RunConfig(K=3, T=120, b=2, sync=regular_sync_schedule(120, 4),
                       steps=steps[0], seed=0, x0=np.zeros(d),
                       record=RecordFlags(deviations=True))
    run = _simulate([replace(config, seed=seed, steps=s) for seed, s in zip(seeds, steps)],
                    logistic50, target=target)
    assert run.diverged.tolist() == [True, False, False, False]
    assert run.crossed.tolist() == [-1, 118, -1, -1]
    # run 0 records the steps before its blow-up, run 1 the steps up to its
    # t*, and the others every step
    for r, (schedule, seed, rows) in enumerate(zip(steps, seeds, [40, 119, 121, 121])):
        single = run_local_sgd(
            config.__class__(**{**config.__dict__, "steps": schedule, "seed": seed}),
            logistic50, stop_when=target)
        # the batch row and the single run's full-length row alike record
        # up to the run's stop step and read NaN from there
        assert recorded_steps(single.xbar) == rows
        assert np.array_equal(run.xbar[r, :rows], single.xbar[:rows])
        assert np.array_equal(run.deviations[r, :rows], single.deviations[:rows])
        assert np.all(np.isnan(run.xbar[r, rows:]))
        for name in ("xbar", "deviations"):
            assert np.array_equal(getattr(run, name)[r], getattr(single, name), equal_nan=True)
        assert np.array_equal(run.output_average[r], single.output_average,
                              equal_nan=True)
        assert np.array_equal(run.final_iterates[r], single.final_iterates)


@pytest.mark.parametrize("chunk_steps", [None, 7, 16], ids=["default", "chunk-7", "chunk-16"])
def test_index_chunks_equal_the_spawned_generators_draws(monkeypatch, chunk_steps):
    # seeds of one to five 32-bit words, a numpy integer and a repeated
    # seed.  A batch of more than 8 streams whose seeds are all below 2^128
    # is hashed in one pass; the whole panel, which holds 2^128 and 2^130+7,
    # is spawned at every K, as are two seeds at K <= 4.  T*b odd, so a
    # chunk of 7 steps leaves a buffered 32-bit half for the next; 3*2^30
    # rejects ~25% of Lemire's draws, 2^32 takes every 32-bit word as is
    # and 2^32+1 the 64-bit path
    if chunk_steps is not None:
        monkeypatch.setattr(sync, "_CHUNK_STEPS", chunk_steps)
    passes = count_stream_state_passes(monkeypatch)
    panel = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 3, 2**128 - 1, 2**128, 2**130 + 7,
             np.uint32(5), 1]
    below = [seed for seed in panel if int(seed) < 2**128]
    T = 23
    for seeds in (panel, below, panel[4:6]):
        for n in (1, 2, 50, 64, 3 * 2**30, 2**32, 2**32 + 1):
            for K in range(1, 10):
                for b in (1, 2, 3):
                    passes.clear()
                    got = np.concatenate(list(_index_chunks(seeds, K, n, b, T)), axis=2)
                    want = [[rng.integers(0, n, size=(T, b))
                             for rng in sync._spawn_worker_rngs(s, K)] for s in seeds]
                    assert got.dtype == np.int64
                    assert np.array_equal(got, np.array(want)), (len(seeds), n, K, b)
                    hashed = (len(seeds) * K > sync._SPAWNED_STREAMS
                              and max(map(int, seeds)) < 2**128)
                    assert passes == ([K] if hashed else []), (len(seeds), K)


def _serial_iterates(config, objective, seed, schedule, stop):
    """A run's iterates after `stop` steps, one minibatch_gradient_many call per step."""
    X = np.tile(config.x0, (config.K, 1))
    indices = (chunk[0, :, i] for chunk in _index_chunks([seed], config.K, objective.n,
                                                          config.b, config.T)
               for i in range(chunk.shape[2]))
    for t, I in zip(range(stop), indices):
        X = X - schedule.eta(t) * objective.minibatch_gradient_many(X, I)
        if config.sync.is_sync(t + 1) and config.K > 1:
            X[:] = X.mean(axis=0, keepdims=True)
    return X


@pytest.mark.parametrize("K, b", [(1, 1), (1, 3), (4, 1), (4, 3)])
@pytest.mark.parametrize("cap", [None, 1000], ids=["default-cap", "small-cap"])
def test_block_planned_steps_equal_minibatch_gradients(monkeypatch, logistic50, quad10,
                                                       K, b, cap):
    # runs leave the stack inside the blocks [4, 8), [8, 16) and [16, 32),
    # and in a chunk of 16 steps; a small cap cuts blocks by their entries
    monkeypatch.setattr(sync, "_CHUNK_STEPS", 16)
    if cap is not None:
        monkeypatch.setattr(sync, "_BLOCK_ENTRIES", cap)
    T, seeds, stops = 40, [7, 7, 3, 7, 9], [5, 13, 40, 27, 40]
    for objective in (logistic50, quad10[0]):
        steps = [ConstantStep(c=2.0**i) for i in (-5, -4, -6, -3, -5)]
        config = RunConfig(K=K, T=T, b=b, sync=regular_sync_schedule(T, 3), steps=steps[0],
                           seed=0, x0=np.zeros(objective.d),
                           record=RecordFlags(virtual=False, deviations=False))
        run = _simulate([replace(config, seed=seed, steps=s) for seed, s in zip(seeds, steps)],
                        objective, limits=lambda crossed: np.array(stops))
        assert not run.diverged.any()
        for r, (seed, schedule, stop) in enumerate(zip(seeds, steps, stops)):
            want = _serial_iterates(config, objective, seed, schedule, stop)
            assert run.final_iterates[r].tobytes() == want.tobytes()


@pytest.mark.parametrize("row_entries", [None, 1.0], ids=["mean-rows", "underestimate"])
def test_blocks_hold_at_most_their_cap_of_entries(monkeypatch, logistic50, row_entries):
    # blocks are as long as the steps before them and hold at most the cap,
    # also when the mean row length the engine sizes them by is too small
    monkeypatch.setattr(sync, "_BLOCK_ENTRIES", 700)
    if row_entries is not None:
        monkeypatch.setattr(logistic50, "row_entries", row_entries)
    blocks = []
    plan = logistic50.sample_plans

    def recorded(I, max_entries=None):
        plans = plan(I, max_entries)
        blocks.append((len(I), len(plans), max_entries, sum(len(p[0]) for p in plans)))
        return plans
    monkeypatch.setitem(vars(logistic50), "sample_plans", recorded)
    T = 300
    config = RunConfig(K=4, T=T, b=3, sync=regular_sync_schedule(T, 4),
                       steps=ConstantStep(c=2.0**-5), seed=0, x0=np.zeros(logistic50.d),
                       record=RecordFlags(virtual=False, deviations=False, f_values=False))
    _simulate([replace(config, seed=1), replace(config, seed=2)], logistic50)
    assert sum(planned for _, planned, _, _ in blocks) == T
    start = 0
    for asked, planned, cap, entries in blocks:
        assert cap == 700 and planned <= asked <= max(1, start)
        assert planned == 1 or entries <= cap
        start += planned
    assert any(planned > 1 for _, planned, _, _ in blocks)
    if row_entries is not None:
        assert any(planned < asked for asked, planned, _, _ in blocks)


def test_a_plan_holds_the_longest_run_of_steps_within_its_cap(logistic50):
    I = np.random.default_rng(2).integers(0, logistic50.n, size=(30, 8, 3))
    sizes = [len(p[0]) for p in logistic50.sample_plans(I)]
    for cap in (0, sizes[0], sizes[0] + sizes[1] - 1, 400, sum(sizes)):
        planned = logistic50.sample_plans(I, cap)
        fits = int(np.sum(np.cumsum(sizes) <= cap))
        assert len(planned) == max(1, fits)
        for p, whole in zip(planned, logistic50.sample_plans(I)):
            assert all(np.array_equal(a, c) for a, c in zip(p, whole))


def test_fused_averages_equal_running_averages_per_scheme(monkeypatch, quad10):
    # every evaluation reads the flat (4, d) averages of the run, and the
    # (1, d) start point at t = 0; compare them with one RunningAverage per
    # scheme fed the recorded xbar
    objective = quad10[0]
    T = 5000
    config = quad_config(quad10, K=2, T=T, H=3,
                         record=RecordFlags(deviations=False, f_every=1))
    seen = []
    value_many = objective.value_many

    def recorded(Y):
        seen.append(Y.copy())
        return value_many(Y)
    monkeypatch.setitem(vars(objective), "value_many", recorded)
    trace = run_local_sgd(config, objective)
    assert len(seen) == T + 1 and trace.eval_steps.tolist() == list(range(T + 1))
    running = [RunningAverage(kind) for kind in SCHEMES]
    for t, x in enumerate(trace.xbar):
        want = np.stack([avg.update(x, t) for avg in running])
        got = seen[t].repeat(4, axis=0) if t == 0 else seen[t]
        assert got.tobytes() == want.tobytes()


def test_certified_miss_boundary():
    # a point exactly at eps, or within the rounding margin above it, is
    # evaluated; one clearly above eps is screened
    eps, zero = 0.05, np.zeros(4)
    f_z = np.array([eps, eps * (1.0 + 1e-12), eps * (1.0 + 1e-6), np.nan])
    assert _certified_miss(f_z, zero, zero, 0.0, eps, 0.0).tolist() == \
        [False, False, True, False]
    # the bound adds the slope and the curvature term, (mu/2) ||y - z||^2;
    # with eps = 2^-4 every sum below is exact
    eps = 2.0**-4
    f_z = np.array([2.0**-5, 2.0**-5 * (1.0 + 1e-6), 2.0**-3, 2.0**-3])
    slope = np.array([2.0**-6, 2.0**-6, -2.0**-4, -2.0**-4 - 2.0**-6])
    dist_sq = np.array([2.0**-5, 2.0**-5, 0.0, 2.0**-5])
    assert _certified_miss(f_z, slope, dist_sq, 1.0, eps, 0.0).tolist() == \
        [False, True, False, False]
    # a mu that is too small only weakens the bound
    assert not _certified_miss(f_z, slope, dist_sq, 0.0, eps, 0.0)[1]
    # f_star shifts the bound; lb - f_star = eps(1 + 1e-12) is still evaluated
    f_star = -0.5
    assert _certified_miss(np.array([f_star + eps * (1.0 + 1e-12), f_star + 2 * eps]),
                           np.zeros(2), np.zeros(2), 0.0, eps, f_star).tolist() == \
        [False, True]


def test_any_anchor_of_the_run_certifies_a_point():
    # run 0: each point sits at its own anchor, whose value eps/2 certifies
    # nothing, but the last anchor's slope lifts the bound at the first three
    # points above eps (a NaN anchor vetoes nothing); run 1 has the same
    # points and flat anchors, so no anchor of run 0 may screen its points.
    # With eps = 2^-4 every sum below is exact.
    eps = 2.0**-4
    Y = np.array([[0.0], [0.25], [0.5], [0.75]])[None].repeat(2, axis=0)
    z = Y.copy()
    f_z = np.array([[eps / 2, np.nan, eps / 2, eps / 2], [eps / 2] * 4])
    g_z = np.zeros((2, 4, 1))
    g_z[0, 3] = -0.5  # lb at point p: eps/2 + (0.75 - y_p) / 2
    screened = _certified_by_any(Y, z, f_z, g_z, 0.0, eps, 0.0)
    assert screened.tolist() == [[True, True, True, False], [False] * 4]
    # the own anchor alone (the diagonal) certifies none of them
    own = _certified_miss(f_z, np.vecdot(g_z, Y - z), np.zeros((2, 4)), 0.0, eps, 0.0)
    assert not own.any()
    # every pair agrees with `_certified_miss` on that pair alone
    for r, p, q in np.ndindex(2, 4, 4):
        D = Y[r, p] - z[r, q]
        pair = _certified_miss(f_z[r, q], g_z[r, q] @ D, D @ D, 0.0, eps, 0.0)
        assert not pair or screened[r, p]
    # a point at lb - f_star = eps (1 + 1e-12) under all four anchors is
    # evaluated, and at eps (1 + 1e-6) it is screened
    f_star = -0.5
    z = np.array([[[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [2.0, -1.0]]])
    Y = z[:, ::-1].copy()
    for rel, expected in ((1e-12, False), (1e-6, True)):
        f_z = np.full((1, 4), f_star + eps * (1.0 + rel))
        mask = _certified_by_any(Y, z, f_z, np.zeros((1, 4, 2)), 0.0, eps, f_star)
        assert mask.tolist() == [[expected] * 4]


def _count_value_passes(monkeypatch, objective):
    """Record the points of every value pass the objective instance makes."""
    calls = []
    for name in ("value_many", "value_and_gradient_many"):
        oracle = getattr(objective, name)

        def counted(X, oracle=oracle, name=name):
            calls.append((name, int(np.prod(X.shape[:-1]))))
            return oracle(X)
        monkeypatch.setitem(vars(objective), name, counted)
    return calls


def test_start_point_is_evaluated_once(monkeypatch, logistic50):
    # at t = 0 all six runs and four schemes sit at x0: one pass on one point
    n, d = logistic50.n, logistic50.d
    steps = ([ExperimentDecayStep(c=2.0**i, n=n) for i in (-3, 0, 1)]
             + [ConstantStep(c=2.0**i) for i in (-5, -2, 1)])
    T = 150
    config = RunConfig(K=4, T=T, b=1, sync=regular_sync_schedule(T, 1),
                       steps=steps[0], seed=0, x0=np.zeros(d),
                       record=RecordFlags(virtual=False, deviations=False,
                                          f_values=False))
    target = (0.02, reference_for(logistic50).f_star)
    calls = _count_value_passes(monkeypatch, logistic50)
    run = _simulate([replace(config, seed=seed, steps=s) for seed, s in enumerate(steps)],
                    logistic50, target=target, limits=lambda crossed: np.zeros(6))
    assert list(run.eval_steps) == [0]
    assert calls == [("value_and_gradient_many", 1)]
    assert (run.points_evaluated, run.points_screened) == (24, 0)


def test_recorded_values_at_the_start_equal_the_value_at_x0(monkeypatch, logistic50, quad10):
    # x0 is dyadic, so the mean of K copies of it is x0 itself
    for objective in (logistic50, quad10[0]):
        d = objective.d
        x0 = np.random.default_rng(3).integers(-8, 8, size=d) / 16.0
        T = 8
        config = RunConfig(K=4, T=T, b=1, sync=regular_sync_schedule(T, 2),
                           steps=ConstantStep(c=2.0**-4), seed=0, x0=x0,
                           record=RecordFlags(virtual=False, deviations=False))
        calls = _count_value_passes(monkeypatch, objective)
        run = _simulate([replace(config, seed=seed) for seed in range(6)], objective)
        assert calls[0] == ("value_many", 1)
        f0 = np.stack([run.f_by_scheme[kind][:, 0] for kind in SCHEMES], axis=1)
        assert f0.shape == (6, 4)
        assert f0.tobytes() == np.full((6, 4), objective.value(x0)).tobytes()
        monkeypatch.undo()


def test_screening_counts_every_point_of_every_evaluation(logistic50):
    # a target-only batch screens some points; evaluated plus screened is
    # four points per active run at every evaluation step, and the batch
    # stops and ends exactly as the batch that records every value
    n, d = logistic50.n, logistic50.d
    steps = ([ExperimentDecayStep(c=2.0**i, n=n) for i in (-3, 0)]
             + [ConstantStep(c=2.0**i) for i in (-5, -2, 1)])
    target, T = (0.02, reference_for(logistic50).f_star), 150
    runs = []
    for f_values in (False, True):
        config = RunConfig(K=2, T=T, b=1, sync=regular_sync_schedule(T, 1),
                           steps=steps[0], seed=0, x0=np.zeros(d),
                           record=RecordFlags(virtual=False, deviations=False,
                                              f_values=f_values))
        runs.append(_simulate([replace(config, seed=4, steps=s) for s in steps], logistic50,
                              target=target))
    screened, recorded = runs
    assert not screened.diverged.any()
    last = np.where(screened.crossed >= 0, screened.crossed, T)
    points = 4 * sum(int(np.sum(screened.eval_steps <= t)) for t in last)
    assert screened.points_evaluated + screened.points_screened == points
    assert screened.points_screened > screened.points_evaluated > 0
    assert screened.f_by_scheme is None
    assert (recorded.points_evaluated, recorded.points_screened) == (points, 0)
    assert (screened.crossed >= 0).any() and (screened.crossed < 0).any()
    for name in ("crossed", "diverged", "eval_steps", "final_iterates"):
        assert np.array_equal(getattr(screened, name), getattr(recorded, name))


def test_a_non_finite_value_reads_nan_at_its_own_point(monkeypatch):
    # f(x) = x^2/2 - 4x from x0 = 0 at step 0.1: xbar_t = 4 (1 - 0.9^t)
    # passes c at t = 36, when the last iterate is within eps of f_star and
    # the three averages, which lag it, are still below c and outside eps
    obj = ThresholdQuadratic([1.0], [[4.0]], c=3.905)
    f_star, eps, t_fail = -8.0, 0.5 * (4.0 - obj.c) ** 2, 36
    traces, passes = [], []
    for f_values in (True, False):
        config = RunConfig(K=1, T=100, b=1, sync=regular_sync_schedule(100, 1),
                           steps=ConstantStep(c=0.1 / 32), seed=0, x0=np.zeros(1),
                           record=RecordFlags(f_values=f_values, f_every=1))
        passes.append(_count_value_passes(monkeypatch, obj))
        traces.append(run_local_sgd(config, obj, stop_when=(eps, f_star)))
        monkeypatch.undo()
    recorded, screened = traces
    # the step whose last iterate is past c, like every other evaluation,
    # is one stacked pass over its points
    assert passes[0] == [("value_many", 1)] + [("value_many", 4)] * t_fail
    assert {name for name, _ in passes[1]} == {"value_and_gradient_many"}
    assert len(passes[1]) <= len(screened.eval_steps)
    assert recorded.xbar[t_fail - 1, 0] < obj.c < recorded.xbar[t_fail, 0]
    # only the failing scheme reads NaN, and the run diverges and freezes there
    row = [recorded.f_by_scheme[s][-1] for s in SCHEMES]
    assert np.isnan(row[0]) and np.all(np.isfinite(row[1:]))
    assert recorded.diverged and recorded.t_star is None
    assert recorded.eval_steps[-1] == t_fail
    assert np.array_equal(recorded.final_iterates, recorded.xbar[t_fail:t_fail + 1])
    assert np.isnan(recorded.xbar[t_fail + 1:]).all()
    # screening evaluates the failing point too, so it stops at the same step
    assert screened.diverged and screened.t_star is None
    assert screened.eval_steps[-1] == t_fail
    assert np.array_equal(screened.final_iterates, recorded.final_iterates)


def test_config_validation(quad10):
    obj, _, const = quad10
    with pytest.raises(ValueError):
        RunConfig(K=0, T=5, b=1, sync=regular_sync_schedule(5, 1),
                  steps=ConstantStep(c=0.01), seed=0, x0=np.zeros(obj.d))
    with pytest.raises(ValueError, match="horizon"):
        RunConfig(K=1, T=5, b=1, sync=regular_sync_schedule(6, 1),
                  steps=ConstantStep(c=0.01), seed=0, x0=np.zeros(obj.d))
    # invalid shift parameter for the decaying schedule is rejected at run time
    bad = RunConfig(K=2, T=8, b=1, sync=regular_sync_schedule(8, 8),
                    steps=TheoremDecayStep(mu=const.mu, a=7.0), seed=0,
                    x0=np.zeros(obj.d))
    with pytest.raises(ValueError, match="shift"):
        run_local_sgd(bad, obj)


def test_constant_step_runs_on_an_unregularized_objective(synth50):
    # mu = 0 here, so kappa is undefined; only a decaying schedule needs it
    obj = LogisticObjective(synth50, lam=0.0)
    config = RunConfig(K=2, T=8, b=1, sync=regular_sync_schedule(8, 4),
                       steps=ConstantStep(c=0.1), seed=0, x0=np.zeros(obj.d))
    trace = run_local_sgd(config, obj)
    assert np.all(np.isfinite(trace.xbar)) and not trace.diverged


def test_dimension_mismatch(quad10):
    obj, _, _ = quad10
    config = replace(quad_config(quad10, K=1, T=4, H=1), x0=np.zeros(3))
    with pytest.raises(ValueError, match="dimension"):
        run_local_sgd(config, obj)


@pytest.mark.parametrize("field, value, message", [
    *[(field, value, f"{field} must be an integer >= 1, got {value!r}")
      for field, value in (("K", 2.5), ("K", True), ("K", 0), ("T", np.float64(5.0)),
                           ("b", 0), ("b", True))],
    *[("seed", value, f"seed must be an integer >= 0, got {value!r}")
      for value in (-1, 1.5, True)],
    ("x0", np.zeros((2, 10)), "x0 must be 1-D, got shape (2, 10)"),
])
def test_run_config_rejects_a_count_a_seed_or_a_start_out_of_range(quad10, field, value,
                                                                    message):
    # each used to be accepted (K=True, T=5.0), to fail deep in a run (a
    # fractional K, a negative seed, a (K, d) start), or to be rejected
    # without naming its field
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(quad_config(quad10, K=2, T=5, H=1), **{field: value})


def test_a_config_cannot_be_changed_after_its_checks(quad10):
    # an assignment after construction used to bypass every check, such as
    # x0's dimension or the lemma fixture's rules; `replace` runs them again
    spec = DatasetSpec(kind="quadratic")
    configs = {
        "x0": quad_config(quad10, K=2, T=5, H=1),
        "f_every": RecordFlags(),
        "n": spec,
        "lemmas": ExperimentConfig(dataset=spec, eps_list=[0.1], K_list=[1], H_list=[1],
                                   b_list=[1]),
    }
    for name, config in configs.items():
        before = getattr(config, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(config, name, None)
        assert getattr(config, name) is before
    # nor can the lemma keywords or a sweep list be changed in place
    experiment = configs["lemmas"]
    with pytest.raises(TypeError):
        experiment.lemmas["runs"] = 1
    with pytest.raises(TypeError):
        experiment.K_list[0] = 0
    assert experiment.lemmas == {} and experiment.K_list == (1,)


@pytest.mark.parametrize("seeds", [[-1, 2], [3, 1.5], [True], [0, "1"]])
def test_an_ensemble_rejects_a_seed_that_is_not_a_nonnegative_integer(quad10, seeds):
    # before any oracle call, where it used to fail inside SeedSequence
    counter = GradientCounter(quad10[0])
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
        run_local_sgd_ensemble(quad_config(quad10, K=2, T=5, H=1), counter, seeds)
    assert not counter.counts
    assert run_local_sgd_ensemble(quad_config(quad10, K=2, T=5, H=1), quad10[0],
                                  [np.int64(3), np.uint32(4)]).xbar.shape == (2, 6, 10)


@pytest.mark.parametrize("f_every", [0, -3, 2.7, 2.0, True, "2"])
def test_record_flags_reject_an_f_every_that_is_not_a_positive_integer(f_every):
    # no stride is rounded or clamped: 0 is not read as 1, nor 2.7 as 2
    message = f"f_every must be an integer >= 1, got {f_every!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RecordFlags(f_every=f_every)
    for ok in (None, 1, 7, np.int64(3)):
        assert RecordFlags(f_every=ok).f_every == ok


@pytest.mark.parametrize("name", ["virtual", "deviations", "f_values", "iterates",
                                  "noise_norms"])
def test_record_flags_take_only_a_bool_as_a_switch(name):
    # no switch is read by its truthiness: "yes", 0 and None are errors
    for value in ("yes", 0, 1, None, np.True_):
        message = f"{name} must be a bool, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            RecordFlags(**{name: value})
    for value in (True, False):
        assert getattr(RecordFlags(**{name: value}), name) is value


def test_per_run_periods_evaluate_sync_and_leave_at_their_own_steps(logistic50):
    # runs with periods 1, 4 and 3 and an evaluation stride of 5: each is
    # screened, evaluated and left at its limit only at its own steps
    # (every 5th step and its sync indices), and each row is its one-seed
    # run under its own sync schedule
    T, d, limit = 40, logistic50.d, 7
    f_star = reference_for(logistic50).f_star
    syncs = [regular_sync_schedule(T, H) for H in (1, 4, 3)]
    steps = [ConstantStep(c=2.0**i) for i in (-6, -6, -5)]
    config = RunConfig(K=3, T=T, b=1, sync=syncs[0], steps=steps[0], seed=0,
                       x0=np.zeros(d), record=RecordFlags(virtual=False, deviations=False,
                                                          f_values=False, f_every=5))
    seeds = [2, 5, 2]
    runs = [replace(config, seed=seed, steps=schedule, sync=sync)
            for seed, schedule, sync in zip(seeds, steps, syncs)]
    mixed = _simulate(runs, logistic50, target=(1e-9, f_star),
                      limits=lambda crossed: np.full(3, limit))
    # the first own evaluation step at or after the limit
    assert not (mixed.crossed >= 0).any()
    left = [min(t for t in range(limit, T + 1) if t % 5 == 0 or sync.is_sync(t))
            for sync in syncs]
    assert left == [7, 8, 9]
    own = [sum(1 for t in range(stop + 1) if t % 5 == 0 or sync.is_sync(t))
           for stop, sync in zip(left, syncs)]
    assert mixed.points_evaluated + mixed.points_screened == 4 * sum(own)
    assert mixed.eval_steps.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    for r, run in enumerate(runs):
        alone = _simulate([run], logistic50, target=(1e-9, f_star),
                          limits=lambda crossed: np.full(1, limit))
        assert mixed.final_iterates[r].tobytes() == alone.final_iterates[0].tobytes()
        assert len(alone.eval_steps) == own[r]


def test_per_run_periods_count_the_steps_some_run_syncs_after(quad10):
    # comm_rounds is the loop's count of steps after which some run took
    # its worker mean; with one period it is every run's own count
    T, record = 10, RecordFlags(virtual=False, f_values=False, iterates=True)
    config = quad_config(quad10, K=2, T=T, H=2, record=record)
    syncs = [regular_sync_schedule(T, 2), regular_sync_schedule(T, 5)]
    mixed = _simulate([replace(config, seed=r, sync=sync) for r, sync in enumerate(syncs)],
                      quad10[0])
    assert mixed.comm_rounds == len({2, 4, 6, 8, 10} | {5, 10}) == 6
    assert run_local_sgd_ensemble(config, quad10[0], [0, 1]).comm_rounds == 5
    # the workers of each run agree exactly at its own sync indices only
    for r, sync in enumerate(syncs):
        agree = [t for t in range(1, T + 1)
                 if np.array_equal(mixed.iterates[r, 0, t], mixed.iterates[r, 1, t])]
        assert agree == list(sync.indices)
    # a run that has left counts no more: the H = 1 run leaves at its limit,
    # step 3, before its sync after it, and the H = 5 run goes on to T
    config = quad_config(quad10, K=2, T=T, H=5,
                         record=RecordFlags(virtual=False, f_values=False))
    left = _simulate([replace(config, seed=r, sync=regular_sync_schedule(T, H))
                      for r, H in enumerate((1, 5))], quad10[0],
                     target=(1e-300, quad10[1].f_star), limits=lambda crossed: np.array([3, T]))
    assert left.crossed.tolist() == [-1, -1]
    assert left.comm_rounds == len({1, 2, 3} | {5, 10}) == 5


BATCH_RULE = "the runs of a batch must share K, T, b, x0 and record"


@pytest.mark.parametrize("case, message", [
    ("K", BATCH_RULE),
    ("T", BATCH_RULE),
    ("b", BATCH_RULE),
    ("x0", BATCH_RULE),
    ("record", BATCH_RULE),
    ("f_values", "per-run sync periods need record.f_values off: eval_steps and "
                 "f_by_scheme have one layout for all runs"),
    ("exchange", "per-run sync periods do not apply to an async exchange"),
    ("shift", "shift a=1.5 must exceed max(16*kappa, window)=64.0 (kappa=4.0, window=5)"),
])
def test_per_run_periods_reject_what_they_do_not_support(quad10, case, message):
    # each rule is checked before any oracle call: a batch of two runs with
    # the periods 2 and 5, whose second run differs from the first in one
    # field the runs of a batch share, or, with the shift of a schedule
    # checked against its run's period, has a shift too small for its own
    counter = GradientCounter(quad10[0])
    T, off = 10, RecordFlags(virtual=False, f_values=False)
    config = quad_config(quad10, K=2, T=T, H=2, record=RecordFlags() if case == "f_values"
                         else off)
    second = {"K": {"K": 3}, "T": {"T": T + 1, "sync": regular_sync_schedule(T + 1, 5)},
              "b": {"b": 2}, "x0": {"x0": np.ones(quad10[0].d)},
              "record": {"record": replace(off, deviations=True)},
              "shift": {"steps": TheoremDecayStep(mu=1.0, a=1.5)}}.get(case, {})
    runs = [config, replace(config, **{"seed": 1, "sync": regular_sync_schedule(T, 5), **second})]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _simulate(runs, counter, exchange=object() if case == "exchange" else None)
    assert not counter.counts


@pytest.mark.parametrize("d", [1, 2, 10])
@pytest.mark.parametrize("K", [1, 2, 7, 8, 9, 16])
def test_worker_major_reductions_equal_the_run_major_formulas(d, K):
    # the engine's reductions over the workers of its (K, S, d) stack, as
    # written in `_simulate`, against the run-major (S, K, d) formulas they
    # replaced, bitwise: the worker mean, the masked merge, deviations and
    # noise_sq.  Run 1 is all -0.0 and run 3 holds inf, -inf and NaN;
    # S = 1 takes each run alone
    rng = np.random.default_rng(100 * K + d)
    pool = rng.standard_normal((3, 5, K, d)) * np.exp(rng.uniform(-20, 20, (3, 5, K, d)))
    pool[:, 1] = -0.0
    pool[0, 3, 0, 0], pool[1, 3, -1, -1], pool[2, 3, K // 2, d // 2] = np.inf, -np.inf, np.nan
    mask = np.array([True, False, True, True, False])
    with np.errstate(invalid="ignore", over="ignore"):
        for runs in [[r] for r in range(5)] + [list(range(5))]:
            X, G, F = (np.array(a[runs]) for a in pool)
            W, GW, FW = (np.ascontiguousarray(a.swapaxes(0, 1)) for a in (X, G, F))
            xbar = X[:, 0] if K == 1 else X.sum(axis=1) / K
            assert _worker_mean(W).tobytes() == xbar.tobytes()
            deviations = np.mean(np.sum((X - xbar[:, None, :]) ** 2, axis=2), axis=1)
            assert _worker_mean(np.sum((W - xbar) ** 2, axis=2, keepdims=True))[:, 0].tobytes() \
                == deviations.tobytes()
            noise_sq = np.sum((G.mean(axis=1) - F.mean(axis=1)) ** 2, axis=1)
            assert np.sum((_worker_mean(GW) - _worker_mean(FW)) ** 2, axis=1).tobytes() \
                == noise_sq.tobytes()
            if K > 1:
                np.copyto(X, X.mean(axis=1, keepdims=True), where=mask[runs, None, None])
                np.copyto(W, _worker_mean(W), where=mask[None, runs, None])
                assert W.tobytes() == np.ascontiguousarray(X.swapaxes(0, 1)).tobytes()


@pytest.mark.parametrize("K, expected", [
    (8, "f30fe27ca888a2c33b3b47a12cb03ee395861365eceb6680f2e64d82b7dd5498"),
    (16, "de7955cb866967f05272580e84617e6e2f81ab731b2f444ee6040b9af21020d0"),
])
def test_one_dimensional_ensembles_keep_their_bytes(K, expected):
    # at d = 1 and K >= 8 numpy sums a contiguous worker axis pairwise, so
    # the worker mean keeps the run-major order there; these digests were
    # recorded with the run-major (S, K, d) stack
    obj = make_quadratic(d=1, mu=1.0, L=1.0, n=64, noise=1.0, seed=3)[0]
    T, H = 48, 4
    config = RunConfig(K=K, T=T, b=2, sync=regular_sync_schedule(T, H),
                       steps=theorem_steps(obj.curvature(), H), seed=0, x0=np.full(1, 0.5),
                       record=RecordFlags(deviations=True, noise_norms=True, iterates=True))
    result = run_local_sgd_ensemble(config, obj, list(range(5)))
    digest = hashlib.sha256()
    for row in (result.xbar, result.deviations, result.noise_sq, result.iterates,
                result.final_iterates, result.output_average, *result.f_by_scheme.values()):
        digest.update(row.tobytes())
    assert digest.hexdigest() == expected
