import numpy as np
import pytest

from localsgd import (
    ConstantStep,
    QuadraticObjective,
    RecordFlags,
    RunConfig,
    TheoremDecayStep,
    regular_sync_schedule,
    run_local_sgd,
    run_local_sgd_ensemble,
    run_minibatch_sgd,
)
from localsgd.averaging import SCHEMES
from localsgd.schedules import ExperimentDecayStep
from localsgd.sync import _simulate


def quad_config(quad10, K, T, H, b=1, seed=0, record=None, a_extra=0.0):
    obj, ref, const = quad10
    steps = TheoremDecayStep(mu=const.mu, a=max(16.0 * const.kappa, H) + 1.0 + a_extra)
    return RunConfig(
        K=K, T=T, b=b, sync=regular_sync_schedule(T, H), steps=steps, seed=seed,
        x0=np.zeros(obj.d), record=record or RecordFlags(iterates=True),
    )


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


def test_every_step_sync_equals_coupled_minibatch(quad10):
    obj, _, _ = quad10
    for K, b in ((2, 1), (4, 2)):
        config = quad_config(quad10, K=K, T=50, H=1, b=b, seed=99)
        trace = run_local_sgd(config, obj)
        baseline = run_minibatch_sgd(config, obj)
        assert np.max(np.abs(trace.xbar - baseline)) <= 1e-12


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


def test_ensemble_matches_scalar_engine(quad10):
    obj, ref, _ = quad10
    config = quad_config(quad10, K=4, T=30, H=3, seed=0)
    seeds = [11, 222, 3333]
    ensemble = run_local_sgd_ensemble(
        config, obj, seeds, ref_point=ref.x_star,
        record_deviations=True, record_noise=True, record_f_xbar=True,
        track_second_moment=True,
    )
    for r, seed in enumerate(seeds):
        single = run_local_sgd(
            config.__class__(**{**config.__dict__, "seed": seed,
                                "record": RecordFlags(iterates=True,
                                                      noise_norms=True,
                                                      f_virtual=True)}),
            obj,
        )
        assert np.array_equal(ensemble.deviations[r], single.deviations)
        assert np.array_equal(ensemble.output_average[r], single.output_average)
        assert np.allclose(ensemble.noise_sq[r], single.noise_sq, atol=1e-15)
        assert np.allclose(ensemble.f_xbar[r], single.f_xbar, atol=1e-15)
        dist = np.sum((single.xbar - ref.x_star) ** 2, axis=1)
        assert np.allclose(ensemble.dist_sq[r], dist, atol=1e-15)


def test_ensemble_matches_scalar_engine_on_logistic(logistic50):
    # both engines share one loop and one CSR oracle, so they agree to
    # rounding (bitwise, as the next test checks)
    mu, L = logistic50.curvature()
    config = RunConfig(
        K=3, T=40, b=2, sync=regular_sync_schedule(40, 4),
        steps=TheoremDecayStep(mu=mu, a=max(16.0 * L / mu, 4.0) + 1.0),
        seed=0, x0=np.zeros(logistic50.d), record=RecordFlags(iterates=True),
    )
    ensemble = run_local_sgd_ensemble(config, logistic50, [42], record_deviations=True)
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
        steps=TheoremDecayStep(mu=mu, a=max(16.0 * L / mu, 4.0) + 1.0),
        seed=0, x0=np.zeros(logistic50.d),
        record=RecordFlags(noise_norms=True, f_virtual=True, f_every=1),
    )
    seeds = [42, 7]
    f_star = logistic50.value(np.zeros(logistic50.d)) - 0.05
    ensemble = run_local_sgd_ensemble(
        config, logistic50, seeds, record_deviations=True, record_noise=True,
        record_f_xbar=True, accuracy_target=(0.01, f_star),
    )
    for r, seed in enumerate(seeds):
        single = run_local_sgd(config.__class__(**{**config.__dict__, "seed": seed}),
                               logistic50)
        assert np.array_equal(ensemble.deviations[r], single.deviations)
        assert np.array_equal(ensemble.noise_sq[r], single.noise_sq)
        assert np.array_equal(ensemble.f_xbar[r], single.f_xbar)
        assert np.array_equal(ensemble.output_average[r], single.output_average)
        expected = run_local_sgd(config.__class__(**{**config.__dict__, "seed": seed}),
                                 logistic50, stop_when=(0.01, f_star)).t_star
        assert ensemble.crossing_step[r] == (-1 if expected is None else expected)


def test_ensemble_flags_divergence_like_scalar_engine(quad10):
    obj, _, _ = quad10
    seeds = [3, 4, 5]
    for c, blows_up in ((4.0, True), (1.0 / 256.0, False)):
        config = RunConfig(
            K=2, T=60, b=1, sync=regular_sync_schedule(60, 3),
            steps=ConstantStep(c=c), seed=0, x0=np.zeros(obj.d),
        )
        ensemble = run_local_sgd_ensemble(config, obj, seeds, record_deviations=True)
        for r, seed in enumerate(seeds):
            single = run_local_sgd(
                config.__class__(**{**config.__dict__, "seed": seed}), obj)
            assert single.diverged == blows_up
            assert bool(ensemble.diverged[r]) == single.diverged
            # the run records what the single run recorded, then NaN
            recorded = len(single.deviations)
            assert np.array_equal(ensemble.deviations[r][:recorded], single.deviations)
            assert np.all(np.isnan(ensemble.deviations[r][recorded:]))
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
        run = _simulate(config, logistic50, seeds, config.record, steps=steps,
                        target=(eps, f_star), keep=lambda t, crossed: crossed < 0)
        f_rows = np.asarray(run["rows"]["f_values"])
        outcomes = set()
        for r, (schedule, seed) in enumerate(zip(steps, seeds)):
            single = run_local_sgd(
                config.__class__(**{**config.__dict__, "steps": schedule, "seed": seed}),
                logistic50, stop_when=(eps, f_star))
            assert run["crossed"][r] == (-1 if single.t_star is None else single.t_star)
            assert run["diverged"][r] == single.diverged
            assert np.array_equal(run["final_iterates"][r], single.final_iterates)
            evals = len(single.eval_steps)
            for j, kind in enumerate(SCHEMES):
                assert np.array_equal(f_rows[:evals, r, j], single.f_by_scheme[kind])
            assert np.all(np.isnan(f_rows[evals:, r]))
            outcomes.add("diverged" if single.diverged
                         else "unreached" if single.t_star is None else "reached")
        assert outcomes == {"diverged", "unreached", "reached"}
    # a run that `keep` drops at the first evaluation leaves the batch at
    # x0; the runs after it in the stack are unchanged
    full = _simulate(config, logistic50, seeds, config.record, steps=steps,
                     target=(eps, f_star), keep=lambda t, crossed: crossed < 0)
    kept = _simulate(config, logistic50, seeds, config.record, steps=steps,
                     target=(eps, f_star),
                     keep=lambda t, crossed: (np.arange(len(steps)) > 0) & (crossed < 0))
    assert kept["crossed"][0] == -1 and not kept["diverged"][0]
    assert np.array_equal(kept["final_iterates"][0], np.zeros((3, d)))
    for name in ("crossed", "diverged", "final_iterates"):
        assert np.array_equal(kept[name][1:], full[name][1:])


def test_repeated_seeds_match_single_runs_bitwise(logistic50):
    # seeds 5 and 6 are drawn once each and shared by two runs; run 0
    # diverges and leaves the stack early, run 1 stops at its t*
    n, d = logistic50.n, logistic50.d
    steps = [ConstantStep(c=512.0), ExperimentDecayStep(c=0.5, n=n),
             ExperimentDecayStep(c=0.5, n=n), ConstantStep(c=0.0625)]
    seeds = [5, 6, 5, 6]
    target = (0.05, logistic50.value(np.zeros(d)) - 0.3)
    config = RunConfig(K=3, T=120, b=2, sync=regular_sync_schedule(120, 4),
                       steps=steps[0], seed=0, x0=np.zeros(d))
    run = _simulate(config, logistic50, seeds, config.record, steps=steps, target=target,
                    keep=lambda t, crossed: crossed < 0)
    assert run["diverged"].tolist() == [True, False, False, False]
    assert run["crossed"].tolist() == [-1, 118, -1, -1]
    for r, (schedule, seed) in enumerate(zip(steps, seeds)):
        single = run_local_sgd(
            config.__class__(**{**config.__dict__, "steps": schedule, "seed": seed}),
            logistic50, stop_when=target)
        rows = len(single.xbar)
        assert np.array_equal(run["rows"]["xbar"][:rows, r], single.xbar)
        assert np.array_equal(run["rows"]["deviations"][:rows, r], single.deviations)
        assert np.all(np.isnan(run["rows"]["xbar"][rows:, r]))
        assert np.array_equal(run["final_iterates"][r], single.final_iterates)


def test_ensemble_crossing_matches_iterations_to_accuracy(quad10):
    obj, ref, _ = quad10
    config = quad_config(quad10, K=2, T=150, H=5, seed=0,
                         record=RecordFlags(f_every=1))
    f0 = obj.value(np.zeros(obj.d))
    eps = (f0 - ref.f_star) / 3.0
    seeds = [5, 6]
    ensemble = run_local_sgd_ensemble(config, obj, seeds,
                                      accuracy_target=(eps, ref.f_star))
    for r, seed in enumerate(seeds):
        expected = run_local_sgd(
            config.__class__(**{**config.__dict__, "seed": seed}), obj,
            stop_when=(eps, ref.f_star),
        ).t_star
        assert ensemble.crossing_step[r] == (-1 if expected is None else expected)


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


def test_dimension_mismatch(quad10):
    obj, _, _ = quad10
    config = quad_config(quad10, K=1, T=4, H=1)
    config.x0 = np.zeros(3)
    with pytest.raises(ValueError, match="dimension"):
        run_local_sgd(config, obj)
