import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from localsgd import (
    CheckReport,
    DelayModel,
    ProblemConstants,
    RecordFlags,
    ReferenceSolution,
    RunConfig,
    check_async_deviation,
    check_deviation_bound,
    check_perturbed_inequality,
    check_recursion_lemma,
    check_variance_reduction,
    lemma_suite,
    make_quadratic,
    regular_sync_schedule,
    run_async_local_sgd,
    run_local_sgd,
    run_local_sgd_ensemble,
    theorem_steps,
)
from localsgd import lemmas
from localsgd.asynchronous import run_async_ensemble
from localsgd.harness import reference_for
from localsgd.lemmas import _PERTURBED_POINTS, _run_seeds, _tightest_step, make_equality_builder
from oracles import GradientCounter, ThresholdQuadratic, perturbed_by_loop


def theorem_config(obj, const, K, T, H, window=None, seed=0, b=1):
    return RunConfig(
        K=K, T=T, b=b, sync=regular_sync_schedule(T, H),
        steps=theorem_steps((const.mu, const.L), H if window is None else window),
        seed=seed, x0=np.zeros(obj.d),
        record=RecordFlags(virtual=False, f_values=False),
    )


# --- variance reduction -------------------------------------------------


def test_variance_reduction_noise_free():
    obj, _, _ = make_quadratic(d=4, mu=1.0, L=2.0, n=8, noise=0.0, seed=1)
    states = [np.ones(4) * k for k in range(3)]
    report = check_variance_reduction(obj, states, trials=200, seed=0)
    assert report.statistic <= 1e-12
    assert report.passed


def test_variance_reduction_passes_on_the_default_noise_free_quadratic():
    # the default quadratic's 64 equal linear terms: a mean that rounds away
    # from the row would leave every component the same nonzero deviation
    obj, _, _ = make_quadratic(d=10, mu=1.0, L=4.0, n=64, noise=0.0, seed=7)
    states = [np.full(10, float(k)) for k in range(4)]
    report = check_variance_reduction(obj, states, trials=200, seed=0)
    assert report.statistic == 0.0
    assert report.passed


def test_variance_reduction_single_worker(quad10):
    obj, _, _ = quad10
    report = check_variance_reduction(obj, [np.zeros(obj.d)], trials=2000, seed=1)
    # K=1: the statistic estimates the per-point variance itself
    assert abs(report.statistic - obj.variance_at(np.zeros(obj.d))) <= 3 * report.stderr
    assert report.passed


def test_variance_reduction_independent_sum_identity(logistic50):
    rng = np.random.default_rng(7)
    K = 8
    states = [rng.standard_normal(logistic50.d) * 0.5 for _ in range(K)]
    report = check_variance_reduction(logistic50, states, trials=3000, seed=2)
    assert report.passed
    # proof-step identity: the exact aggregate noise is (1/K^2) sum_k Var_k
    expected = sum(logistic50.variance_at(x) for x in states) / K**2
    assert abs(report.detail["exact_statistic"] - expected) <= 1e-10

    # brute-force oracle on a tiny problem: enumerate all n^K index tuples
    tiny, _, _ = make_quadratic(d=2, mu=1.0, L=2.0, n=3, noise=0.8, seed=3)
    pts = [np.zeros(2), np.ones(2)]
    gbar = np.mean([tiny.gradient(x) for x in pts], axis=0)
    total = 0.0
    for combo in itertools.product(range(3), repeat=2):
        g = np.mean([tiny.component_gradient(x, i) for x, i in zip(pts, combo)], axis=0)
        total += float((g - gbar) @ (g - gbar))
    brute = total / 3**2
    identity = sum(tiny.variance_at(x) for x in pts) / 4
    assert abs(brute - identity) <= 1e-10


def test_variance_reduction_rejects_few_trials(quad10):
    obj, _, _ = quad10
    with pytest.raises(ValueError, match="100"):
        check_variance_reduction(obj, [np.zeros(obj.d)], trials=50)
    with pytest.raises(ValueError, match="^trials must be an integer >= 100, got 150.5$"):
        check_variance_reduction(obj, [np.zeros(obj.d)], trials=150.5)


def test_variance_reduction_rejects_no_states(quad10):
    # an empty list of worker states is rejected before any oracle call
    obj, _, _ = quad10
    counter = GradientCounter(obj)
    message = "the number of worker states must be an integer >= 1, got 0"
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_variance_reduction(counter, [], 100)
    assert not counter.counts


# --- synchronous deviation ----------------------------------------------


def test_deviation_bound_quadratic(quad10):
    obj, _, const = quad10
    config = theorem_config(obj, const, K=2, T=48, H=4)
    report = check_deviation_bound(config, obj, runs=1000, seed=0)
    assert report.passed
    assert report.margin > 0


def test_deviation_zero_at_sync_and_for_every_step_schedule(quad10):
    obj, _, const = quad10
    config = theorem_config(obj, const, K=4, T=24, H=1)
    record = replace(config.record, deviations=True)
    result = run_local_sgd_ensemble(replace(config, record=record), obj, [1, 2, 3])
    assert np.max(result.deviations) <= 1e-24  # H=1: synchronized every step
    report = check_deviation_bound(config, obj, runs=200, seed=1)
    assert report.statistic == 0.0
    assert report.passed


def test_deviation_bound_requires_decaying_steps(quad10):
    obj, _, const = quad10
    from localsgd import ConstantStep

    config = replace(theorem_config(obj, const, K=2, T=16, H=4), steps=ConstantStep(c=0.001))
    with pytest.raises(ValueError, match="decaying"):
        check_deviation_bound(config, obj, runs=100)


@pytest.mark.parametrize("runs", [0, 1])
@pytest.mark.parametrize("check", ["deviation-bound", "perturbed-step", "async-deviation"])
def test_statistical_checks_need_two_runs_before_any_oracle_call(quad10, check, runs):
    # a standard error needs two runs, the rule validate_fixture states for
    # the suite; no runs used to raise ZeroDivisionError, and one run a
    # failing report with a NaN standard error
    obj, ref, const = quad10
    counter = GradientCounter(obj)
    config = theorem_config(obj, const, K=2, T=16, H=4, window=6)
    run = {"deviation-bound": lambda: check_deviation_bound(config, counter, runs),
           "perturbed-step": lambda: check_perturbed_inequality(config, counter, ref, runs),
           "async-deviation": lambda: check_async_deviation(
               config, DelayModel("fixed", tau=2), counter, runs)}[check]
    with pytest.raises(ValueError, match=f"^runs must be an integer >= 2, got {runs}$"):
        run()
    assert not counter.counts


@pytest.mark.parametrize("seed", [1.5, True, -1])
@pytest.mark.parametrize("check", ["variance-reduction", "deviation-bound", "perturbed-step",
                                   "async-deviation"])
def test_statistical_checks_take_the_seed_through_the_integer_rule(quad10, check, seed):
    # each check, called directly, rejects a seed that is not an integer
    # >= 0 before any oracle call, as lemma_suite's fixture rule does
    obj, ref, const = quad10
    counter = GradientCounter(obj)
    config = theorem_config(obj, const, K=2, T=16, H=4, window=6)
    run = {"variance-reduction": lambda: check_variance_reduction(
               counter, [np.zeros(obj.d)] * 2, trials=100, seed=seed),
           "deviation-bound": lambda: check_deviation_bound(config, counter, 2, seed=seed),
           "perturbed-step": lambda: check_perturbed_inequality(config, counter, ref, 2,
                                                                seed=seed),
           "async-deviation": lambda: check_async_deviation(
               config, DelayModel("fixed", tau=2), counter, 2, seed=seed)}[check]
    message = f"seed must be an integer >= 0, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()
    assert not counter.counts


# --- perturbed step inequality ------------------------------------------


def test_perturbed_inequality_deterministic_contraction():
    # one worker, one component: the inequality reduces to the closed-form
    # contraction ||x_{t+1}-x*||^2 <= (1-mu eta)||x_t-x*||^2 - eta/2 (f-f*)
    obj, ref, const = make_quadratic(d=3, mu=1.0, L=2.0, n=1, noise=0.0, seed=5)
    config = theorem_config(obj, const, K=1, T=32, H=1)
    report = check_perturbed_inequality(config, obj, ref, runs=100, seed=0)
    assert report.passed

    # direct closed-form verification of the same reduction
    eta = config.steps.eta(0)
    x = np.array([1.0, -2.0, 0.5]) + ref.x_star
    x_next = x - eta * obj.gradient(x)
    lhs = float((x_next - ref.x_star) @ (x_next - ref.x_star))
    rhs = (1 - const.mu * eta) * float((x - ref.x_star) @ (x - ref.x_star)) \
        - 0.5 * eta * (obj.value(x) - ref.f_star)
    assert lhs <= rhs + 1e-12


def test_perturbed_inequality_noise_free_with_drift(quad10):
    obj, ref, const = make_quadratic(d=10, mu=1.0, L=4.0, n=16, noise=0.0, seed=9)
    config = theorem_config(obj, const, K=4, T=40, H=5)
    report = check_perturbed_inequality(config, obj, ref, runs=100, seed=3)
    assert report.passed


def test_perturbed_inequality_logistic_fixture(logistic50):
    mu, L = logistic50.curvature()
    const = ProblemConstants(L=L, mu=mu, sigma_sq=0.0, G_sq=0.0)
    ref = reference_for(logistic50, tolerance=1e-10)
    config = RunConfig(
        K=4, T=48, b=1, sync=regular_sync_schedule(48, 4),
        steps=theorem_steps((mu, L), 4),
        seed=0, x0=np.zeros(logistic50.d),
        record=RecordFlags(virtual=False, f_values=False),
    )
    report = check_perturbed_inequality(config, logistic50, ref, runs=1000, seed=0)
    assert report.passed


@pytest.mark.parametrize("fixture, T, runs", [("logistic50", 48, 300), ("quad10", 100, 200)])
def test_perturbed_inequality_equals_the_loop_over_its_steps(request, fixture, T, runs):
    # one vectorized pass over the checked steps is bitwise the per-step
    # loop; at T = 100 it checks 64 of the steps
    obj = request.getfixturevalue(fixture)
    if fixture == "quad10":
        obj = obj[0]
    ref = reference_for(obj, tolerance=1e-10)
    mu, L = obj.curvature()
    config = RunConfig(K=4, T=T, b=1, sync=regular_sync_schedule(T, 4),
                       steps=theorem_steps((mu, L), 4), seed=0, x0=np.zeros(obj.d),
                       record=RecordFlags(virtual=False, f_values=False))
    report = check_perturbed_inequality(config, obj, ref, runs=runs, seed=5)
    record = replace(config.record, virtual=True, deviations=True, noise_norms=True)
    result = run_local_sgd_ensemble(replace(config, record=record), obj, _run_seeds(5, runs))
    points = np.unique(np.linspace(0, T - 1, min(T, _PERTURBED_POINTS), dtype=np.int64))
    assert (report.worst_step, report.statistic, report.bound, report.stderr) == \
        perturbed_by_loop(result, obj, ref, config.steps, points, mu, L)


def test_perturbed_inequality_makes_one_value_pass(quad10):
    # f(xbar_t) at every checked step comes from one stacked pass over the
    # recorded virtual averages, not from a pass per step of the loop
    obj, ref, _ = quad10
    mu, L = obj.curvature()
    config = RunConfig(K=4, T=100, b=1, sync=regular_sync_schedule(100, 4),
                       steps=theorem_steps((mu, L), 4), seed=0, x0=np.zeros(obj.d),
                       record=RecordFlags(virtual=False, f_values=False))
    counter = GradientCounter(obj)
    report = check_perturbed_inequality(config, counter, ref, runs=20, seed=5)
    assert report.detail["checked_points"] == _PERTURBED_POINTS
    assert counter.counts["value_many"] == 1
    assert counter.counts["gradient_many"] == config.T


def threshold_quad10(quad10, above):
    """quad10 with values that overflow past x*'s largest coordinate plus `above`."""
    obj, ref, const = quad10
    return ThresholdQuadratic(obj.hess, obj.B, ref.x_star.max() + above), ref, const


def test_perturbed_inequality_makes_one_value_pass_after_runs_froze(monkeypatch, quad10):
    # the runs whose averages pass c freeze and their xbar reads NaN from
    # then on; f(xbar_t) is still one pass over every run and checked step
    obj, ref, const = threshold_quad10(quad10, 0.02)
    config = replace(theorem_config(obj, const, K=4, T=64, H=4), record=RecordFlags())
    calls, results = [], []
    value_many = obj.value_many

    def counted(X):
        calls.append(X.shape)
        return value_many(X)

    def ensemble(*args, **kwargs):
        results.append(run_local_sgd_ensemble(*args, **kwargs))
        calls.clear()  # the value passes of the loop itself
        return results[-1]
    monkeypatch.setattr(obj, "value_many", counted)
    monkeypatch.setattr(lemmas, "run_local_sgd_ensemble", ensemble)
    report = check_perturbed_inequality(config, obj, ref, runs=40, seed=5)
    frozen = results[0].diverged
    assert frozen.any() and not frozen.all()
    assert calls == [(40, 64, obj.d)]
    assert not report.passed


@pytest.mark.parametrize("engine", ["sync", "async"])
def test_an_ensemble_whose_runs_all_freeze_keeps_its_rows_and_fails_its_checks(quad10,
                                                                               engine):
    # every run passes c before T; the per-step rows keep their full length
    # and read NaN after the last freeze, and each Monte-Carlo check fails
    # at the first step where a run reads NaN
    obj, ref, const = threshold_quad10(quad10, -0.2)
    K, T, H, tau, runs, seed = 4, 64, 4, 2, 20, 3
    config = replace(theorem_config(obj, const, K, T, H, window=H + tau),
                     record=RecordFlags(deviations=True, iterates=True, noise_norms=True))
    delay = DelayModel("fixed", tau=tau)
    seeds = _run_seeds(seed, runs)
    if engine == "sync":
        result = run_local_sgd_ensemble(config, obj, seeds)
        report = check_deviation_bound(config, obj, runs, seed=seed)
    else:
        result = run_async_ensemble(config, [config.sync] * K, delay, obj, seeds)
        report = check_async_deviation(config, delay, obj, runs, seed=seed)
    last = int(result.eval_steps[-1])
    assert result.diverged.all() and last < T
    assert result.xbar.shape == (runs, T + 1, obj.d)
    assert result.iterates.shape == (runs, K, T + 1, obj.d)
    assert result.deviations.shape == (runs, T + 1) and result.noise_sq.shape == (runs, T)
    assert np.isnan(result.xbar[:, last + 1:]).all() and np.isnan(result.noise_sq[:, last:]).all()
    assert np.isnan(result.iterates[:, :, last + 1:]).all()
    assert all(f.shape == (runs, last + 1) for f in result.f_by_scheme.values())
    first = int(np.isnan(result.deviations).any(axis=0).argmax())
    assert 0 < first <= last + 1
    assert not report.passed and np.isnan(report.statistic) and report.worst_step == first
    if engine == "sync":
        report = check_perturbed_inequality(config, obj, ref, runs, seed=seed)
        first = int(np.isnan(result.xbar[:, 1:]).any(axis=(0, 2)).argmax())
        assert not report.passed and np.isnan(report.statistic) and report.worst_step == first


@pytest.mark.parametrize("engine", ["sync", "async"])
def test_an_ensemble_whose_runs_all_freeze_at_the_start_reads_nan(quad10, engine):
    # f(x0) is not finite, so every run freezes before its first update and
    # records no noise norm: its noise row is T NaN entries, alone and in a
    # batch, and the perturbed-step check reads it and fails at t = 0
    base, ref, const = quad10
    obj = ThresholdQuadratic(base.hess, base.B, c=-1.0)
    K, T, runs = 2, 8, 3
    config = replace(theorem_config(obj, const, K, T, H=2, window=4),
                     record=RecordFlags(deviations=True, noise_norms=True))
    schedules, delay = [config.sync] * K, DelayModel("fixed", tau=2)
    if engine == "sync":
        single = run_local_sgd(config, obj)
        result = run_local_sgd_ensemble(config, obj, list(range(runs)))
    else:
        single, _ = run_async_local_sgd(config, schedules, delay, obj)
        result = run_async_ensemble(config, schedules, delay, obj, list(range(runs)))
    assert result.diverged.all() and result.eval_steps.tolist() == [0]
    assert result.xbar.shape == (runs, T + 1, obj.d) and np.isnan(result.xbar[:, 1:]).all()
    assert result.deviations.shape == (runs, T + 1)
    assert np.isnan(result.output_average).all() and np.isnan(result.f_output).all()
    assert single.diverged and single.noise_sq.shape == (T,)
    assert result.noise_sq.shape == (runs, T)
    assert np.isnan(single.noise_sq).all() and np.isnan(result.noise_sq).all()
    if engine == "sync":
        report = check_perturbed_inequality(config, obj, ref, runs)
        assert not report.passed and report.worst_step == 0 and np.isnan(report.statistic)


def test_tightest_step_takes_the_earliest_tie_and_fails_on_nan():
    samples = np.array([[1.0, 2.0, 1.0, 0.0], [1.0, 2.0, 1.0, 0.0]])
    # margins 1, 0, 0, 2: the tie at steps 1 and 2 goes to step 1
    assert _tightest_step(samples, np.array([2.0, 2.0, 1.0, 2.0])) == (1, 2.0, 0.0)
    # a run that diverged reads NaN, and its step is the one reported
    samples[1, 3] = np.nan
    step, mean, _ = _tightest_step(samples, np.array([2.0, 2.0, 1.0, 2.0]))
    assert step == 3 and np.isnan(mean)
    report = CheckReport("deviation-bound", 2, mean, 2.0, 0.0, worst_step=step)
    assert not report.passed


def test_perturbed_inequality_needs_a_minimizer_before_any_oracle_call(quad10):
    # a pinned f* comes without x*, which the check compares every xbar_t to
    obj, ref, const = quad10
    counter = GradientCounter(obj)
    config = theorem_config(obj, const, K=2, T=16, H=2)
    pinned = ReferenceSolution(x_star=None, f_star=ref.f_star, provenance="pinned")
    with pytest.raises(ValueError, match=r"^the perturbed-step check needs x\*"):
        check_perturbed_inequality(config, counter, pinned, runs=100)
    assert not counter.counts


def test_perturbed_inequality_rejects_large_steps(quad10):
    obj, ref, const = quad10
    config = theorem_config(obj, const, K=2, T=16, H=2)
    from localsgd import ConstantStep

    big = replace(config, steps=ConstantStep(c=1.0))  # eta = 32 >> 1/(4L)
    with pytest.raises(ValueError, match="stepsize too large"):
        check_perturbed_inequality(big, obj, ref, runs=100)


# --- weighted recursion --------------------------------------------------


def test_recursion_zero_error_terms():
    report = check_recursion_lemma(
        a=17.0, mu=1.0, A=1.0, B=0.0, C=0.0, T=50,
        sequence_builder=lambda T, eta: (np.zeros(T + 1), np.zeros(T)),
    )
    assert report.statistic == 0.0
    assert report.passed


def test_recursion_equality_builder():
    builder = make_equality_builder(mu=1.0, A=1.0, B=0.0, C=0.0)
    report = check_recursion_lemma(a=17.0, mu=1.0, A=1.0, B=0.0, C=0.0, T=200,
                                   sequence_builder=builder)
    assert report.passed
    assert report.statistic > 0.0


def test_recursion_with_inflow_and_slack():
    mu, A, B, C = 0.5, 0.5, 2.0, 5.0

    def builder(slack):
        # from a_0 = 2 each step drains 90% of the contracted a_t and keeps a
        # share s_t ~ U[0, slack] of the allowed next value below equality
        def build(T, eta):
            rng = np.random.default_rng(4)
            a_seq, e_seq = np.empty(T + 1), np.empty(T)
            a_seq[0] = 2.0
            for t in range(T):
                contracted = (1.0 - mu * eta[t]) * a_seq[t]
                e_seq[t] = 0.9 * contracted / (eta[t] * A)
                allowed = contracted - eta[t] * A * e_seq[t] \
                    + eta[t] ** 2 * B + eta[t] ** 3 * C
                s = slack * rng.random() if slack else 0.0
                a_seq[t + 1] = allowed * (1.0 - s)
            return a_seq, e_seq
        return build

    for slack in (0.0, 0.3):
        report = check_recursion_lemma(a=40.0, mu=mu, A=A, B=B, C=C,
                                       T=300, sequence_builder=builder(slack))
        assert report.passed


def test_recursion_detects_violations():
    def cheating(T, eta):
        a_seq = np.ones(T + 1)  # never contracts: violates immediately
        e_seq = np.full(T, 10.0)
        return a_seq, e_seq

    with pytest.raises(ValueError, match="t=0"):
        check_recursion_lemma(a=17.0, mu=1.0, A=1.0, B=0.0, C=0.0, T=10,
                              sequence_builder=cheating)


@pytest.mark.parametrize("overrides, message", [
    (dict(A=0.0), "require A > 0, B, C >= 0, mu > 0, a > 1"),
    (dict(a=1.0), "require A > 0, B, C >= 0, mu > 0, a > 1"),
    (dict(sequence_builder=lambda T, eta: (np.zeros(T), np.zeros(T))),
     "builder must return sequences of lengths T+1 and T"),
    (dict(sequence_builder=lambda T, eta: (np.zeros(T + 1), np.full(T, -1.0))),
     "sequences must be nonnegative"),
], ids=["A", "a", "lengths", "negative"])
def test_recursion_rejects_bad_arguments(overrides, message):
    args = dict(a=17.0, mu=1.0, A=1.0, B=0.0, C=0.0, T=10,
                sequence_builder=lambda T, eta: (np.zeros(T + 1), np.zeros(T)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_recursion_lemma(**{**args, **overrides})


@pytest.mark.parametrize("name, value", [
    ("mu", float("nan")), ("A", float("nan")), ("B", float("inf")), ("C", float("nan")),
    ("a", float("nan")), ("a", float("inf")), ("mu", True), ("A", "1"),
])
def test_recursion_applies_the_real_number_rule_before_the_builder_runs(name, value):
    def builder(T, eta):
        raise AssertionError("the builder ran")
    args = dict(a=17.0, mu=1.0, A=1.0, B=0.0, C=0.0, T=10, sequence_builder=builder)
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {re.escape(repr(value))}$"):
        check_recursion_lemma(**{**args, name: value})


@pytest.mark.parametrize("T", [0, -3, 2.5, True])
def test_recursion_rejects_a_horizon_below_one_before_the_builder_runs(T):
    # T = 0 used to call the builder before sum_of_weights raised
    built = []

    def builder(T, eta):
        built.append(T)
        return np.zeros(T + 1), np.zeros(T)
    with pytest.raises(ValueError, match=f"^T must be an integer >= 1, got {T!r}$"):
        check_recursion_lemma(a=17.0, mu=1.0, A=1.0, B=0.0, C=0.0, T=T, sequence_builder=builder)
    assert built == []


# --- asynchronous deviation ----------------------------------------------


def test_async_deviation_zero_delay_matches_loose_sync_bound(quad10):
    obj, _, const = quad10
    config = theorem_config(obj, const, K=2, T=32, H=4, window=4)
    report = check_async_deviation(config, DelayModel("zero"), obj, runs=300, seed=0)
    assert report.passed
    assert report.detail["worst_staleness"] == 0


def test_async_deviation_single_worker(quad10):
    obj, _, const = quad10
    config = theorem_config(obj, const, K=1, T=24, H=4, window=6)
    report = check_async_deviation(config, DelayModel("fixed", tau=2), obj,
                                   runs=150, seed=1)
    assert report.statistic == 0.0
    assert report.passed


def test_async_deviation_fixed_delay(quad10):
    obj, _, const = quad10
    config = theorem_config(obj, const, K=2, T=48, H=4, window=6)
    report = check_async_deviation(config, DelayModel("fixed", tau=2), obj,
                                   runs=1000, seed=2)
    assert report.passed
    assert report.margin > 0


# --- reproducibility -------------------------------------------------------


def test_reports_reproduce_bit_for_bit(quad10):
    obj, ref, const = quad10
    config = theorem_config(obj, const, K=2, T=24, H=4)
    first = check_deviation_bound(config, obj, runs=150, seed=9)
    second = check_deviation_bound(config, obj, runs=150, seed=9)
    assert (first.statistic, first.bound, first.stderr, first.worst_step) == \
        (second.statistic, second.bound, second.stderr, second.worst_step)

    states = [np.full(obj.d, 0.3), np.full(obj.d, -0.2)]
    va = check_variance_reduction(obj, states, trials=500, seed=4)
    vb = check_variance_reduction(obj, states, trials=500, seed=4)
    assert (va.statistic, va.stderr) == (vb.statistic, vb.stderr)


# --- one ensemble result, one deviation check -----------------------------


@pytest.mark.parametrize("runner, check", [
    ("run_local_sgd_ensemble",
     lambda config, obj: check_deviation_bound(config, obj, runs=200, seed=2)),
    ("run_async_ensemble",
     lambda config, obj: check_async_deviation(config, DelayModel("fixed", tau=2), obj,
                                               runs=200, seed=2)),
])
def test_deviation_report_does_not_depend_on_the_row_layout(monkeypatch, logistic50, runner,
                                                            check):
    # the same deviations laid out C- or F-ordered reduce in one order; on
    # logistic50 the tightest step is not a sync step, where all read 0
    config = RunConfig(K=4, T=24, b=1, sync=regular_sync_schedule(24, 6),
                       steps=theorem_steps(logistic50.curvature(), 8), seed=0,
                       x0=np.zeros(logistic50.d),
                       record=RecordFlags(virtual=False, f_values=False))
    engine = getattr(lemmas, runner)
    reports = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        def laid_out(*args, layout=layout, **kwargs):
            result = engine(*args, **kwargs)
            result.deviations = layout(result.deviations)
            return result
        monkeypatch.setattr(lemmas, runner, laid_out)
        report = check(config, logistic50)
        reports.append((report.statistic, report.bound, report.stderr, report.worst_step))
    assert reports[0][0] > 0.0
    assert reports[0] == reports[1]


@pytest.mark.parametrize("runner, check", [
    ("run_local_sgd_ensemble",
     lambda config, obj: check_deviation_bound(config, obj, runs=50, seed=2)),
    ("run_async_ensemble",
     lambda config, obj: check_async_deviation(config, DelayModel("fixed", tau=2), obj,
                                               runs=50, seed=2)),
])
def test_held_out_runs_record_only_what_the_caller_asked_for(monkeypatch, quad10, runner,
                                                             check):
    # deviations are recorded by the tested runs only; G^2 is the held-out
    # runs' largest second moment either way
    obj, _, const = quad10
    config = theorem_config(obj, const, K=2, T=24, H=4, window=6)
    engine = getattr(lemmas, runner)
    seen = []

    def captured(config, *args, **kwargs):
        seen.append((config, kwargs))
        return engine(config, *args, **kwargs)
    monkeypatch.setattr(lemmas, runner, captured)
    report = check(config, obj)
    assert seen == [(config, {"track_second_moment": True}),
                    (replace(config, record=replace(config.record, deviations=True)), {})]
    assert report.detail["G_sq"] > 0.0


class ValueCounter:
    """Counts the value passes of an objective class while installed."""

    def __init__(self, monkeypatch, objective):
        self.calls = 0
        original = type(objective).value_many

        def counted(this, *args, **kwargs):
            self.calls += 1
            return original(this, *args, **kwargs)
        monkeypatch.setattr(type(objective), "value_many", counted)


def test_deviation_check_makes_no_value_pass(monkeypatch, quad10):
    # no deviation check reads the output values of its ensembles
    obj, _, const = quad10
    counter = ValueCounter(monkeypatch, obj)
    check_deviation_bound(theorem_config(obj, const, K=2, T=24, H=4), obj, runs=50)
    check_async_deviation(theorem_config(obj, const, K=2, T=24, H=4, window=6),
                          DelayModel("fixed", tau=2), obj, runs=50)
    assert counter.calls == 0


def test_f_output_is_one_value_pass_on_first_read(monkeypatch, quad10):
    obj, ref, const = quad10
    result = run_local_sgd_ensemble(theorem_config(obj, const, K=2, T=24, H=4), obj,
                                    [4, 5, 6])
    counter = ValueCounter(monkeypatch, obj)
    first = result.f_output
    assert result.f_output is first
    assert counter.calls == 1
    assert np.array_equal(first, obj.value_many(result.output_average))
    assert np.all(first >= ref.f_star)


# --- the fixture's parameter rule ------------------------------------------


FIXTURE_LOWEST = {"runs": 2, "trials": 100, "K": 1, "H": 4, "T": 4, "b": 1, "tau": 0}


@pytest.mark.parametrize("field, value, message", [
    ("runs", 1, "runs must be an integer >= 2, got 1"),
    ("trials", 99, "trials must be an integer >= 100, got 99"),
    ("K", 0, "K must be an integer >= 1, got 0"), ("H", 0, "H must be an integer >= 1, got 0"),
    ("T", 0, "T must be an integer >= 1, got 0"), ("b", 0, "b must be an integer >= 1, got 0"),
    ("tau", -1, "tau must be an integer >= 0, got -1"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("H", 5, "H must be <= T"),
    ("runs", 2.5, "runs must be an integer >= 2, got 2.5"),
    ("K", True, "K must be an integer >= 1, got True"),
    ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
])
def test_lemma_suite_rejects_an_out_of_range_parameter_before_any_gradient(quad10, field,
                                                                           value, message):
    obj, ref, _ = quad10
    counter = GradientCounter(obj)
    with pytest.raises(ValueError, match=f"^{message}$"):
        lemma_suite(counter, ref, **{**FIXTURE_LOWEST, field: value})
    assert not counter.counts


def test_lemma_suite_accepts_the_lowest_parameters(quad10):
    obj, ref, _ = quad10
    counter = GradientCounter(obj)
    reports = lemma_suite(counter, ref, **FIXTURE_LOWEST)
    assert [r.check for r in reports] == ["variance-reduction", "deviation-bound",
                                          "perturbed-step", "weighted-recursion",
                                          "async-deviation"]
    assert counter.calls > 0
