import itertools

import numpy as np
import pytest

from localsgd import (
    CheckReport,
    DelayModel,
    ProblemConstants,
    RecordFlags,
    RunConfig,
    check_async_deviation,
    check_deviation_bound,
    check_perturbed_inequality,
    check_recursion_lemma,
    check_variance_reduction,
    make_quadratic,
    regular_sync_schedule,
    run_local_sgd_ensemble,
    theorem_steps,
)
from localsgd import lemmas
from localsgd.harness import reference_for
from localsgd.lemmas import _PERTURBED_POINTS, _run_seeds, _tightest_step, make_equality_builder
from oracles import perturbed_by_loop


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
    result = run_local_sgd_ensemble(config, obj, [1, 2, 3], record_deviations=True)
    assert np.max(result.deviations) <= 1e-24  # H=1: synchronized every step
    report = check_deviation_bound(config, obj, runs=200, seed=1)
    assert report.statistic == 0.0
    assert report.passed


def test_deviation_bound_requires_decaying_steps(quad10):
    obj, _, const = quad10
    config = theorem_config(obj, const, K=2, T=16, H=4)
    from localsgd import ConstantStep

    config.steps = ConstantStep(c=0.001)
    with pytest.raises(ValueError, match="decaying"):
        check_deviation_bound(config, obj, runs=100)


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
    result = run_local_sgd_ensemble(config, obj, _run_seeds(5, runs), ref_point=ref.x_star,
                                    record_deviations=True, record_noise=True,
                                    record_f_xbar=True)
    points = np.unique(np.linspace(0, T - 1, min(T, _PERTURBED_POINTS), dtype=np.int64))
    assert (report.worst_step, report.statistic, report.bound, report.stderr) == \
        perturbed_by_loop(result, config.steps, points, mu, L, ref.f_star)


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


def test_perturbed_inequality_rejects_large_steps(quad10):
    obj, ref, const = quad10
    config = theorem_config(obj, const, K=2, T=16, H=2)
    big = RunConfig(**{**config.__dict__, "steps": None})
    from localsgd import ConstantStep

    big.steps = ConstantStep(c=1.0)  # eta = 32 >> 1/(4L)
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
