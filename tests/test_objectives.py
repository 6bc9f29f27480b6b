import math
import warnings

import numpy as np
import pytest

from localsgd import (
    LogisticObjective,
    ProblemConstants,
    QuadraticObjective,
    make_quadratic,
    parse_libsvm,
)
from localsgd.objectives import _Oracles
from oracles import estimate_constants, example


def test_value_at_zero_is_log_two(synth50):
    assert LogisticObjective(synth50, lam=0.37).value(np.zeros(synth50.d)) == pytest.approx(
        math.log(2.0), abs=1e-12
    )


def test_single_point_value_matches_scalar_oracle():
    ds = parse_libsvm(["+1 1:1"], declared_dimension=2)
    # f((t, 0)) = log(1 + e^{-t}); high-precision scalar evaluation at t=1
    expected = math.log1p(math.exp(-1.0))
    assert LogisticObjective(ds, lam=0.0).value(np.array([1.0, 0.0])) == pytest.approx(
        expected, abs=1e-12
    )
    assert expected == pytest.approx(0.3132617, abs=5e-8)


def test_gradient_at_zero(synth50):
    g = LogisticObjective(synth50, lam=0.0).component_gradient(np.zeros(synth50.d), 4)
    label, pairs = example(synth50, 4)
    expected = np.zeros(synth50.d)
    for idx, val in pairs:
        expected[idx - 1] = -label * val / 2.0
    assert np.allclose(g, expected, atol=1e-15)


def test_component_gradient_matches_finite_differences(logistic50):
    rng = np.random.default_rng(11)
    obj = logistic50
    for trial in range(5):
        x = rng.standard_normal(obj.d)
        i = int(rng.integers(0, obj.n))
        g = obj.component_gradient(x, i)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        fd = np.empty(obj.d)
        for j in range(obj.d):
            e = np.zeros(obj.d)
            e[j] = h
            fd[j] = (obj.component_value(x + e, i) - obj.component_value(x - e, i)) / (2 * h)
        denom = max(np.linalg.norm(g), 1e-12)
        assert np.linalg.norm(fd - g) / denom <= 1e-6


def test_hessian_product_is_symmetric_and_matches_gradient_differences(logistic50):
    rng = np.random.default_rng(23)
    obj = logistic50
    for _ in range(5):
        x = rng.standard_normal(obj.d)
        u, v = rng.standard_normal((2, obj.d))
        hess = obj.hessian_product(x)
        Hu, Hv = hess(u), hess(v)
        assert abs(u @ Hv - v @ Hu) <= 1e-14 * np.linalg.norm(u) * np.linalg.norm(Hv)
        h = 1e-5
        fd = (obj.gradient(x + h * v) - obj.gradient(x - h * v)) / (2 * h)
        assert np.linalg.norm(fd - Hv) <= 1e-7 * np.linalg.norm(Hv)


@pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf"), True, "0.1"])
def test_logistic_rejects_a_bad_lambda(synth50, lam):
    with pytest.raises(ValueError, match="regularization"):
        LogisticObjective(synth50, lam=lam)


def test_mean_of_components_is_full_gradient(logistic50):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(logistic50.d)
    mean_g = np.mean(
        [logistic50.component_gradient(x, i) for i in range(logistic50.n)], axis=0
    )
    full = logistic50.gradient(x)
    assert np.linalg.norm(mean_g - full) <= 1e-12 * max(1.0, np.linalg.norm(full))


def test_extreme_margins_stay_finite():
    ds = parse_libsvm(["+1 1:1", "-1 1:1"], declared_dimension=1)
    obj = LogisticObjective(ds, lam=0.0)
    assert np.isfinite(obj.value(np.array([1e4])))
    assert np.isfinite(obj.value(np.array([-1e4])))
    assert obj.value(np.array([1e4])) == pytest.approx(5e3, rel=1e-6)


def _objective(request, name):
    fixture = request.getfixturevalue(name)
    return fixture[0] if name == "quad10" else fixture


@pytest.mark.parametrize("name", ["logistic50", "quad10"])
def test_a_non_finite_value_reads_nan_at_its_own_row(request, name):
    obj = _objective(request, name)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((5, obj.d))
    X[1] = np.nan
    X[3] = 1e200  # the squared norm overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning escapes the oracles
        values = obj.value_many(X)
        both, grads = obj.value_and_gradient_many(X)
        singles = [obj.value(x) for x in X]
        single_grads = [obj.gradient(x) for x in X]
    for p in range(len(X)):
        if p in (1, 3):
            assert np.isnan(values[p]) and np.isnan(both[p]) and math.isnan(singles[p])
        else:
            assert values[p] == both[p] == singles[p] and np.isfinite(values[p])
            assert np.array_equal(grads[p], single_grads[p])


@pytest.mark.parametrize("lead", [(1,), (7,), (3, 4)])
@pytest.mark.parametrize("name", ["logistic50", "quad10"])
def test_single_point_oracles_are_rows_of_the_stacked_oracles(request, name, lead):
    obj = _objective(request, name)
    rng = np.random.default_rng(31)
    X = rng.standard_normal(lead + (obj.d,))
    I = rng.integers(0, obj.n, size=lead + (3,))
    values, grads = obj.value_many(X), obj.gradient_many(X)
    batches, moments = obj.minibatch_gradient_many(X, I), obj.second_moment_many(X)
    singles = [obj.minibatch_gradient_many(X, I[..., j:j + 1]) for j in range(3)]
    both = obj.value_and_gradient_many(X)  # one pass for values and gradients
    assert np.array_equal(both[0], values) and np.array_equal(both[1], grads)
    for p in np.ndindex(*lead):
        x = X[p]
        assert obj.value(x) == values[p]
        assert np.array_equal(obj.gradient(x), grads[p])
        one_value, one_grad = obj.value_and_gradient_many(x[None])
        assert one_value[0] == values[p] and np.array_equal(one_grad[0], grads[p])
        assert np.array_equal(obj.minibatch_gradient(x, I[p]), batches[p])
        assert obj.second_moment_at(x) == moments[p]
        per_component = obj.component_gradients_at(x, I[p])
        for j in range(3):
            assert np.array_equal(obj.component_gradient(x, int(I[p][j])), singles[j][p])
            assert np.array_equal(per_component[j], singles[j][p])


@pytest.mark.parametrize("b", range(1, 9))
def test_quadratic_plans_hold_the_mean_of_the_sampled_rows_bitwise(b):
    # rows spanning 1e-8..1e8, where the order of a sum shows in its bits
    rng = np.random.default_rng(b)
    hess = rng.uniform(1.0, 4.0, size=6)
    obj = QuadraticObjective(hess, rng.standard_normal((40, 6))
                             * 10.0 ** rng.integers(-8, 9, size=(40, 6)))
    X = rng.standard_normal((5, 3, 6))
    I = rng.integers(0, obj.n, size=(7, 5, 3, b))
    plans = obj.sample_plans(I, max_entries=2 * 5 * 3 * b * 6)
    assert len(plans) == 2
    for s, plan in enumerate(plans):
        want = hess * X - obj.B[I[s]].mean(axis=-2)
        assert np.array_equal(obj.planned_gradient_many(X, plan), want)
        assert np.array_equal(obj.minibatch_gradient_many(X, I[s]), want)


@pytest.mark.parametrize("d", [1, 10, 300])
def test_screened_second_moment_max_is_the_exact_max_at_its_boundary(d):
    # entries spanning 1e-4..1e4, where the order of a sum shows in its
    # bits; floors a few ulps either side of every row's moment, tied rows,
    # a row that overflows to inf and a NaN row
    rng = np.random.default_rng(d)
    obj = QuadraticObjective(rng.uniform(1.0, 4.0, size=d),
                             rng.standard_normal((5, d)) * 10.0 ** rng.integers(-4, 5, size=(5, d)))
    X = rng.standard_normal((4, 3, d)) * 10.0 ** rng.integers(-4, 5, size=(4, 3, d))
    X[2, 1] = X[0, 0]
    exact = _Oracles.second_moment_max
    moments = obj.second_moment_many(X)
    floors = [0.0, math.inf, 2.0 * float(moments.max())] + [
        float(m) * (1.0 + k * 2.0**-52) for m in moments.ravel() for k in range(-4, 5)]
    for floor in floors:
        assert obj.second_moment_max(X, floor) == exact(obj, X, floor)
    assert obj.second_moment_max(X, float(moments.max())) == float(moments.max())
    with np.errstate(over="ignore", invalid="ignore"):
        for row, fill in ((X[1, 2], 1e200), (X[3, 0], np.nan)):
            row[0] = fill
            for floor in floors:
                assert obj.second_moment_max(X, floor) == exact(obj, X, floor)


def test_quadratic_value_at_the_minimizer_is_f_star_in_a_stack(quad10):
    obj, ref, _ = quad10
    stack = np.broadcast_to(ref.x_star, (2, 4, obj.d))
    assert np.all(obj.value_many(stack) - ref.f_star == 0.0)


def test_quadratic_dimension_and_index_errors(quad10):
    obj = quad10[0]
    wrong = np.zeros((3, 2, 1))
    for oracle in (obj.value_many, obj.gradient_many, obj.value_and_gradient_many,
                   obj.second_moment_many, obj.variance_at):
        with pytest.raises(ValueError, match="dimension"):
            oracle(wrong)
    with pytest.raises(ValueError, match="dimension"):
        obj.minibatch_gradient_many(wrong, np.zeros((3, 2, 1), dtype=np.int64))
    for i in (-1, obj.n):
        with pytest.raises(IndexError):
            obj.component_gradient(np.zeros(obj.d), i)
        with pytest.raises(IndexError):
            obj.component_value(np.zeros(obj.d), i)
    with pytest.raises(ValueError, match="^linear terms do not match Hessian dimension$"):
        QuadraticObjective(np.ones(3), np.zeros((2, 4)))


@pytest.mark.parametrize("name", ["logistic50", "quad10"])
def test_mini_batch_doors_reject_a_bad_index_and_an_empty_batch(request, name):
    # unchecked, the quadratic wraps -1 to component n-1 and the logistic
    # raises numpy's own errors; the engine's sample_plans path has no door
    obj = _objective(request, name)
    x = np.zeros(obj.d)
    for i in (-1, obj.n, -obj.n - 1):
        message = f"^component index {i} out of range \\[0, {obj.n}\\)$"
        for call in (lambda: obj.minibatch_gradient(x, [0, i]),
                     lambda: obj.component_gradients_at(x, [i, 0]),
                     lambda: obj.component_gradient(x, i),
                     lambda: obj.minibatch_gradient_many(np.zeros((2, obj.d)), [[0], [i]])):
            with pytest.raises(IndexError, match=message):
                call()
    for call in (lambda: obj.minibatch_gradient(x, []),
                 lambda: obj.component_gradients_at(x, []),
                 lambda: obj.minibatch_gradient_many(np.zeros((2, obj.d)), np.zeros((2, 0), int))):
        with pytest.raises(ValueError, match="^a mini-batch needs at least one component index$"):
            call()


@pytest.mark.parametrize("hess, linear, message", [
    ([float("nan"), 1.0], [[0.0, 0.0]], "Hessian diagonal entry must be finite and positive, got nan"),
    ([-1.0, 1.0], [[0.0, 0.0]], "Hessian diagonal entry must be finite and positive, got -1.0"),
    ([1.0, 0.0], [[0.0, 0.0]], "Hessian diagonal entry must be finite and positive, got 0.0"),
    ([1.0, float("inf")], [[0.0, 0.0]],
     "Hessian diagonal entry must be finite and positive, got inf"),
    ([1.0, 1.0], [[0.0, 1.0], [float("inf"), 0.0]], "linear term entry must be finite, got inf"),
    ([1.0, 1.0], [[0.0, float("nan")]], "linear term entry must be finite, got nan"),
])
def test_quadratic_rejects_a_non_finite_or_non_positive_entry(hess, linear, message):
    # unchecked, these give NaN curvature, mu = -1 or a NaN sigma_sq
    with pytest.raises(ValueError, match=f"^{message}$"):
        QuadraticObjective(hess, linear)


@pytest.mark.parametrize("name", ["logistic50", "quad10"])
def test_component_values_average_to_the_value(request, name):
    obj = request.getfixturevalue(name)
    if name == "quad10":
        obj = obj[0]
    x = np.linspace(-1.0, 1.0, obj.d)
    mean = np.mean([obj.component_value(x, i) for i in range(obj.n)])
    assert mean == pytest.approx(obj.value(x), rel=1e-12)


def test_dimension_and_index_errors(logistic50):
    with pytest.raises(ValueError, match="dimension"):
        logistic50.value(np.zeros(3))
    with pytest.raises(ValueError, match="dimension"):
        logistic50.value_and_gradient_many(np.zeros((2, 3)))
    with pytest.raises(IndexError):
        logistic50.component_gradient(np.zeros(logistic50.d), logistic50.n)


def test_strong_convexity_and_smoothness_sandwich(logistic50):
    mu, L = logistic50.curvature()
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(logistic50.d)
        y = rng.standard_normal(logistic50.d)
        gap = logistic50.value(y) - logistic50.value(x) \
            - float(logistic50.gradient(x) @ (y - x))
        dist = float((y - x) @ (y - x))
        assert gap >= 0.5 * mu * dist - 1e-12
        assert gap <= 0.5 * L * dist + 1e-12


def test_make_quadratic_scalar_case():
    obj, ref, const = make_quadratic(d=1, mu=1.0, L=1.0, n=1, noise=0.0, seed=0)
    b = obj.b_mean[0]
    assert ref.x_star[0] == pytest.approx(b)
    assert ref.f_star == pytest.approx(-(b**2) / 2.0)
    assert const.kappa == 1.0


def test_make_quadratic_spectrum_and_noise():
    obj, ref, const = make_quadratic(d=2, mu=1.0, L=4.0, n=16, noise=0.5, seed=3)
    assert sorted(obj.hess) == [1.0, 4.0]
    assert const.kappa == 4.0
    assert obj.sigma_sq == pytest.approx(0.25, abs=1e-12)
    assert np.linalg.norm(obj.gradient(ref.x_star)) <= 1e-12


def test_make_quadratic_noiseless_variance():
    obj, _, _ = make_quadratic(d=3, mu=1.0, L=2.0, n=8, noise=0.0, seed=1)
    assert obj.variance_at(np.ones(3)) <= 1e-12


def test_make_quadratic_noiseless_variance_is_exactly_zero():
    obj, _, const = make_quadratic(d=10, mu=1.0, L=4.0, n=64, noise=0.0, seed=7)
    assert obj.sigma_sq == 0.0 == const.sigma_sq
    assert np.array_equal(obj.component_gradient(np.ones(10), 5), obj.gradient(np.ones(10)))


@pytest.mark.parametrize("bad", [dict(noise=float("nan")), dict(noise=-1.0),
                                 dict(noise=float("inf")), dict(L=float("inf")),
                                 dict(mu=float("nan")), dict(L=float("nan"))])
def test_make_quadratic_rejects_non_finite_constants(bad):
    args = dict(d=4, mu=1.0, L=2.0, n=8, noise=0.5, seed=0)
    with pytest.raises(ValueError):
        make_quadratic(**{**args, **bad})


def test_make_quadratic_rejects_bad_args():
    with pytest.raises(ValueError):
        make_quadratic(d=2, mu=2.0, L=1.0, n=4, noise=0.0, seed=0)
    with pytest.raises(ValueError):
        make_quadratic(d=1, mu=1.0, L=2.0, n=4, noise=0.0, seed=0)
    with pytest.raises(ValueError):
        make_quadratic(d=2, mu=1.0, L=2.0, n=1, noise=0.5, seed=0)
    # a count is an integer, and a bool is not one
    for bad, message in (({"d": 2.5}, "d must be an integer >= 1, got 2.5"),
                         ({"d": True, "L": 1.0}, "d must be an integer >= 1, got True"),
                         ({"n": True}, "n must be an integer >= 1, got True"),
                         ({"n": 8.0}, "n must be an integer >= 1, got 8.0"),
                         ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
                         ({"mu": True}, "mu must be finite and positive, got True")):
        args = {"d": 2, "mu": 1.0, "L": 2.0, "n": 8, "noise": 0.0, "seed": 0, **bad}
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_quadratic(**args)


def test_estimate_constants_noiseless_quadratic():
    obj, _, _ = make_quadratic(d=4, mu=1.0, L=3.0, n=8, noise=0.0, seed=2)
    pts = [np.zeros(4), np.ones(4), -2.0 * np.ones(4)]
    const = estimate_constants(obj, pts)
    assert const.sigma_sq <= 1e-12
    expected_G = max(float(g @ g) for g in (obj.gradient(p) for p in pts))
    assert const.G_sq == pytest.approx(expected_G, rel=1e-12)


def test_estimate_constants_logistic_smoothness_bound():
    # unit-norm features, lam = 1/n: L <= 1/4 + 1/n
    lines = ["+1 1:1", "-1 2:1", "+1 3:1", "-1 1:1"]
    ds = parse_libsvm(lines, declared_dimension=3)
    obj = LogisticObjective(ds)
    const = estimate_constants(obj, [np.zeros(3)])
    assert const.mu == pytest.approx(0.25)  # lam = 1/4 here
    assert const.L <= 0.25 + 0.25 + 1e-12


def test_variance_matches_two_pass_oracle(logistic50):
    rng = np.random.default_rng(8)
    x = rng.standard_normal(logistic50.d)
    grads = np.stack(
        [logistic50.component_gradient(x, i) for i in range(logistic50.n)]
    )
    mean = grads.mean(axis=0)
    two_pass = float(np.mean(np.sum((grads - mean) ** 2, axis=1)))
    fast = logistic50.variance_at(x)
    assert abs(fast - two_pass) <= 1e-10 * max(1.0, two_pass)


def test_variance_below_second_moment(logistic50, quad10):
    rng = np.random.default_rng(21)
    for obj in (logistic50, quad10[0]):
        for _ in range(5):
            x = rng.standard_normal(obj.d)
            assert obj.variance_at(x) <= obj.second_moment_at(x) + 1e-12


def test_estimate_constants_over_recorded_trajectory(quad10):
    # the run records its iterates; constants scoped to the visited points
    # bound the noise at every visited point
    from localsgd import (RecordFlags, RunConfig, regular_sync_schedule, run_local_sgd,
                          theorem_steps)

    obj, _, const = quad10
    config = RunConfig(
        K=2, T=40, b=1, sync=regular_sync_schedule(40, 4),
        steps=theorem_steps((const.mu, const.L), 4),
        seed=5, x0=np.zeros(obj.d), record=RecordFlags(iterates=True),
    )
    trace = run_local_sgd(config, obj)
    visited = trace.iterates.reshape(-1, obj.d)
    est = estimate_constants(obj, visited)
    assert est.sigma_sq == pytest.approx(const.sigma_sq, rel=1e-12)
    assert est.G_sq == pytest.approx(
        max(obj.second_moment_at(x) for x in visited), rel=1e-12
    )
    assert est.sigma_sq <= est.G_sq


def test_estimate_constants_requires_points(logistic50):
    with pytest.raises(ValueError):
        estimate_constants(logistic50, [])


def test_problem_constants_validation():
    with pytest.raises(ValueError):
        ProblemConstants(L=1.0, mu=2.0, sigma_sq=0.0, G_sq=0.0)
    with pytest.raises(ValueError):
        ProblemConstants(L=1.0, mu=0.0, sigma_sq=0.0, G_sq=0.0)
    for bad, message in (({"sigma_sq": -1.0}, "sigma_sq must be finite and nonnegative, got -1.0"),
                         ({"G_sq": -1.0}, "G_sq must be finite and nonnegative, got -1.0"),
                         ({"sigma_sq": np.nan}, "sigma_sq must be finite and nonnegative, got nan"),
                         ({"G_sq": np.inf}, "G_sq must be finite and nonnegative, got inf"),
                         ({"L": np.inf}, "L must be finite, got inf"),
                         ({"mu": np.nan}, "mu must be finite and positive, got nan"),
                         ({"mu": True}, "mu must be finite and positive, got True")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ProblemConstants(**{"L": 1.0, "mu": 1.0, "sigma_sq": 0.0, "G_sq": 0.0, **bad})
    const = ProblemConstants(L=4.0, mu=1.0, sigma_sq=1.0, G_sq=2.0)
    assert const.kappa == 4.0


def test_w8a_reference_value(w8a_dataset):
    from localsgd.harness import reference_for

    reference = reference_for(LogisticObjective(w8a_dataset), tolerance=1e-6)
    assert reference.f_star == pytest.approx(0.126433176216545, abs=1e-5)
