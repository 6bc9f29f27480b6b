import re

import numpy as np
import pytest

from localsgd import (
    SCHEMES,
    RunningAverage,
    ShiftedQuadraticAverage,
    sum_of_weights,
)
from oracles import theorem_average


def direct_weighted_average(xs, weights):
    """Oracle: explicit sum of w_i x_i / sum of w_i."""
    w = np.asarray(weights, dtype=np.float64)
    stack = np.asarray(xs, dtype=np.float64)
    return (w[:, None] * stack).sum(axis=0) / w.sum()


def scheme_weights(kind, count):
    t = np.arange(count, dtype=np.float64)
    if kind == "last":
        w = np.zeros(count)
        w[-1] = 1.0
        return w
    if kind == "uniform":
        return np.ones(count)
    if kind == "linear":
        return t + 1.0
    return (t + 1.0) ** 2


def test_first_update_returns_the_point():
    x0 = np.array([2.0, -1.0])
    for kind in SCHEMES:
        avg = RunningAverage(kind)
        avg.update(x0, 0)
        assert np.array_equal(avg.value, x0)
    shifted = ShiftedQuadraticAverage(5.0)
    shifted.update(x0, 0)
    assert np.allclose(shifted.value, x0)


def test_quadratic_two_point_example():
    x0 = np.array([1.0, 0.0])
    x1 = np.array([0.0, 1.0])
    avg = RunningAverage("quadratic")
    avg.update(x0, 0)
    avg.update(x1, 1)
    # direct oracle with weights (1, 4): (1*x0 + 4*x1) / 5
    oracle = direct_weighted_average([x0, x1], [1.0, 4.0])
    assert np.allclose(avg.value, oracle, atol=1e-15)
    assert np.allclose(avg.value, 0.2 * x0 + 0.8 * x1, atol=1e-15)


def test_uniform_two_point_example():
    avg = RunningAverage("uniform")
    avg.update(np.array([2.0]), 0)
    avg.update(np.array([4.0]), 1)
    assert avg.value[0] == pytest.approx(3.0)


def test_recursions_match_direct_sums_on_long_streams():
    rng = np.random.default_rng(17)
    xs = rng.standard_normal((1000, 5))
    running = {kind: RunningAverage(kind) for kind in SCHEMES}
    shifted = ShiftedQuadraticAverage(33.0)
    for t, x in enumerate(xs):
        for kind in SCHEMES:
            running[kind].update(x, t)
        shifted.update(x, t)
    for kind in SCHEMES:
        oracle = direct_weighted_average(xs, scheme_weights(kind, len(xs)))
        err = np.linalg.norm(running[kind].value - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-9, kind
    t = np.arange(len(xs), dtype=np.float64)
    oracle = direct_weighted_average(xs, (33.0 + t) ** 2)
    assert np.linalg.norm(shifted.value - oracle) / np.linalg.norm(oracle) <= 1e-9


def test_average_stays_in_convex_hull():
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((64, 3))
    lo, hi = xs.min(axis=0), xs.max(axis=0)
    for kind in SCHEMES:
        avg = RunningAverage(kind)
        for t, x in enumerate(xs):
            avg.update(x, t)
            assert np.all(avg.value >= lo - 1e-12)
            assert np.all(avg.value <= hi + 1e-12)


def test_out_of_order_updates_rejected():
    for avg in (RunningAverage("uniform"), ShiftedQuadraticAverage(2.0)):
        avg.update(np.zeros(2), 0)
        with pytest.raises(ValueError, match="^out-of-order update: expected t=1, got 2$"):
            avg.update(np.zeros(2), 2)


def test_averages_reject_an_unknown_scheme_and_a_shift_below_one():
    with pytest.raises(ValueError, match="^unknown averaging scheme 'median'$"):
        RunningAverage("median")
    for shift in (0.5, float("nan"), float("inf"), True):
        message = f"shift must be finite and >= 1, got {shift!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ShiftedQuadraticAverage(shift)


def test_sum_of_weights_examples():
    assert sum_of_weights(1.0, 1) == 1.0
    assert sum_of_weights(1.0, 3) == 14.0  # 1 + 4 + 9


def test_sum_of_weights_grid_against_direct_sum():
    for a in (1.0, 2.5, 17.0, 65.0, 301.0):
        for T in (1, 2, 3, 10, 100, 1234):
            direct = float(np.sum((a + np.arange(T)) ** 2))
            closed = sum_of_weights(a, T)
            assert abs(closed - direct) <= 1e-12 * direct
            assert closed >= T**3 / 3.0


def test_theorem_average_trivial_cases():
    x0 = np.array([1.5, -2.0])
    assert np.allclose(theorem_average([[x0]], a=3.0), x0)
    v = np.array([0.5, 0.25])
    traces = np.tile(v, (4, 7, 1))
    assert np.allclose(theorem_average(traces, a=9.0), v, atol=1e-12)


def test_theorem_average_hand_example():
    # K=2, T=2, a=1: weights 1 and 4 per step, averaged over workers
    t1 = [np.array([1.0]), np.array([3.0])]
    t2 = [np.array([2.0]), np.array([5.0])]
    got = theorem_average([t1, t2], a=1.0)
    expected = (1.0 * (1.0 + 2.0) + 4.0 * (3.0 + 5.0)) / (2.0 * 5.0)
    assert got[0] == pytest.approx(expected)


def test_theorem_average_equals_running_average_of_worker_means():
    rng = np.random.default_rng(23)
    K, T, d, a = 3, 40, 4, 21.0
    traces = rng.standard_normal((K, T, d))
    running = ShiftedQuadraticAverage(a)
    for t in range(T):
        running.update(traces[:, t, :].mean(axis=0), t)
    assert np.allclose(theorem_average(traces, a), running.value, atol=1e-12)


def test_theorem_average_rejects_ragged_input():
    with pytest.raises(ValueError):
        theorem_average([[np.zeros(2)], [np.zeros(2), np.zeros(2)]], a=2.0)


def test_sum_of_weights_validation():
    with pytest.raises(ValueError):
        sum_of_weights(0.5, 10)
    with pytest.raises(ValueError):
        sum_of_weights(2.0, 0)
    # T is real here, but a bool is not a number, nor NaN or inf a finite one
    for a, T, message in ((2.0, True, "T must be finite and >= 1, got True"),
                          (2.0, float("inf"), "T must be finite and >= 1, got inf"),
                          (2.0, float("nan"), "T must be finite and >= 1, got nan"),
                          (float("nan"), 10, "shift must be finite and >= 1, got nan"),
                          (True, 10, "shift must be finite and >= 1, got True")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sum_of_weights(a, T)
