from math import sqrt

import pytest

from localsgd import (
    ProblemConstants,
    corollary_bound,
    iterations_estimate,
    speedup,
    sum_of_weights,
    theorem1_bound,
    theorem2_bound,
)


def make_constants(L=1.0, mu=1.0, sigma_sq=1.0, G_sq=1.0):
    return ProblemConstants(L=L, mu=mu, sigma_sq=sigma_sq, G_sq=G_sq)


def test_bias_only_bound_decays():
    const = make_constants(sigma_sq=0.0, G_sq=0.0)
    values = [theorem1_bound(const, K=4, T=T, H=2, b=1, a=17.0, r0=1.0)
              for T in (10, 100, 1000, 10000)]
    for small, large in zip(values, values[1:]):
        assert large < small
    S_T = sum_of_weights(17.0, 1000)
    assert values[2] == pytest.approx(1.0 * 17.0**3 * 1.0 / (2.0 * S_T))


def test_full_bound_eventually_nonincreasing_in_T():
    const = make_constants(L=4.0, sigma_sq=1.0, G_sq=40.0)
    values = [theorem1_bound(const, K=4, T=T, H=4, b=1, a=65.0, r0=5.0)
              for T in (100, 300, 1000, 3000, 10000, 30000, 100000)]
    # beyond a threshold the bound decreases monotonically in T
    tail = values[1:]
    assert all(b < a for a, b in zip(tail, tail[1:]))


def test_theorem1_bound_matches_independent_evaluation():
    const = make_constants()
    K, T, H, b, a, r0 = 4, 100, 2, 1, 17.0, 1.0
    got = theorem1_bound(const, K, T, H, b, a, r0)
    # spreadsheet-style independent evaluation, term by term
    S_T = sum((a + t) ** 2 for t in range(T))
    expected = (
        1.0 * a**3 * r0 / (2.0 * S_T)
        + 4.0 * T * (T + 2.0 * a) * 1.0 / (1.0 * K * S_T)
        + 256.0 * T * 1.0 * H**2 * 1.0 / (1.0**2 * S_T)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_doubling_batch_halves_variance_term():
    const = make_constants(G_sq=0.0, sigma_sq=2.0)
    base_bias = theorem1_bound(make_constants(sigma_sq=0.0, G_sq=0.0),
                               K=2, T=50, H=3, b=1, a=17.0, r0=1.0)
    v1 = theorem1_bound(const, K=2, T=50, H=3, b=1, a=17.0, r0=1.0) - base_bias
    v2 = theorem1_bound(const, K=2, T=50, H=3, b=2, a=17.0, r0=1.0) - base_bias
    assert v1 == pytest.approx(2.0 * v2, rel=1e-12)


def test_theorem1_bound_precondition_errors():
    const = make_constants(L=2.0)  # kappa = 2, threshold 32
    with pytest.raises(ValueError, match="16\\*kappa"):
        theorem1_bound(const, K=1, T=10, H=1, b=1, a=32.0, r0=1.0)
    with pytest.raises(ValueError, match="positive"):
        theorem1_bound(const, K=0, T=10, H=1, b=1, a=33.0, r0=1.0)


def test_theorem2_reduces_to_theorem1():
    const = make_constants(sigma_sq=0.5, G_sq=0.0)
    t1 = theorem1_bound(const, K=2, T=64, H=4, b=1, a=33.0, r0=0.7)
    t2 = theorem2_bound(const, K=2, T=64, H=4, tau=5, b=1, a=33.0, r0=0.7)
    assert t2 == pytest.approx(t1, rel=1e-12)  # G = 0 kills the drift term


def test_theorem2_constant_ratio_is_three():
    bias_and_var = make_constants(sigma_sq=0.0, G_sq=0.0)
    g_only = make_constants(sigma_sq=0.0, G_sq=3.0)
    K, T, H, b, a = 2, 80, 4, 1, 33.0
    base = theorem1_bound(bias_and_var, K, T, H, b, a, r0=0.0)
    assert base == 0.0
    drift1 = theorem1_bound(g_only, K, T, H, b, a, r0=0.0)
    drift2 = theorem2_bound(g_only, K, T, H, 0, b, a, r0=0.0)
    assert drift2 == pytest.approx(3.0 * drift1, rel=1e-12)


def test_theorem2_independent_evaluation():
    const = make_constants(L=2.0, mu=0.5, sigma_sq=1.5, G_sq=2.0)
    K, T, H, tau, b, a, r0 = 3, 200, 4, 3, 2, 70.0, 2.0
    got = theorem2_bound(const, K, T, H, tau, b, a, r0)
    S_T = sum((a + t) ** 2 for t in range(T))
    expected = (
        0.5 * a**3 * r0 / (2.0 * S_T)
        + 4.0 * T * (T + 2.0 * a) * (1.5 / b) / (0.5 * K * S_T)
        + 768.0 * T * 2.0 * (H + tau) ** 2 * 2.0 / (0.5**2 * S_T)
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_corollary_first_term_example():
    const = make_constants()
    got = corollary_bound(const, K=2, T=10, H=1, b=1)
    assert got >= 0.05
    # isolate the leading variance term by sending T up
    big_T = corollary_bound(const, K=2, T=10**9, H=1, b=1)
    assert big_T * 2 * 10**9 == pytest.approx(1.0, rel=1e-6)


def test_corollary_sigma_zero_leaves_drift_terms():
    const = make_constants(sigma_sq=0.0, G_sq=2.0)
    K, T, H, b = 2, 100, 3, 1
    got = corollary_bound(const, K, T, H, b)
    expected = 1.0 * H**2 * 2.0 / (1.0 * T**2) + (1.0 + H**3) * 2.0 / (1.0 * T**3)
    assert got == pytest.approx(expected, rel=1e-12)


def test_corollary_independent_evaluation():
    const = make_constants(L=4.0, mu=2.0, sigma_sq=3.0, G_sq=5.0)
    K, T, H, b = 4, 500, 6, 2
    kappa = 2.0
    sigma_eff = 3.0 / b
    expected = (
        sigma_eff / (2.0 * K * T)
        + (kappa + H) * sigma_eff / (2.0 * K * T**2)
        + kappa * H**2 * 5.0 / (2.0 * T**2)
        + (kappa**3 + H**3) * 5.0 / (2.0 * T**3)
    )
    assert corollary_bound(const, K, T, H, b) == pytest.approx(expected, rel=1e-12)


def test_iterations_estimate_examples():
    assert iterations_estimate(1.0, 1, 1) == pytest.approx(1.5)
    # the bracket tends to 1 as eps -> 0
    for eps in (1e-3, 1e-6, 1e-9):
        assert iterations_estimate(eps, 3, 4) * 4 * eps == pytest.approx(
            1.0, abs=2e-1 * sqrt(eps) / sqrt(1e-9) + 1e-3
        )
    assert iterations_estimate(1e-12, 3, 4) * 4 * 1e-12 == pytest.approx(1.0, abs=1e-5)


def test_iterations_estimate_grid_against_direct_formula():
    for eps in (0.5, 0.01):
        for H in (1, 4, 16):
            for K in (1, 2, 8):
                expected = (0.5 + 0.5 * sqrt(1 + eps * (1 + H + H * H * K))) / (K * eps)
                assert iterations_estimate(eps, H, K) == pytest.approx(expected, rel=1e-12)


def test_speedup_trivial_and_closed_form():
    for H in (1, 2, 8):
        for eps in (0.0, 0.1, 1.0):
            for rho in (1.0, 25.0):
                assert speedup(1, H, eps, rho) == 1.0
    for K in (1, 2, 4, 8, 16):
        for H in (1, 2, 4, 8):
            for rho in (1.0, 25.0, 100.0):
                closed = K / (1.0 + 2.0 * rho * (K - 1) / H)
                assert speedup(K, H, 0.0, rho) == pytest.approx(closed, rel=1e-12)
    assert speedup(2, 1, 0.0, 25.0) == pytest.approx(2.0 / 51.0, rel=1e-12)


def test_speedup_monotone_in_H_at_zero_eps():
    for K in (2, 4, 8, 32):
        for rho in (1.0, 25.0):
            values = [speedup(K, H, 0.0, rho) for H in (1, 2, 4, 8, 16, 32)]
            assert all(b > a for a, b in zip(values, values[1:]))


def test_speedup_and_estimate_equal_their_written_out_formulas_bitwise():
    # the accuracy factor is stated once; both models keep their old rounding
    for eps in (0.0, 1e-3, 0.1, 0.7):
        for H in (1, 3, 16, 2.5):
            for K in (1, 2, 7, 32):
                accuracy_one = 0.5 + 0.5 * sqrt(1.0 + eps * (1.0 + H + H**2))
                accuracy_k = 0.5 + 0.5 * sqrt(1.0 + eps * (1.0 + H + H**2 * K))
                cost = 1.0 + 2.0 * 25.0 * (K - 1) / H
                assert speedup(K, H, eps, 25.0) == K * accuracy_one / (accuracy_k * cost)
                if eps > 0.0:
                    assert iterations_estimate(eps, H, K) == accuracy_k / (K * eps)


@pytest.mark.parametrize("rho", [0.5, 0.0, -1.0, float("nan"), float("inf")])
def test_speedup_takes_the_config_rule_for_rho(rho):
    # one rule for rho, finite and >= 1, in the model and in a config
    with pytest.raises(ValueError, match="cost ratio rho must be finite and >= 1"):
        speedup(2, 1, 0.1, rho)
    assert speedup(2, 1, 0.1, 1.0) > 0.0
