"""Formulas that only the tests use, independent of the engines.

A sparse dot product by an index loop, the doubly weighted output average
of the convergence theorem as an explicit weighted sum, the noise
constants of an objective over given points, a first-order reference
solve to check the Newton solve of the harness against, and the staleness
bound of a block schedule by a scan over all pairs of blocks.
"""

from math import sqrt

import numpy as np

from localsgd import (
    ProblemConstants,
    QuadraticObjective,
    ReferenceSolution,
    sum_of_weights,
)


def sparse_dot(features, x) -> float:
    """Dot product of a sparse vector [(index, value), ...] with dense x.

    Indices are 1-based; summation runs in ascending index order so the
    result is deterministic.  Raises IndexError for indices beyond dim(x).
    """
    total = 0.0
    for index, value in features:
        if index < 1 or index > len(x):
            raise IndexError(f"feature index {index} out of range for dim {len(x)}")
        total += value * x[index - 1]
    return total


def theorem_average(traces, a) -> np.ndarray:
    """Doubly weighted output average over per-worker iterate sequences.

    traces is (K, T, d) (or a list of equal-length (T, d) arrays) holding
    x_t^k for t < T; the result is sum_{k,t} (a+t)^2 x_t^k / (K S_T), which
    equals the shift-a running average of the per-step worker means.
    """
    stack = np.asarray(traces, dtype=np.float64)
    if stack.ndim != 3:
        raise ValueError("traces must stack to (K, T, d)")
    K, T, _ = stack.shape
    w = (a + np.arange(T, dtype=np.float64)) ** 2
    total = np.einsum("t,ktd->d", w, stack)
    return total / (K * sum_of_weights(a, T))


def estimate_constants(objective, sample_points, trials=1, seed=0) -> ProblemConstants:
    """Estimate (L, mu, sigma^2, G^2) for an objective over sample points.

    sigma^2 and G^2 are the maxima over the points of the per-component
    gradient variance and second moment; both are computed by exact
    enumeration when n is small and by sampling `trials` components
    otherwise.  L and mu come from the analytic formulas of the objective
    family.
    """
    points = [np.asarray(p, dtype=np.float64) for p in sample_points]
    if not points:
        raise ValueError("at least one sample point is required")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    exact = objective.n <= 100_000 or isinstance(objective, QuadraticObjective)
    rng = np.random.default_rng(seed)

    sigma_sq = 0.0
    g_sq = 0.0
    for x in points:
        if exact:
            var = objective.variance_at(x)
            second = objective.second_moment_at(x)
        else:
            idx = rng.integers(0, objective.n, size=trials)
            grads = objective.component_gradients_at(x, idx)
            mean = objective.gradient(x)
            var = float(np.mean(np.sum((grads - mean) ** 2, axis=1)))
            second = float(np.mean(np.sum(grads**2, axis=1)))
        sigma_sq = max(sigma_sq, var)
        g_sq = max(g_sq, second)

    mu, L = objective.curvature()
    return ProblemConstants(L=L, mu=mu, sigma_sq=sigma_sq, G_sq=g_sq)


def accelerated_reference(objective, tolerance=1e-8, max_iters=200_000) -> ReferenceSolution:
    """Reference solution of a strongly convex objective by accelerated descent.

    Deterministic accelerated full-batch gradient descent from zero with
    step 1/L and the strongly convex momentum coefficient, run until the
    full gradient norm (checked every 25 steps) is below `tolerance`.  With
    mu = lam the optimality gap at return is at most tolerance^2 / (2 lam).
    """
    mu, L = objective.curvature()
    if mu <= 0.0:
        raise ValueError("reference computation requires strong convexity (lam > 0)")
    beta = (sqrt(L) - sqrt(mu)) / (sqrt(L) + sqrt(mu))
    x = np.zeros(objective.d)
    y = x.copy()
    check_every = 25
    for it in range(1, max_iters + 1):
        g = objective.gradient(y)
        x_new = y - g / L
        y = x_new + beta * (x_new - x)
        x = x_new
        if it % check_every == 0:
            gnorm = float(np.linalg.norm(objective.gradient(x)))
            if gnorm <= tolerance:
                return ReferenceSolution(
                    x_star=x, f_star=objective.value(x), provenance="numeric"
                )
    raise RuntimeError(
        f"reference solve did not reach gradient norm {tolerance} "
        f"within {max_iters} iterations"
    )


def assignment_bound(entries, H) -> int:
    """Staleness bound of a block schedule, one scan of all blocks per block.

    `entries` are (seq, block, worker, start, end).  When a block lands,
    the leader is the furthest step of any block that has ended by then;
    the bound is the largest lead over a block's first step, at least H.
    """
    completions = [((block + 1) * H, end) for _seq, block, _w, _start, end in entries]
    bound = H
    for _seq, block, _w, _start, end in entries:
        lead = max(s for s, e in completions if e <= end)
        bound = max(bound, lead - block * H)
    return bound
