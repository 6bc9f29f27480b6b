"""Formulas that only the tests use, independent of the engines.

A sparse dot product by an index loop, the doubly weighted output average
of the convergence theorem as an explicit weighted sum, the noise
constants of an objective over given points, a first-order reference
solve to check the Newton solve of the harness against, and the block
schedule of the load balancer and its staleness bound by scans over all
pairs, and the tightest step of the perturbed-step inequality by a loop
over its checked steps.
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


def assignment_entries(speeds, H, n_blocks) -> list:
    """Entries of the greedy block schedule, by a scan over all (worker, sequence) pairs.

    Each pick is the pair with the smallest (start, next block of the
    sequence, sequence, worker), started at max(worker free, sequence
    ready) and run for H / speed.
    """
    K = len(speeds)
    worker_free, seq_ready = [0.0] * K, [0.0] * K
    next_block = [0] * K
    entries = []
    for _ in range(K * n_blocks):
        best = None
        for w in range(K):
            for seq in range(K):
                if next_block[seq] >= n_blocks:
                    continue
                start = max(worker_free[w], seq_ready[seq])
                key = (start, next_block[seq], seq, w)
                if best is None or key < best[0]:
                    best = (key, w, seq, start)
        _, w, seq, start = best
        end = start + H / float(speeds[w])
        entries.append((seq, next_block[seq], w, start, end))
        next_block[seq] += 1
        worker_free[w] = seq_ready[seq] = end
    return entries


def needed_by_comparison(measured, points, t, crossed) -> np.ndarray:
    """Mask of a grid-search round's runs that can still be their family's best point.

    Compares each run's earliest possible (t + 1, i) with its family's best
    (t*, i) so far, over the measured points and the runs that crossed.
    """
    best = {}
    reached = [(family, t_star, i) for family, lookup in measured.items()
               for i, t_star in lookup.items() if t_star is not None]
    reached += [(family, int(crossed[r]), i)
                for r, (family, i) in enumerate(points) if crossed[r] >= 0]
    for family, t_star, i in reached:
        best[family] = min(best.get(family, (t_star, i)), (t_star, i))
    return np.array([family not in best or (t + 1, i) < best[family]
                     for family, i in points])


def perturbed_by_loop(result, steps, points, mu, L, f_star):
    """(step, lhs mean, rhs mean, stderr) of the perturbed-step inequality
    at its tightest checked step, one step at a time.

    `result` is the EnsembleResult of the tested runs.  Each step's
    per-run difference lhs - rhs is a row of its own; the tightest step
    has the smallest 3 stderr - mean difference, ties to the earliest.
    """
    runs = result.dist_sq.shape[0]
    worst = None
    for t in points:
        eta = steps.eta(int(t))
        lhs = result.dist_sq[:, t + 1]
        rhs = ((1.0 - mu * eta) * result.dist_sq[:, t] + eta**2 * result.noise_sq[:, t]
               - 0.5 * eta * (result.f_xbar[:, t] - f_star)
               + 2.0 * eta * L * result.deviations[:, t])
        diff = lhs - rhs
        stderr = float(diff.std(ddof=1) / np.sqrt(runs))
        margin = 3.0 * stderr - float(diff.mean())
        if worst is None or margin < worst[0]:
            worst = (margin, int(t), float(lhs.mean()), float(rhs.mean()), stderr)
    return worst[1:]
