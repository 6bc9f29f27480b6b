"""Formulas that only the tests use, independent of the engines.

A dataset's examples as (label, pairs) and its LIBSVM text, a sparse dot
product by an index loop, the doubly weighted output average of the
convergence theorem as an explicit weighted sum, the noise
constants of an objective over given points, a first-order reference
solve to check the Newton solve of the harness against, and the block
schedule of the load balancer and its staleness bound by scans over all
pairs, the tightest step of the perturbed-step inequality by a loop over
its checked steps, an objective that counts its oracle calls, a
quadratic whose value overflows past a threshold, the gap of a sync
index set, the steps a run recorded in a per-step row, and seeded random
engine configurations.
"""

from collections import Counter
from math import sqrt

import numpy as np

from localsgd import (
    ConstantStep,
    DelayModel,
    ExperimentDecayStep,
    ProblemConstants,
    QuadraticObjective,
    RecordFlags,
    ReferenceSolution,
    RunConfig,
    TheoremDecayStep,
    regular_sync_schedule,
    sum_of_weights,
    theorem_steps,
)


def example(dataset, i):
    """Example i of `dataset` as (label, [(index, value), ...]) with 1-based indices."""
    row = dataset.features.getrow(i)
    pairs = [(int(j) + 1, float(v)) for j, v in zip(row.indices, row.data)]
    return float(dataset.labels[i]), pairs


def serialize_libsvm(dataset) -> str:
    """Render a Dataset back to LIBSVM text; parse(serialize(ds)) == ds."""
    out = []
    for i in range(dataset.n):
        label, pairs = example(dataset, i)
        head = "+1" if label > 0 else "-1"
        feats = " ".join(f"{idx}:{value!r}" for idx, value in pairs)
        out.append(f"{head} {feats}".rstrip())
    return "\n".join(out) + "\n"


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


def perturbed_by_loop(result, objective, reference, steps, points, mu, L):
    """(step, lhs mean, rhs mean, stderr) of the perturbed-step inequality
    at its tightest checked step, one step at a time.

    `result` is the EnsembleResult of the tested runs, with xbar recorded.
    Each checked step's f(xbar_t) is its own value pass over the runs,
    and its distances to x* are computed from xbar_t and xbar_{t+1}.  Each
    step's per-run difference lhs - rhs is a row of its own; the tightest
    step has the smallest 3 stderr - mean difference, ties to the earliest.
    """
    runs = result.xbar.shape[0]
    worst = None
    for t in points:
        eta = steps.eta(int(t))
        dist_t = np.sum((result.xbar[:, t] - reference.x_star) ** 2, axis=1)
        lhs = np.sum((result.xbar[:, t + 1] - reference.x_star) ** 2, axis=1)
        f_t = objective.value_many(result.xbar[:, t])
        rhs = ((1.0 - mu * eta) * dist_t + eta**2 * result.noise_sq[:, t]
               - 0.5 * eta * (f_t - reference.f_star)
               + 2.0 * eta * L * result.deviations[:, t])
        diff = lhs - rhs
        stderr = float(diff.std(ddof=1) / np.sqrt(runs))
        margin = 3.0 * stderr - float(diff.mean())
        if worst is None or margin < worst[0]:
            worst = (margin, int(t), float(lhs.mean()), float(rhs.mean()), stderr)
    return worst[1:]


class GradientCounter:
    """An objective that counts the calls to its value and gradient oracles.

    `counts` maps each oracle name to its calls, and `calls` is the
    number of gradient oracle calls.
    """

    def __init__(self, objective):
        self.objective = objective
        self.counts = Counter()

    @property
    def calls(self):
        return sum(n for name, n in self.counts.items() if "gradient" in name)

    def __getattr__(self, name):
        attr = getattr(self.objective, name)
        if "gradient" not in name and "value" not in name:
            return attr

        def counted(*args, **kwargs):
            self.counts[name] += 1
            return attr(*args, **kwargs)
        return counted


class ThresholdQuadratic(QuadraticObjective):
    """A quadratic whose value overflows to inf at a point with a coordinate past c."""

    def __init__(self, hessian_diag, linear_terms, c):
        super().__init__(hessian_diag, linear_terms)
        self.c = c

    def _values(self, X):
        return np.where(np.max(X, axis=-1) > self.c, np.inf, super()._values(X))


def recorded_steps(row) -> int:
    """The steps a run recorded in a per-step row with the step axis first:
    the row reads NaN from the step where its run froze."""
    frozen = np.isnan(row).reshape(len(row), -1).any(axis=1)
    return int(frozen.argmax()) if frozen.any() else len(row)


def gap(indices) -> int:
    """Largest difference between consecutive members of a sorted set."""
    seq = list(indices)
    if len(seq) < 2:
        raise ValueError("gap requires at least two indices")
    widest = 0
    for prev, cur in zip(seq, seq[1:]):
        if cur < prev:
            raise ValueError("indices must be sorted ascending")
        widest = max(widest, cur - prev)
    return widest


def random_cases(objectives, count, seed=0):
    """`count` random engine configurations, drawn by one numpy generator
    seeded with `seed`.

    `objectives` maps a name to (objective, f_star).  A case is a dict of
    the objective's name, a RunConfig, the seeds, one stepsize schedule
    per seed, a delay model, an accuracy target (eps, f_star) and a row,
    one of the seeds' positions.  K is
    1-5, T 1-59, H 1-T and b 1-3; there are 1-4 seeds from 0-4, repeats
    allowed.  Each record flag is on or off, f_every None or 1-(T+1), and
    x0 zero or Gaussian.  The delay is zero, or fixed or random-bounded
    with tau 0-3.  The schedules are of one family: the bounds' decaying
    schedule with a shift 1-4 times its smallest valid one for H + tau, or
    the constant or decaying experiment family at c = 2^i; they are one
    schedule for all the seeds or one each.  eps is the gap f(x0) - f_star
    times 2^-8 to 1.
    """
    rng = np.random.default_rng(seed)
    names = sorted(objectives)
    cases = []
    for _ in range(count):
        name = names[int(rng.integers(len(names)))]
        objective, f_star = objectives[name]
        K, T, b = (int(v) for v in rng.integers((1, 1, 1), (6, 60, 4)))
        H = int(rng.integers(1, T + 1))
        seeds = [int(s) for s in rng.integers(0, 5, size=int(rng.integers(1, 5)))]
        kind = ("zero", "fixed", "random-bounded")[int(rng.integers(3))]
        tau = 0 if kind == "zero" else int(rng.integers(0, 4))
        delay = DelayModel(kind, tau=tau, seed=int(rng.integers(0, 100)))
        family = int(rng.integers(3))
        shared = bool(rng.integers(2))
        schedules = []
        for _seed in seeds[:1] if shared else seeds:
            if family == 0:
                smallest = theorem_steps(objective.curvature(), H + tau)
                schedules.append(TheoremDecayStep(mu=smallest.mu,
                                                  a=smallest.a * 2.0 ** rng.uniform(0, 2)))
            elif family == 1:
                schedules.append(ConstantStep(c=2.0 ** rng.uniform(-12, 2)))
            else:
                schedules.append(ExperimentDecayStep(c=2.0 ** rng.uniform(-14, 0),
                                                     n=objective.n))
        if shared:
            schedules *= len(seeds)
        flags = {name: bool(v) for name, v in zip(
            ("virtual", "deviations", "f_values", "iterates", "noise_norms"),
            rng.integers(0, 2, size=5))}
        f_every = None if rng.integers(2) else int(rng.integers(1, T + 2))
        record = RecordFlags(**flags, f_every=f_every)
        x0 = rng.normal(size=objective.d) if rng.integers(2) else np.zeros(objective.d)
        config = RunConfig(K=K, T=T, b=b, sync=regular_sync_schedule(T, H),
                           steps=schedules[0], seed=seeds[0], x0=x0, record=record)
        eps = float(objective.value(x0) - f_star) * 2.0 ** rng.uniform(-8, 0)
        cases.append(dict(name=name, config=config, seeds=seeds, schedules=schedules,
                          delay=delay, target=(eps, f_star),
                          row=int(rng.integers(len(seeds)))))
    return cases
