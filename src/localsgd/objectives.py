"""Finite-sum objectives f(x) = (1/n) sum_i f_i(x) with stochastic oracles.

Two families are provided:

* ridge-regularized logistic regression over a sparse Dataset,
  f_i(x) = log(1 + exp(-b_i a_i^T x)) + (lam/2) ||x||^2
* a synthetic strongly convex quadratic with shared diagonal curvature,
  f_i(x) = (1/2) x^T A x - b_i^T x

Both expose values, full and mini-batch gradients, and gradient moments,
for one point or a stack of points.  Each family computes a quantity once,
on a stack; a single-point oracle is a row of that stack.  The quadratic
has an analytic minimizer and exactly known curvature and noise constants,
which makes it the fixture of choice for verifying bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .data import Dataset
from .schedules import _require_integer, _require_real


@dataclass(frozen=True)
class ProblemConstants:
    """Curvature and noise constants consumed by the convergence bounds.

    L: smoothness, mu: strong convexity (L >= mu > 0), sigma_sq: bound on
    the per-component gradient variance, G_sq: bound on the per-component
    gradient second moment.  kappa is always exactly L/mu.
    """

    L: float
    mu: float
    sigma_sq: float
    G_sq: float

    def __post_init__(self):
        _require_real("mu", self.mu, positive=True)
        _require_real("L", self.L)
        if self.L < self.mu:
            raise ValueError("smoothness constant must be >= strong convexity")
        _require_real("sigma_sq", self.sigma_sq, 0)
        _require_real("G_sq", self.G_sq, 0)

    @property
    def kappa(self) -> float:
        return self.L / self.mu


@dataclass(frozen=True)
class ReferenceSolution:
    """Minimizer x_star and optimal value f_star, analytic or numeric."""

    x_star: np.ndarray
    f_star: float
    provenance: str  # "analytic" | "numeric"


class _Oracles:
    """The public oracles, written once over four passes on a flat (P, d) stack.

    A subclass computes `_values`, `_gradients`, `_second_moments` and the
    sampled gradients, each row from that row alone, and may share one pass
    between values and gradients in `_values_and_gradients`.  A sampled
    gradient is split in two: `_sample_plans(I)` does the work that depends
    only on the indices I of a block of steps, once for the block, and
    `_planned_gradients(X, plan)` the work of one step at the points X;
    `row_entries` is the mean number of entries a sampled row gathers.
    `minibatch_gradient_many` is a one-step block.  Every single-point
    oracle is its stacked oracle at x[None] (or at a broadcast x), so it
    equals that row bitwise.  A value that is not finite reads NaN at its
    own row, and every other row of the stack keeps its value.
    """

    def _check_dim(self, x):
        if x.shape[-1] != self.d:
            raise ValueError(f"point has dimension {x.shape[-1]}, expected {self.d}")

    def _check_index(self, i):
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} out of range [0, {self.n})")

    def value_many(self, X) -> np.ndarray:
        """Full-objective values for a stack of points X (..., d)."""
        self._check_dim(X)
        with np.errstate(over="ignore", invalid="ignore"):  # such a row reads NaN
            vals = self._values(X.reshape(-1, self.d))
        return np.where(np.isfinite(vals), vals, np.nan).reshape(X.shape[:-1])

    def gradient_many(self, X) -> np.ndarray:
        """Full gradients for a stack of points X (..., d)."""
        self._check_dim(X)
        return self._gradients(X.reshape(-1, self.d)).reshape(X.shape)

    def value_and_gradient_many(self, X):
        """(value_many(X), gradient_many(X)) of a stack X (..., d), bitwise."""
        self._check_dim(X)
        with np.errstate(over="ignore", invalid="ignore"):  # such a row reads NaN
            vals, grads = self._values_and_gradients(X.reshape(-1, self.d))
        vals = np.where(np.isfinite(vals), vals, np.nan)
        return vals.reshape(X.shape[:-1]), grads.reshape(X.shape)

    def _values_and_gradients(self, X):
        return self._values(X), self._gradients(X)

    def minibatch_gradient_many(self, X, I) -> np.ndarray:
        """Vectorized mini-batch means: X (..., d), I (..., b) -> (..., d).

        An index outside [0, n) is an IndexError and a batch without an
        index a ValueError; the engine's own draws, which are in range,
        take `sample_plans` without this check.
        """
        I = np.asarray(I)
        if not I.size:
            raise ValueError("a mini-batch needs at least one component index")
        bad = I[(I < 0) | (I >= self.n)]
        if bad.size:
            self._check_index(int(bad[0]))
        return self.planned_gradient_many(X, self.sample_plans(I[None])[0])

    def sample_plans(self, I, max_entries=None) -> list:
        """Plans of the mini-batch gradients of a block of steps I (B, ..., b).

        Step s samples the rows I[s], one (b,) row per point.  Returns one
        plan per leading step, as many as hold at most `max_entries`
        gathered entries in all (every step when None), and at least one.
        """
        return self._sample_plans(I.reshape(len(I), -1, I.shape[-1]), max_entries)

    def planned_gradient_many(self, X, plan) -> np.ndarray:
        """minibatch_gradient_many(X, I), bitwise, from the plan of I (..., b)."""
        self._check_dim(X)
        return self._planned_gradients(X.reshape(-1, self.d), plan).reshape(X.shape)

    def second_moment_many(self, X) -> np.ndarray:
        """E_i ||grad f_i||^2 for a stack of points, exact enumeration."""
        self._check_dim(X)
        return self._second_moments(X.reshape(-1, self.d)).reshape(X.shape[:-1])

    def second_moment_max(self, X, floor) -> float:
        """max(floor, the largest second_moment_many(X)) of a stack X (..., d).

        A NaN moment makes the largest one NaN, which leaves `floor`, as
        Python's max(floor, nan) does.
        """
        return max(floor, float(self.second_moment_many(X).max()))

    def value(self, x) -> float:
        return float(self.value_many(x[None])[0])

    def gradient(self, x) -> np.ndarray:
        return self.gradient_many(x[None])[0]

    def minibatch_gradient(self, x, idx) -> np.ndarray:
        """Mean of component gradients over index array idx."""
        return self.minibatch_gradient_many(x[None], np.asarray(idx).reshape(1, -1))[0]

    def component_gradient(self, x, i) -> np.ndarray:
        return self.minibatch_gradient_many(x[None], np.array([[i]]))[0]

    def component_gradients_at(self, x, idx) -> np.ndarray:
        """Per-component gradients at a single point, stacked (len(idx), d)."""
        self._check_dim(x)
        idx = np.asarray(idx).reshape(-1, 1)
        return self.minibatch_gradient_many(np.broadcast_to(x, (len(idx), self.d)), idx)

    def second_moment_at(self, x) -> float:
        """Exact E_i ||grad f_i(x)||^2 by enumeration."""
        return float(self.second_moment_many(x[None])[0])


class LogisticObjective(_Oracles):
    """L2-regularized logistic loss over a sparse Dataset; lam defaults to 1/n.

    Every oracle reads the CSR feature matrix through one of two private
    passes: `_sample_plans` gathers sampled rows by their indptr ranges
    (the stochastic gradients), and `_margins` forms all n margins of a
    stack of points with one A @ X.T product (values, full gradients and
    gradient moments).  Both accumulate in the order of scipy's CSR
    products, and per-point dot products go through np.vecdot, so each row
    of a stack is computed as on its own.  The loss is evaluated as
    logaddexp(0, z) = log(1 + e^z), stable for margins of either sign.
    """

    def __init__(self, dataset: Dataset, lam=None):
        self.dataset = dataset
        if lam is not None:
            _require_real("regularization", lam, 0)
        self.lam = 1.0 / dataset.n if lam is None else float(lam)
        self.n = dataset.n
        self.d = dataset.d
        self._A = dataset.features
        self._At = self._A.T  # CSC view on the same arrays; built once, not per call
        self._b = dataset.labels
        self._row_norms_sq = dataset.row_norms_sq()
        self.row_entries = self._A.nnz / self.n

    def _sample_plans(self, I, max_entries):
        """The gathers of the sampled rows I (B, P, b), one plan per step.

        A step's plan is (key, vals, sample, labels): the entries of its
        P*b sampled rows in storage order, as flat positions point*d +
        column of a (P, d) stack, their values and the sample each one
        belongs to, and the labels of the samples.  Only the leading steps
        whose entries fit `max_entries` are planned, and at least one.
        """
        B, P, b = I.shape
        per_step = P * b
        flat = I.ravel()
        starts = self._A.indptr[flat]
        lens = self._A.indptr[flat + 1] - starts
        ends = np.cumsum(lens)
        if max_entries is not None:
            B = max(1, int(np.searchsorted(ends[per_step - 1::per_step], max_entries,
                                           side="right")))
            flat, starts, lens, ends = (a[:B * per_step] for a in (flat, starts, lens, ends))
        # each entry's sample, numbered within its step
        sample = np.repeat(np.tile(np.arange(per_step), B), lens)
        pos = np.arange(sample.size) + np.repeat(starts - (ends - lens), lens)
        key = sample // b * self.d + self._A.indices[pos]
        vals = self._A.data[pos]
        labels = self._b[flat]
        bounds = np.concatenate(([0], ends[per_step - 1::per_step])).tolist()
        return [(key[lo:hi], vals[lo:hi], sample[lo:hi], labels[s * per_step:(s + 1) * per_step])
                for s, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]

    def _planned_margins(self, X, plan):
        """Margins b_i a_i^T x_p (P*b,) of the planned samples at the points X (P, d).

        bincount sums each sample's products in storage order from 0.0, as
        the CSR matvec does.
        """
        key, vals, sample, labels = plan
        return labels * np.bincount(sample, weights=vals * X.reshape(-1)[key],
                                    minlength=labels.size)

    def _planned_gradients(self, X, plan):
        """Mean component gradient over each point's planned samples."""
        key, vals, sample, labels = plan
        coef = -labels * expit(-self._planned_margins(X, plan))
        P, d = X.shape
        g = np.bincount(key, weights=vals * coef[sample], minlength=P * d)
        return g.reshape(P, d) / (labels.size // P) + self.lam * X

    def _margins(self, X):
        """All n margins at each point of a stack X (P, d), as (P, n)."""
        # contiguous rows, so that a row mean sums in the order of a single
        # point's mean
        return self._b * np.ascontiguousarray((self._A @ X.T).T)

    def _values(self, X, m=None):
        m = self._margins(X) if m is None else m
        return np.mean(np.logaddexp(0.0, -m), axis=-1) + 0.5 * self.lam * np.vecdot(X, X)

    def _full_gradient_parts(self, X, m=None):
        """Loss coefficients (P, n) and the data part of the full gradient (P, d)."""
        coef = -self._b * expit(-(self._margins(X) if m is None else m))
        # contiguous rows: np.vecdot on strided rows rounds differently
        return coef, np.ascontiguousarray((self._At @ coef.T).T) / self.n

    def _gradients(self, X, m=None):
        return self._full_gradient_parts(X, m)[1] + self.lam * X

    def _values_and_gradients(self, X):
        m = self._margins(X)  # one pass shared by both
        return self._values(X, m), self._gradients(X, m)

    def _second_moments(self, X):
        coef, mean_part = self._full_gradient_parts(X)
        second = np.mean(coef**2 * self._row_norms_sq, axis=-1)
        return (
            second
            + 2.0 * self.lam * np.vecdot(X, mean_part)
            + self.lam**2 * np.vecdot(X, X)
        )

    def hessian_product(self, x):
        """The map v -> H(x) v of the full Hessian at x.

        One margins pass gives the curvature weights s = sigma(m) sigma(-m);
        each product is then (1/n) A^T (s * A v) + lam v, one CSR and one
        CSC matvec, so no d x d matrix is ever formed.
        """
        self._check_dim(x)
        m = self._margins(x[None])[0]
        s = expit(m) * expit(-m)
        return lambda v: self._At @ (s * (self._A @ v)) / self.n + self.lam * v

    def component_value(self, x, i) -> float:
        self._check_dim(x)
        self._check_index(i)
        m = self._planned_margins(x[None], self._sample_plans(np.array([[[i]]]), None)[0])[0]
        return float(np.logaddexp(0.0, -m)) + 0.5 * self.lam * float(x @ x)

    def variance_at(self, x) -> float:
        """Exact E_i ||grad f_i(x) - grad f(x)||^2 by enumeration."""
        self._check_dim(x)
        coef, mean_part = self._full_gradient_parts(x[None])
        # the lam*x part is common to every component and cancels
        second = float(np.mean(coef**2 * self._row_norms_sq))
        return second - float(mean_part[0] @ mean_part[0])

    def curvature(self):
        """Analytic (mu, L): mu = lam, L = lam + max_i ||a_i||^2 / 4."""
        return self.lam, self.lam + float(self._row_norms_sq.max()) / 4.0


class QuadraticObjective(_Oracles):
    """Synthetic quadratic with shared diagonal Hessian and noisy linear terms.

    f_i(x) = (1/2) x^T diag(h) x - b_i^T x, with finite h > 0 and finite
    b_i.  The component gradients differ from the mean only through b_i,
    so the gradient variance is the same at every point and is known
    exactly; it is exactly 0 when all b_i are equal.  The sums over the d
    coordinates of a point are np.sum(..., axis=-1) (the quadratic term
    of a value and the second moments) and np.vecdot (the linear term of
    a value), whose rounding of a row does not depend on how many rows
    the stack has.  The gradient passes multiply and subtract h and the
    mean linear term as contiguous (P, d) rows, one loop over the stack.
    """

    lam = 0.0

    def __init__(self, hessian_diag, linear_terms):
        self.hess = np.asarray(hessian_diag, dtype=np.float64)
        self.B = np.atleast_2d(np.asarray(linear_terms, dtype=np.float64))
        self.n = self.B.shape[0]
        self.d = self.hess.shape[0]
        self.row_entries = self.d
        if self.B.shape[1] != self.d:
            raise ValueError("linear terms do not match Hessian dimension")
        # the first entry that is not finite (or not positive), if any
        for name, values, positive in (("Hessian diagonal entry", self.hess, True),
                                       ("linear term entry", self.B, False)):
            bad = values[~np.isfinite(values) | (positive & (values <= 0))]
            if bad.size:
                _require_real(name, float(bad[0]), positive=positive)
        # the mean of equal rows can round away from the row itself
        self.b_mean = self.B[0] if (self.B == self.B[0]).all() else self.B.mean(axis=0)
        deltas = self.B - self.b_mean
        self.sigma_sq = float(np.mean(np.sum(deltas**2, axis=1)))
        self._tiles = (np.empty((0, self.d)), np.empty((0, self.d)))
        self._ones = np.ones(self.d)

    def _rows(self, P):
        """h and the mean linear term as P contiguous rows each: slices of
        buffers that only grow, so no pass tiles them again."""
        hess, b_mean = self._tiles
        if len(hess) < P:
            hess, b_mean = self._tiles = (np.tile(self.hess, (P, 1)),
                                          np.tile(self.b_mean, (P, 1)))
        return hess[:P], b_mean[:P]

    def _values(self, X):
        return 0.5 * np.sum(X * self.hess * X, axis=-1) - np.vecdot(X, self.b_mean)

    def _gradients(self, X):
        hess, b_mean = self._rows(len(X))
        G = X * hess
        G -= b_mean
        return G

    def _sample_plans(self, I, max_entries):
        # a step's plan is B[I].mean(axis=-2), the mean of its sampled rows of
        # B (d gathered entries each): summed in row order, as that mean sums
        # them, one row of each sample at a time, without the (steps, P, b, d) gather
        steps = len(I) if max_entries is None else max(1, max_entries // (I[0].size * self.d))
        plans = np.take(self.B, I[:steps, :, 0], axis=0)
        for j in range(1, I.shape[-1]):
            plans += np.take(self.B, I[:steps, :, j], axis=0)
        plans /= I.shape[-1]
        return list(plans)

    def _planned_gradients(self, X, plan):
        G = X * self._rows(len(X))[0]
        G -= plan
        return G

    def _second_moments(self, X):
        return np.sum(self._gradients(X) ** 2, axis=-1) + self.sigma_sq

    def second_moment_max(self, X, floor) -> float:
        """`_Oracles.second_moment_max`, bitwise, summing exactly only the
        rows whose moment may exceed `floor`.

        A row's moment is M = fl(s + sigma_sq), where s is np.sum of its
        squared gradient entries p_1..p_d, floats >= 0.  One gemv pass sums
        the same p_j into A.  Let P be their real sum and u = 2^-53.  A
        float sum of d nonnegative terms in any order is within
        g = (d-1)u / (1 - (d-1)u) of P relative (a rounded addition errs by
        at most u relative, also in gradual underflow), unless it
        overflows to inf; so A >= (1 - g) P, and s <= (1 + g) P, whose
        partial sums are then bounded too.  The screen computes
        tau = nextafter(fl(fl(floor - sigma_sq) k), -inf) with k = 1 - 8du,
        exact for d <= 2^49, and sums a row exactly unless A <= tau:
        - tau < 0 passes no row, and a NaN A (a NaN p_j) passes none.
        - Else floor - sigma_sq >= 0, and tau <= (floor - sigma_sq) k (1+u)^2:
          the subtraction errs by at most u relative, and the product by u
          relative or, below the normal range, by at most half the spacing
          that nextafter takes back.
        - So A <= tau gives s + sigma_sq <= (floor - sigma_sq) k (1+u)^2
          (1+g)/(1-g) + sigma_sq <= floor, since (1+g)/(1-g) = 1/(1 - 2(d-1)u)
          and k (1+u)^2 <= 1 - (8d - 3)u <= 1 - 2(d-1)u.  Rounding is
          monotone and floor is a float, so M <= floor.
        Every row left out is thus finite and at most floor, and
        max(floor, max M) is max(floor, the max of the rows summed), or
        floor when none is.  A NaN row is summed, so it leaves floor here as
        there.  At floor = inf, tau is the largest float and passes every
        finite row.
        """
        self._check_dim(X)
        squares = self._gradients(X.reshape(-1, self.d))
        np.square(squares, out=squares)  # the p_j of M, the same floats
        bound = math.nextafter((floor - self.sigma_sq) * (1.0 - 8 * self.d * 2.0**-53), -math.inf)
        approx = squares @ self._ones
        if approx.max() <= bound:  # a NaN row fails too
            return floor
        rows = squares[~(approx <= bound)]
        return max(floor, float((np.sum(rows, axis=-1) + self.sigma_sq).max()))

    def component_value(self, x, i) -> float:
        self._check_dim(x)
        self._check_index(i)
        return 0.5 * float(x @ (self.hess * x)) - float(self.B[i] @ x)

    def variance_at(self, x) -> float:
        self._check_dim(x)
        return self.sigma_sq

    def curvature(self):
        return float(self.hess.min()), float(self.hess.max())

    def reference_solution(self) -> ReferenceSolution:
        x_star = self.b_mean / self.hess
        return ReferenceSolution(
            x_star=x_star, f_star=self.value(x_star), provenance="analytic"
        )


def make_quadratic(d, mu, L, n, noise, seed):
    """Construct the synthetic quadratic fixture with exact constants.

    The Hessian is diagonal with spectrum spread linearly over [mu, L]
    (both endpoints attained), the linear terms b_i are centered so their
    mean is exact, and the perturbations are rescaled so that the gradient
    variance equals noise^2 exactly (noise = 0 gives equal rows and a
    variance of exactly 0).  Requires finite 0 < mu <= L and a finite
    noise >= 0.  Returns the objective, its analytic minimizer, and the
    exact constants (G_sq reported at the minimizer, where the second
    moment equals the variance).
    """
    _require_real("mu", mu, positive=True)
    _require_real("L", L)
    if L < mu:
        raise ValueError("require finite 0 < mu <= L")
    _require_real("noise", noise, 0)
    for name, value, least in (("d", d, 1), ("n", n, 1), ("seed", seed, 0)):
        _require_integer(name, value, least)
    if d == 1 and mu != L:
        raise ValueError("a one-dimensional spectrum cannot attain both mu and L")
    if n == 1 and noise != 0.0:
        raise ValueError("a single component cannot carry zero-mean noise")

    rng = np.random.default_rng(seed)
    hess = np.linspace(mu, L, d) if d > 1 else np.array([mu], dtype=np.float64)
    x_star = rng.standard_normal(d)
    b_mean = hess * x_star

    if noise > 0.0:
        deltas = rng.standard_normal((n, d))
        deltas -= deltas.mean(axis=0)
        scale = noise / np.sqrt(np.mean(np.sum(deltas**2, axis=1)))
        B = b_mean + scale * deltas
    else:
        B = np.tile(b_mean, (n, 1))

    objective = QuadraticObjective(hess, B)
    reference = objective.reference_solution()
    constants = ProblemConstants(
        L=float(L), mu=float(mu), sigma_sq=float(noise) ** 2, G_sq=float(noise) ** 2
    )
    return objective, reference, constants
