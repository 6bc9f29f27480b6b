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

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np
from scipy.special import expit

from .data import Dataset


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
        if not (self.mu > 0.0):
            raise ValueError("strong convexity constant must be positive")
        if self.L < self.mu:
            raise ValueError("smoothness constant must be >= strong convexity")
        if self.sigma_sq < 0.0 or self.G_sq < 0.0:
            raise ValueError("noise bounds must be nonnegative")

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

    A subclass computes `_values`, `_gradients`, `_sampled_gradients(X, I)`
    and `_second_moments`, each row from that row alone, and may share one
    pass between values and gradients in `_values_and_gradients`.  Every
    single-point oracle is its stacked oracle at x[None] (or at a broadcast
    x), so it equals that row bitwise.  A non-finite value raises
    FloatingPointError.
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
        with np.errstate(over="ignore", invalid="ignore"):  # the raise reports it
            vals = self._values(X.reshape(-1, self.d))
        if not np.isfinite(vals).all():
            raise FloatingPointError("objective evaluated to a non-finite value")
        return vals.reshape(X.shape[:-1])

    def gradient_many(self, X) -> np.ndarray:
        """Full gradients for a stack of points X (..., d)."""
        self._check_dim(X)
        return self._gradients(X.reshape(-1, self.d)).reshape(X.shape)

    def value_and_gradient_many(self, X):
        """(value_many(X), gradient_many(X)) of a stack X (..., d), bitwise."""
        self._check_dim(X)
        with np.errstate(over="ignore", invalid="ignore"):  # the raise reports it
            vals, grads = self._values_and_gradients(X.reshape(-1, self.d))
        if not np.isfinite(vals).all():
            raise FloatingPointError("objective evaluated to a non-finite value")
        return vals.reshape(X.shape[:-1]), grads.reshape(X.shape)

    def _values_and_gradients(self, X):
        return self._values(X), self._gradients(X)

    def minibatch_gradient_many(self, X, I) -> np.ndarray:
        """Vectorized mini-batch means: X (..., d), I (..., b) -> (..., d)."""
        self._check_dim(X)
        G = self._sampled_gradients(X.reshape(-1, self.d), I.reshape(-1, I.shape[-1]))
        return G.reshape(X.shape)

    def second_moment_many(self, X) -> np.ndarray:
        """E_i ||grad f_i||^2 for a stack of points, exact enumeration."""
        self._check_dim(X)
        return self._second_moments(X.reshape(-1, self.d)).reshape(X.shape[:-1])

    def value(self, x) -> float:
        return float(self.value_many(x[None])[0])

    def gradient(self, x) -> np.ndarray:
        return self.gradient_many(x[None])[0]

    def minibatch_gradient(self, x, idx) -> np.ndarray:
        """Mean of component gradients over index array idx."""
        return self.minibatch_gradient_many(x[None], np.asarray(idx).reshape(1, -1))[0]

    def component_gradient(self, x, i) -> np.ndarray:
        self._check_index(i)
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
    passes: `_sample_margins` gathers sampled rows by their indptr ranges
    (the stochastic gradients), and `_margins` forms all n margins of a
    stack of points with one A @ X.T product (values, full gradients and
    gradient moments).  Both accumulate in the order of scipy's CSR
    products, and per-point dot products go through np.vecdot, so each row
    of a stack is computed as on its own.  The loss is evaluated as
    logaddexp(0, z) = log(1 + e^z), stable for margins of either sign.
    """

    def __init__(self, dataset: Dataset, lam=None):
        self.dataset = dataset
        self.lam = 1.0 / dataset.n if lam is None else float(lam)
        if not (isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"regularization must be finite and nonnegative, got {self.lam}")
        self.n = dataset.n
        self.d = dataset.d
        self._A = dataset.features
        self._At = self._A.T  # CSC view on the same arrays; built once, not per call
        self._b = dataset.labels
        self._row_norms_sq = dataset.row_norms_sq()

    def _sample_margins(self, X, I):
        """Margins b_i a_i^T x_p of the rows I[p] (P, b) at the points X (P, d).

        Returns the (P*b,) margins and the gathered entries (sample, point,
        column, value) in storage order.  bincount sums each sample's
        products in storage order from 0.0, as the CSR matvec does.
        """
        flat = I.ravel()
        starts = self._A.indptr[flat]
        lens = self._A.indptr[flat + 1] - starts
        sample = np.repeat(np.arange(flat.size), lens)
        pos = np.arange(sample.size) + np.repeat(starts - (np.cumsum(lens) - lens), lens)
        cols = self._A.indices[pos]
        vals = self._A.data[pos]
        point = sample // I.shape[1]
        z = np.bincount(sample, weights=vals * X[point, cols], minlength=flat.size)
        return self._b[flat] * z, (sample, point, cols, vals)

    def _sampled_gradients(self, X, I):
        """Mean component gradient over the rows I[p] at each point X[p]."""
        m, (sample, point, cols, vals) = self._sample_margins(X, I)
        coef = -self._b[I.ravel()] * expit(-m)
        P, d = X.shape
        g = np.bincount(point * d + cols, weights=vals * coef[sample], minlength=P * d)
        return g.reshape(P, d) / I.shape[1] + self.lam * X

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
        m = self._sample_margins(x[None], np.array([[i]]))[0][0]
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

    f_i(x) = (1/2) x^T diag(h) x - b_i^T x.  The component gradients differ
    from the mean only through b_i, so the gradient variance is the same at
    every point and is known exactly; it is exactly 0 when all b_i are
    equal.  Per-point dot products go through np.vecdot, whose rounding of
    a row does not depend on how many rows the stack has.
    """

    lam = 0.0

    def __init__(self, hessian_diag, linear_terms):
        self.hess = np.asarray(hessian_diag, dtype=np.float64)
        self.B = np.atleast_2d(np.asarray(linear_terms, dtype=np.float64))
        self.n = self.B.shape[0]
        self.d = self.hess.shape[0]
        if self.B.shape[1] != self.d:
            raise ValueError("linear terms do not match Hessian dimension")
        # the mean of equal rows can round away from the row itself
        self.b_mean = self.B[0] if (self.B == self.B[0]).all() else self.B.mean(axis=0)
        deltas = self.B - self.b_mean
        self.sigma_sq = float(np.mean(np.sum(deltas**2, axis=1)))

    def _values(self, X):
        return 0.5 * np.sum(X * self.hess * X, axis=-1) - np.vecdot(X, self.b_mean)

    def _gradients(self, X):
        return self.hess * X - self.b_mean

    def _sampled_gradients(self, X, I):
        return self.hess * X - self.B[I].mean(axis=-2)

    def _second_moments(self, X):
        return np.sum(self._gradients(X) ** 2, axis=-1) + self.sigma_sq

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
    if not (0.0 < mu <= L < inf):
        raise ValueError("require finite 0 < mu <= L")
    if not (0.0 <= noise < inf):
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    if d < 1 or n < 1:
        raise ValueError("require d >= 1 and n >= 1")
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
