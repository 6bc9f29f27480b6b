"""Synchronization index sets and stepsize schedules.

A sync schedule lists the steps at which worker iterates are averaged,
every H steps and at the horizon; its quality is measured by the gap, the
largest distance between consecutive indices (with 0 prepended, since all
workers start aligned).
Stepsize schedules cover the decaying schedule required by the convergence
bounds and the two families used in the experiments.

The package's rules on values, `_require_integer` and `_require_real` on
numbers and `_require_bool` on switches, are stated here, in the one
module that imports nothing from the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from numbers import Integral, Real
from sys import float_info


def _require_integer(name, value, least):
    """Reject `value` unless it is an integer >= least; a bool is not one."""
    if type(value) is int and value >= least:  # the common case, without the ABC checks
        return
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_real(name, value, least=-inf, positive=False):
    """Reject `value` unless it is a finite real >= least, > 0 if `positive`; a bool is not one,
    and an int beyond the float range is not finite."""
    if (isinstance(value, bool) or not isinstance(value, Real) or not abs(value) <= float_info.max
            or value < least or positive and value <= 0):
        bound = (" and positive" if positive else "" if least == -inf
                 else " and nonnegative" if least == 0 else f" and >= {least}")
        raise ValueError(f"{name} must be finite{bound}, got {value!r}")


def _require_bool(name, value):
    """Reject `value` unless it is a bool; no other value is read by its truthiness."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a bool, got {value!r}")


@dataclass(frozen=True)
class SyncSchedule:
    """Synchronization every H steps and at the horizon: {H, 2H, ...} union {T}.

    The gap of {0} union indices is H.  Membership is arithmetic, so a
    schedule costs nothing to build at any horizon, and `is_sync` reads an
    integer array of steps elementwise.
    """

    T: int
    H: int

    def __post_init__(self):
        _require_integer("T", self.T, 1)
        _require_integer("H", self.H, 1)
        if self.H > self.T:
            raise ValueError("H must be <= T")

    def is_sync(self, t):
        return (0 < t) & (t <= self.T) & ((t % self.H == 0) | (t == self.T))

    @property
    def indices(self) -> tuple:
        idx = tuple(range(self.H, self.T + 1, self.H))
        return idx if idx[-1] == self.T else idx + (self.T,)


def regular_sync_schedule(T, H) -> SyncSchedule:
    """Every H steps plus the horizon: {H, 2H, ...} union {T}."""
    return SyncSchedule(T=T, H=H)


@dataclass(frozen=True)
class TheoremDecayStep:
    """eta_t = 4 / (mu (a + t)); the schedule the convergence bounds assume.

    Validity of the shift (a > max{16 kappa, H} for synchronous runs, with
    H replaced by H + tau for delayed runs) is checked at run construction
    where the curvature is known; see `validate_shift`.
    """

    mu: float
    a: float

    def __post_init__(self):
        _require_real("mu", self.mu, positive=True)
        _require_real("a", self.a, positive=True)

    def eta(self, t) -> float:
        if t < 0:
            raise ValueError("step index must be >= 0")
        return 4.0 / (self.mu * (self.a + t))


@dataclass(frozen=True)
class ConstantStep:
    """eta_t = 32 c, the constant family of the experiment grid."""

    c: float

    def __post_init__(self):
        _require_real("c", self.c, positive=True)

    def eta(self, t) -> float:
        if t < 0:
            raise ValueError("step index must be >= 0")
        return 32.0 * self.c


@dataclass(frozen=True)
class ExperimentDecayStep:
    """eta_t = min(32, c n / (t + 1)), the decaying experiment family, capped at a fixed 32."""

    c: float
    n: int

    def __post_init__(self):
        _require_real("c", self.c, positive=True)
        _require_integer("n", self.n, 1)

    def eta(self, t) -> float:
        if t < 0:
            raise ValueError("step index must be >= 0")
        return min(32.0, self.c * self.n / (t + 1))


def _shift_threshold(curvature, window) -> float:
    """max{16 kappa, window}, kappa = L / mu from `curvature`, the pair (mu, L), mu > 0."""
    _require_real("mu", curvature[0], positive=True)
    return max(16.0 * (curvature[1] / curvature[0]), float(window))


def validate_shift(steps, curvature, window) -> None:
    """Check a > max{16 kappa, window} when `steps` has a shift a.

    Only a TheoremDecayStep has one, and only for it is kappa = L / mu
    formed from `curvature`, the pair (mu, L); an unregularized objective
    has mu = 0, which is a ValueError.  `window` is H for synchronous runs
    and H + tau when reads may be delayed by up to tau steps.
    """
    if isinstance(steps, TheoremDecayStep):
        threshold = _shift_threshold(curvature, window)
        if not steps.a > threshold:
            raise ValueError(
                f"shift a={steps.a} must exceed max(16*kappa, window)="
                f"{threshold} (kappa={curvature[1] / curvature[0]}, window={window})"
            )


def theorem_steps(curvature, window) -> TheoremDecayStep:
    """The decaying schedule the bounds are evaluated at, for `curvature` (mu, L):
    shift a = max{16 kappa, window} + 1, one above the threshold of `validate_shift`.
    """
    return TheoremDecayStep(mu=curvature[0], a=_shift_threshold(curvature, window) + 1.0)
