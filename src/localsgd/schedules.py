"""Synchronization index sets and stepsize schedules.

A sync schedule lists the steps at which worker iterates are averaged,
every H steps and at the horizon; its quality is measured by the gap, the
largest distance between consecutive indices (with 0 prepended, since all
workers start aligned).
Stepsize schedules cover the decaying schedule required by the convergence
bounds and the two families used in the experiments.
"""

from __future__ import annotations

from dataclasses import dataclass


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


@dataclass(frozen=True)
class SyncSchedule:
    """Synchronization every H steps and at the horizon: {H, 2H, ...} union {T}.

    The gap of {0} union indices is H.  Membership is arithmetic, so a
    schedule costs nothing to build at any horizon.
    """

    T: int
    H: int

    def __post_init__(self):
        if self.H < 1 or self.H > self.T:
            raise ValueError("require 1 <= H <= T")

    def is_sync(self, t) -> bool:
        return 0 < t <= self.T and (t % self.H == 0 or t == self.T)

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
        if self.mu <= 0.0 or self.a <= 0.0:
            raise ValueError("mu and a must be positive")

    def eta(self, t) -> float:
        if t < 0:
            raise ValueError("step index must be >= 0")
        return 4.0 / (self.mu * (self.a + t))


@dataclass(frozen=True)
class ConstantStep:
    """eta_t = 32 c, the constant family of the experiment grid."""

    c: float

    def __post_init__(self):
        if self.c <= 0.0:
            raise ValueError("c must be positive")

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
        if self.c <= 0.0 or self.n < 1:
            raise ValueError("c and n must be positive")

    def eta(self, t) -> float:
        if t < 0:
            raise ValueError("step index must be >= 0")
        return min(32.0, self.c * self.n / (t + 1))


def _shift_threshold(curvature, window) -> float:
    """max{16 kappa, window}, kappa = L / mu from `curvature`, the pair (mu, L)."""
    return max(16.0 * (curvature[1] / curvature[0]), float(window))


def validate_shift(steps, curvature, window) -> None:
    """Check a > max{16 kappa, window} when `steps` has a shift a.

    Only a TheoremDecayStep has one, and only for it is kappa = L / mu
    formed from `curvature`, the pair (mu, L); an unregularized objective
    has mu = 0.  `window` is H for synchronous runs and H + tau when reads
    may be delayed by up to tau steps.
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
