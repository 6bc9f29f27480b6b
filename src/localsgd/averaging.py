"""Running weighted averages of iterate streams.

Four schemes are tracked on the fly without storing past iterates:

    last       y_t = x_t
    uniform    y_t = x_t / (t+1) + t y_{t-1} / (t+1)
    linear     y_t = 2 x_t / (2+t) + t y_{t-1} / (t+2)          (w_t = t+1)
    quadratic  y_t = 6(t+1) x_t / ((t+2)(2t+3))
                     + t(1+2t) y_{t-1} / (6+7t+2t^2)            (w_t = (t+1)^2)

The output average of the convergence theorem uses quadratic weights with a
general shift, w_t = (a+t)^2; that one is maintained with explicit
(sum of weights, weighted sum) accumulators.
"""

from __future__ import annotations

import numpy as np

from .schedules import _require_real

SCHEMES = ("last", "uniform", "linear", "quadratic")

# The recursions of the averaging schemes after the first: at step t >= 1,
# y_t = x_t * x_num / x_den + y_{t-1} * y_num / y_den, each in this order of
# operations, with (x_num, x_den, y_num, y_den) as given here (scalars for a
# scalar t, elementwise for an array of steps).  Multiplying and dividing by
# 1.0 are exact.  The last scheme is the iterate itself, y_t = x_t.
RECURSIONS = {
    "uniform": lambda t: (1.0, t + 1.0, t / (t + 1.0), 1.0),
    "linear": lambda t: (2.0, 2.0 + t, t / (t + 2.0), 1.0),
    "quadratic": lambda t: (6.0 * (t + 1.0), (t + 2.0) * (2.0 * t + 3.0),
                            t * (1.0 + 2.0 * t), 6.0 + 7.0 * t + 2.0 * t**2),
}


def recursion_weights(steps):
    """The RECURSIONS coefficients at an array of steps, as one array (4, len(steps), 3).

    Axis 0 is (x_num, x_den, y_num, y_den) and axis 2 the schemes of
    RECURSIONS in SCHEMES order; each entry equals RECURSIONS at a scalar t.
    """
    t = np.asarray(steps, dtype=np.float64)
    return np.stack([np.stack(np.broadcast_arrays(*part), axis=-1)
                     for part in zip(*(RECURSIONS[kind](t) for kind in SCHEMES[1:]))])


class RunningAverage:
    """Recursive weighted average over a stream x_0, x_1, ... of vectors."""

    def __init__(self, kind):
        if kind not in SCHEMES:
            raise ValueError(f"unknown averaging scheme {kind!r}")
        self.kind = kind
        self.t = -1
        self.value = None

    def update(self, x, t):
        """Fold in x_t; updates must arrive with consecutive t starting at 0."""
        if t != self.t + 1:
            raise ValueError(f"out-of-order update: expected t={self.t + 1}, got {t}")
        self.t = t
        if t == 0 or self.kind == "last":
            self.value = np.array(x, dtype=np.float64)
        else:
            x_num, x_den, y_num, y_den = RECURSIONS[self.kind](t)
            self.value = x * x_num / x_den + self.value * y_num / y_den
        return self.value


class ShiftedQuadraticAverage:
    """Weighted average with w_t = (a + t)^2 via explicit accumulators.

    The reference for one stream: the time-step loop keeps the same two
    accumulators for its whole stack of runs as arrays, with each run's
    own shift, and the tests compare its output averages with this class.
    """

    def __init__(self, shift):
        _require_real("shift", shift, 1)
        self.shift = float(shift)
        self.t = -1
        self.weight_sum = 0.0
        self.weighted_sum = None

    def update(self, x, t):
        if t != self.t + 1:
            raise ValueError(f"out-of-order update: expected t={self.t + 1}, got {t}")
        self.t = t
        w = (self.shift + t) ** 2
        self.weight_sum += w
        if self.weighted_sum is None:
            self.weighted_sum = w * np.array(x, dtype=np.float64)
        else:
            self.weighted_sum = self.weighted_sum + w * x
        return self.value

    @property
    def value(self):
        if self.weighted_sum is None:
            return None
        return self.weighted_sum / self.weight_sum


def sum_of_weights(a, T) -> float:
    """Closed form of S_T = sum_{t<T} (a+t)^2.

    S_T = (T/6) (2T^2 + 6aT - 3T + 6a^2 - 6a + 1), which is >= T^3 / 3 for
    a >= 1.
    """
    _require_real("T", T, 1)
    _require_real("shift", a, 1)
    T = float(T)
    return (T / 6.0) * (2.0 * T * T + 6.0 * a * T - 3.0 * T + 6.0 * a * a - 6.0 * a + 1.0)
