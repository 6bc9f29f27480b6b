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

SCHEMES = ("last", "uniform", "linear", "quadratic")


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
        if t == 0:
            self.value = np.array(x, dtype=np.float64)
            return self.value
        if self.kind == "last":
            self.value = np.array(x, dtype=np.float64)
        elif self.kind == "uniform":
            self.value = x / (t + 1.0) + self.value * (t / (t + 1.0))
        elif self.kind == "linear":
            self.value = 2.0 * x / (2.0 + t) + self.value * (t / (t + 2.0))
        else:  # quadratic, shift-1 weights
            self.value = (
                6.0 * (t + 1.0) * x / ((t + 2.0) * (2.0 * t + 3.0))
                + self.value * (t * (1.0 + 2.0 * t)) / (6.0 + 7.0 * t + 2.0 * t**2)
            )
        return self.value


class ShiftedQuadraticAverage:
    """Weighted average with w_t = (a + t)^2 via explicit accumulators."""

    def __init__(self, shift):
        if shift < 1.0:
            raise ValueError("shift must be >= 1")
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
    if T < 1:
        raise ValueError("T must be >= 1")
    if a < 1.0:
        raise ValueError("shift must be >= 1")
    T = float(T)
    return (T / 6.0) * (2.0 * T * T + 6.0 * a * T - 3.0 * T + 6.0 * a * a - 6.0 * a + 1.0)
