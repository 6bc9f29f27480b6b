"""A fixed speed probe, timed next to every measured piece of work.

On a shared host the same work was measured to take from 1x to 2x its
fastest time, in levels that hold for seconds to minutes, with CPU time
tracking wall time: the process is slowed, not descheduled.  Timing a
fixed probe right before and after each piece of work and dividing by it
cancels most of that: over eight to ten seeded runs of one workload the
spread (IQR over median) of the probe-relative time stayed near 7%, both
when the host was quiet and when raw wall times spread by 25% or more.

The probe does what localsgd's hot paths do, with none of its code: a
Python loop of CSR row gathers, small sparse products and numpy
element-wise calls.  Its results are discarded.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# The probe's duration on the reference host (2 vCPUs of an
# "Intel(R) Xeon(R) Processor", Python 3.11, numpy 2.4, scipy 1.17) in a
# quiet phase.  Probe-relative times are reported in these seconds.
REFERENCE_S = 0.015

_rng = np.random.default_rng(0)
_A = sp.random(200, 50, density=0.1, format="csr", random_state=_rng)
_ROWS = _rng.integers(0, 200, size=(150, 1))


def probe() -> float:
    """Wall seconds of one pass of the fixed probe work."""
    start = time.perf_counter()
    x = np.zeros(50)
    for idx in _ROWS:
        rows = _A[idx]
        x = x - 0.01 * np.asarray(rows.T @ np.tanh(rows @ x + 1.0))
        float(np.mean(np.logaddexp(0.0, _A @ x)))
    return time.perf_counter() - start
