import numpy as np
import pytest

from localsgd import (
    ConstantStep,
    ExperimentDecayStep,
    TheoremDecayStep,
    gap,
    regular_sync_schedule,
)
from localsgd.schedules import validate_shift


def test_gap_examples():
    T = 37
    assert gap(range(0, T + 1)) == 1
    assert gap([0, 3, 5, 9]) == 4
    assert gap([0, T]) == T


def test_gap_requires_two_sorted_elements():
    with pytest.raises(ValueError):
        gap([5])
    with pytest.raises(ValueError):
        gap([3, 1])


def test_regular_schedule_examples():
    assert regular_sync_schedule(10, 3).indices == (3, 6, 9, 10)
    assert regular_sync_schedule(10, 1).indices == tuple(range(1, 11))
    assert regular_sync_schedule(10, 10).indices == (10,)
    with pytest.raises(ValueError):
        regular_sync_schedule(10, 0)
    with pytest.raises(ValueError):
        regular_sync_schedule(10, 11)


def test_regular_schedule_gap_bound():
    # exhaustive over a small range, sampled around the large end
    for T in range(1, 129):
        for H in range(1, T + 1):
            sched = regular_sync_schedule(T, H)
            assert gap((0,) + sched.indices) <= H
    rng = np.random.default_rng(0)
    for _ in range(300):
        T = int(rng.integers(129, 10_001))
        H = int(rng.integers(1, T + 1))
        sched = regular_sync_schedule(T, H)
        assert gap((0,) + sched.indices) <= H


def test_schedule_membership_is_its_index_set():
    for T in range(1, 40):
        for H in range(1, T + 1):
            sched = regular_sync_schedule(T, H)
            members = tuple(t for t in range(-1, T + 3) if sched.is_sync(t))
            assert members == sched.indices


def test_stepsize_values():
    assert TheoremDecayStep(mu=1.0, a=32.0).eta(0) == 0.125
    assert ExperimentDecayStep(c=1.0, n=100).eta(199) == 0.5
    assert ExperimentDecayStep(c=1.0, n=100).eta(0) == 32.0
    assert ConstantStep(c=0.25).eta(7) == 8.0
    with pytest.raises(ValueError):
        TheoremDecayStep(mu=-1.0, a=32.0)
    with pytest.raises(ValueError):
        ConstantStep(c=0.0)


def test_decay_halving_window():
    # with a >= H the stepsize never more than halves across H steps
    for a, H in ((16.0, 16), (40.0, 7), (100.0, 100)):
        sched = TheoremDecayStep(mu=2.0, a=a)
        for t in range(0, 500):
            assert sched.eta(t) <= 2.0 * sched.eta(t + H) + 1e-15


def test_initial_stepsize_under_smoothness_cap():
    mu, L = 0.5, 8.0
    kappa = L / mu
    sched = TheoremDecayStep(mu=mu, a=16.0 * kappa)
    assert sched.eta(0) <= 1.0 / (4.0 * L) + 1e-15


def test_validate_shift():
    sched = TheoremDecayStep(mu=1.0, a=65.0)
    validate_shift(sched, kappa=4.0, window=8)
    with pytest.raises(ValueError, match="16\\*kappa"):
        validate_shift(sched, kappa=5.0, window=8)
    with pytest.raises(ValueError, match="window"):
        validate_shift(sched, kappa=4.0, window=65)
    # schedules without a shift pass trivially
    validate_shift(ConstantStep(c=1.0), kappa=1e9, window=10**9)
