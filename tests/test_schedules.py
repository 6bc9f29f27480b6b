import re
from numbers import Integral

import numpy as np
import pytest

from localsgd import (
    ConstantStep,
    DelayModel,
    ExperimentDecayStep,
    LogisticObjective,
    ReferenceSolution,
    RunConfig,
    TheoremDecayStep,
    lemma_suite,
    regular_sync_schedule,
    run_async_local_sgd,
    run_local_sgd,
    theorem_steps,
)
from localsgd.schedules import _require_integer, validate_shift
from oracles import GradientCounter, gap


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
    # a count is an integer, and a bool is not one
    for T, H, message in ((10, 2.5, "H must be an integer >= 1, got 2.5"),
                          (10, True, "H must be an integer >= 1, got True"),
                          (10.0, 2, "T must be an integer >= 1, got 10.0"),
                          (float("inf"), 2, "T must be an integer >= 1, got inf")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            regular_sync_schedule(T, H)


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
    for c, n, message in ((0.0, 100, "c must be finite and positive, got 0.0"),
                          (1.0, 0, "n must be an integer >= 1, got 0"),
                          (1, 2.5, "n must be an integer >= 1, got 2.5"),
                          (1, True, "n must be an integer >= 1, got True"),
                          (float("nan"), 100, "c must be finite and positive, got nan"),
                          (True, 100, "c must be finite and positive, got True"),
                          (10**400, 100, f"c must be finite and positive, got {10**400}")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentDecayStep(c=c, n=n)
    # an int beyond the float range is not finite either
    for c in (float("nan"), float("inf"), True, "0.25", 10**400, -10**400):
        message = f"c must be finite and positive, got {c!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ConstantStep(c=c)
    for mu, a, name in ((float("nan"), 32.0, "mu"), (1.0, float("inf"), "a"),
                        (True, 32.0, "mu"), (1.0, 10**400, "a")):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive, got "):
            TheoremDecayStep(mu=mu, a=a)
    for steps in (TheoremDecayStep(mu=1.0, a=32.0), ConstantStep(c=0.25),
                  ExperimentDecayStep(c=1.0, n=100)):
        with pytest.raises(ValueError, match="^step index must be >= 0$"):
            steps.eta(-1)


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
    validate_shift(sched, (1.0, 4.0), window=8)
    with pytest.raises(ValueError, match="16\\*kappa"):
        validate_shift(sched, (1.0, 5.0), window=8)
    with pytest.raises(ValueError, match="window"):
        validate_shift(sched, (1.0, 4.0), window=65)
    # schedules without a shift pass trivially, without forming kappa
    validate_shift(ConstantStep(c=1.0), (0.0, 1e9), window=10**9)


def test_a_theorem_schedule_needs_a_positive_mu(synth50):
    # kappa = L / mu has no value on an unregularized objective (mu = 0):
    # every door that forms it applies the real-number rule to mu before
    # any oracle call, where it used to divide by zero
    counter = GradientCounter(LogisticObjective(synth50, lam=0.0))
    curvature, x0 = counter.curvature(), np.zeros(synth50.d)
    config = RunConfig(K=2, T=8, b=1, sync=regular_sync_schedule(8, 2),
                       steps=TheoremDecayStep(mu=0.01, a=1000.0), seed=0, x0=x0)
    reference = ReferenceSolution(x_star=x0, f_star=0.3, provenance="numeric")
    for call in (lambda: theorem_steps(curvature, 4),
                 lambda: validate_shift(config.steps, curvature, 2),
                 lambda: run_local_sgd(config, counter),
                 lambda: run_async_local_sgd(config, [config.sync] * 2, DelayModel("zero"),
                                             counter),
                 lambda: lemma_suite(counter, reference, runs=8, trials=100, T=16)):
        with pytest.raises(ValueError, match="^mu must be finite and positive, got 0.0$"):
            call()
    assert not counter.counts


def test_require_integer_keeps_its_verdicts_and_messages():
    # the exact-int fast path against the rule as written without it: an
    # Integral that is not a bool and is >= least passes, and every other
    # value raises the one message
    class Count(int):
        pass

    values = [0, 1, 2, -1, 2**70, -2**70, True, False, np.int64(2), np.int64(-1),
              np.uint32(2), np.uint32(0), Count(2), Count(-1), 2.0, 1.5, "2", None]
    for least in (0, 1, 3):
        for value in values:
            if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
                message = f"n must be an integer >= {least}, got {value!r}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    _require_integer("n", value, least)
            else:
                assert _require_integer("n", value, least) is None
