"""Executable checks of the inequalities behind the convergence bounds.

Each check runs a Monte-Carlo (or deterministic) experiment and compares
the measured statistic against the corresponding closed-form bound.  The
inequalities hold in expectation, so the statistical checks are one-sided
tests at three standard errors.  Noise constants entering a bound are
estimated from held-out runs of the same configuration so the tested runs
never calibrate their own bound.

Checks:
  variance-reduction   averaging K independent sampled gradients divides
                       the gradient variance by K
  deviation-bound      workers stray from their average by at most
                       4 eta_t^2 G^2 H^2 in mean square
  perturbed-step       the per-step descent inequality of the averaged
                       sequence
  weighted-recursion   the weighted-sum consequence of the per-step
                       recursion (deterministic)
  async-deviation      the delayed variant of the deviation bound with
                       (H + tau)^2 and constant 12
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace

import numpy as np

from . import sync
# measured_delay and run_async_local_sgd stay names of this module, where
# benchmarks/tracing.py wraps them
from .asynchronous import (DelayModel, measured_delay,  # noqa: F401
                           run_async_ensemble, run_async_local_sgd)
from .averaging import sum_of_weights
from .schedules import (TheoremDecayStep, _require_integer, _require_real, regular_sync_schedule,
                        theorem_steps)
from .sync import RecordFlags, RunConfig, run_local_sgd_ensemble

_PERTURBED_POINTS = 64  # steps the perturbed-step check tests, evenly spaced
_Z = 3.0                # standard errors of slack in every one-sided test


# the columns of lemma_checks.csv, one row per `CheckReport.csv_fields`
LEMMA_HEADER = ["check", "trials", "statistic", "bound", "margin", "stderr", "passed"]


@dataclass
class CheckReport:
    """Outcome of one inequality check.

    `passed` is derived from the stored numbers: statistic <= bound +
    _Z * stderr, at _Z = 3.  `margin` is bound - statistic.  worst_step marks where
    the margin was tightest for per-step checks.
    """

    check: str
    trials: int
    statistic: float
    bound: float
    stderr: float
    worst_step: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.bound - self.statistic

    @property
    def passed(self) -> bool:
        return self.statistic <= self.bound + _Z * self.stderr

    def csv_fields(self) -> list:
        """The report's row of lemma_checks.csv."""
        return [self.check, str(self.trials), repr(self.statistic), repr(self.bound),
                repr(self.margin), repr(self.stderr), str(int(self.passed))]

    def __str__(self):
        verdict = "PASS" if self.passed else "FAIL"
        where = f" at t={self.worst_step}" if self.worst_step is not None else ""
        return (
            f"[{verdict}] {self.check}: statistic {self.statistic:.6g} "
            f"vs bound {self.bound:.6g} (margin {self.margin:.3g}, "
            f"stderr {self.stderr:.2g}){where}"
        )


def _run_seeds(seed, count):
    """Deterministic per-run integer seeds derived from a master seed, two or more."""
    _require_integer("runs", count, 2)
    _require_integer("seed", seed, 0)
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)]


def check_variance_reduction(objective, states, trials, seed=0) -> CheckReport:
    """Sampled aggregate gradient concentrates at rate sigma^2 / K.

    With the K worker iterates frozen, resamples the component indices
    `trials` times and compares the mean squared aggregate noise to
    max_k Var_k / K, where Var_k is the exact enumeration variance at
    worker k.  The exactly computable value (1/K^2) sum_k Var_k is also
    reported, since the aggregate noise of independent draws is the sum of
    the per-worker variances.
    """
    _require_integer("trials", trials, 100)
    _require_integer("seed", seed, 0)
    states = [np.asarray(x, dtype=np.float64) for x in states]
    K = len(states)
    _require_integer("the number of worker states", K, 1)
    rng = np.random.default_rng(seed)

    variances = [objective.variance_at(x) for x in states]
    bound = max(variances) / K
    exact_statistic = sum(variances) / K**2

    gbar = np.mean([objective.gradient(x) for x in states], axis=0)
    idx = rng.integers(0, objective.n, size=(trials, K))
    agg = np.zeros((trials, objective.d))
    for k, x in enumerate(states):
        agg += objective.component_gradients_at(x, idx[:, k])
    agg /= K
    noise_sq = np.sum((agg - gbar) ** 2, axis=1)

    statistic = float(noise_sq.mean())
    stderr = float(noise_sq.std(ddof=1) / np.sqrt(trials))
    return CheckReport(
        check="variance-reduction",
        trials=trials,
        statistic=statistic,
        bound=bound,
        stderr=stderr,
        detail={"exact_statistic": exact_statistic, "per_worker_variances": variances},
    )


def _heldout_seeds(seed, runs):
    """Seeds of the held-out runs that estimate G^2 for `runs` tested runs."""
    return _run_seeds(seed + 0x5EED, max(32, runs // 8))


def _tightest_step(samples, bounds):
    """The step of the smallest margin bound - mean + _Z stderr, ties going
    to the earliest; returns (index, mean, stderr) of that step.

    `samples` holds one row per run and one column per step, `bounds` one
    bound per step.  Each step's runs are reduced as one contiguous row in
    run order, whatever the memory layout of `samples`, so a report does
    not depend on how an engine stored its rows.  A NaN margin, where some
    run diverged, counts as the tightest, so the report fails there.
    """
    per_step = np.ascontiguousarray(samples.T)
    means = per_step.mean(axis=1)
    stderrs = per_step.std(axis=1, ddof=1) / np.sqrt(per_step.shape[1])
    i = int(np.argmin(bounds - means + _Z * stderrs))
    return i, float(means[i]), float(stderrs[i])


def _deviation_check(check, config, ensemble, args, constant, window, runs, seed, detail):
    """Per-step deviation check against constant * eta_t^2 G^2 window^2.

    `ensemble(config, *args, seeds, track_second_moment=...)` is the
    engine's ensemble runner.  G^2 comes from held-out runs of `config`;
    the tested runs add deviations to what it records.  Their mean
    deviation is compared with the bound at every step, and the report
    belongs to the tightest step.  The detail's `worst_staleness` is the
    tested runs' realized staleness.
    """
    if not isinstance(config.steps, TheoremDecayStep):
        raise ValueError("this check requires the decaying stepsize schedule")
    seeds = _run_seeds(seed, runs)
    G_sq = ensemble(config, *args, _heldout_seeds(seed, runs),
                    track_second_moment=True).max_second_moment
    tested = ensemble(replace(config, record=replace(config.record, deviations=True)), *args, seeds)
    # Python floats: eta**2 of a float is C pow, which numpy's square is not
    bounds = np.array([constant * config.steps.eta(t)**2 * G_sq * window**2
                       for t in range(config.T + 1)])
    t, statistic, stderr = _tightest_step(tested.deviations, bounds)
    return CheckReport(check=check, trials=runs, statistic=statistic, bound=float(bounds[t]),
                       stderr=stderr, worst_step=t,
                       detail={"G_sq": G_sq, "worst_staleness": tested.staleness, **detail})


def check_deviation_bound(config, objective, runs, seed=0) -> CheckReport:
    """Mean squared worker deviation stays below 4 eta_t^2 G^2 H^2.

    Runs `runs` seeded simulations, averages (1/K) sum_k ||xbar_t - x_t^k||^2
    per step, and compares against the bound at every step; the reported
    numbers belong to the step with the smallest margin.  G^2 comes from
    held-out runs of the same configuration.
    """
    H = config.sync.H
    # called as (config, objective, seeds), which benchmarks/tracing.py reads
    return _deviation_check("deviation-bound", config, run_local_sgd_ensemble, (objective,),
                            4.0, H, runs, seed, {"H": H})


def check_perturbed_inequality(config, objective, reference, runs, seed=0) -> CheckReport:
    """Per-step descent inequality of the averaged sequence.

    For each checked step t the Monte-Carlo means of both sides are
    compared:

        E ||xbar_{t+1} - x*||^2  <=  (1 - mu eta_t) E ||xbar_t - x*||^2
                                     + eta_t^2 E ||g_t - gbar_t||^2
                                     - eta_t / 2 E (f(xbar_t) - f*)
                                     + 2 eta_t L dev_t

    using a paired one-sided test at 3 standard errors of the difference,
    with (mu, L) from `objective.curvature()`.  Requires eta_0 <= 1/(4L).
    The check adds xbar, deviations and noise norms to what `config`
    records.  From xbar it computes ||xbar_t - x*||^2 at the checked steps
    t and t + 1, and f(xbar_t) in one stacked pass, so a run reads NaN
    from where it froze and a point whose value is not finite reads NaN on
    its own.
    """
    mu, L = objective.curvature()
    if config.steps.eta(0) > 1.0 / (4.0 * L):
        raise ValueError("stepsize too large: eta_0 must be <= 1/(4L)")

    record = replace(config.record, virtual=True, deviations=True, noise_norms=True)
    result = run_local_sgd_ensemble(replace(config, record=record), objective,
                                    _run_seeds(seed, runs))
    T = config.T
    points = np.unique(np.linspace(0, T - 1, min(T, _PERTURBED_POINTS), dtype=np.int64))
    xbar = result.xbar[:, points]
    values = objective.value_many(xbar)
    eta = np.array([config.steps.eta(int(t)) for t in points])
    eta_sq = np.array([config.steps.eta(int(t))**2 for t in points])  # C pow, as above
    lhs = np.sum((result.xbar[:, points + 1] - reference.x_star) ** 2, axis=-1)
    rhs = (
        (1.0 - mu * eta) * np.sum((xbar - reference.x_star) ** 2, axis=-1)
        + eta_sq * result.noise_sq[:, points]
        - 0.5 * eta * (values - reference.f_star)
        + 2.0 * eta * L * result.deviations[:, points]
    )
    i, _, stderr = _tightest_step(lhs - rhs, np.zeros(len(points)))
    return CheckReport(
        check="perturbed-step",
        trials=runs,
        statistic=float(lhs[:, i].mean()),
        bound=float(rhs[:, i].mean()),
        stderr=stderr,
        worst_step=int(points[i]),
        detail={"checked_points": len(points)},
    )


def check_recursion_lemma(a, mu, A, B, C, T, sequence_builder) -> CheckReport:
    """Weighted-sum consequence of the per-step recursion, deterministically.

    The builder returns nonnegative sequences (a_t) of length T+1 and
    (e_t) of length T satisfying

        a_{t+1} <= (1 - mu eta_t) a_t - eta_t A e_t + eta_t^2 B + eta_t^3 C

    for eta_t = 4/(mu (a + t)); any violation is reported with its first
    step.  The check then verifies

        (A / S_T) sum_t w_t e_t <= mu a^3 a_0 / (4 S_T)
                                   + 2 T (T + 2a) B / (mu S_T)
                                   + 16 T C / (mu^2 S_T)

    for the quadratic weights w_t = (a + t)^2.
    """
    for name, value in (("a", a), ("mu", mu), ("A", A), ("B", B), ("C", C)):
        _require_real(name, value)
    if A <= 0 or B < 0 or C < 0 or mu <= 0 or a <= 1:
        raise ValueError("require A > 0, B, C >= 0, mu > 0, a > 1")
    _require_integer("T", T, 1)
    eta = 4.0 / (mu * (a + np.arange(T, dtype=np.float64)))
    a_seq, e_seq = sequence_builder(T, eta)
    a_seq = np.asarray(a_seq, dtype=np.float64)
    e_seq = np.asarray(e_seq, dtype=np.float64)
    if a_seq.shape != (T + 1,) or e_seq.shape != (T,):
        raise ValueError("builder must return sequences of lengths T+1 and T")
    if (a_seq < 0).any() or (e_seq < 0).any():
        raise ValueError("sequences must be nonnegative")

    for t in range(T):
        allowed = (1.0 - mu * eta[t]) * a_seq[t] - eta[t] * A * e_seq[t] \
            + eta[t] ** 2 * B + eta[t] ** 3 * C
        if a_seq[t + 1] > allowed + 1e-12 * max(1.0, abs(allowed)):
            raise ValueError(
                f"builder violates the recursion at t={t}: "
                f"a_(t+1)={a_seq[t + 1]} > {allowed}"
            )

    w = (a + np.arange(T, dtype=np.float64)) ** 2
    S_T = sum_of_weights(a, T)
    lhs = A * float(w @ e_seq) / S_T
    rhs = mu * a**3 * float(a_seq[0]) / (4.0 * S_T) \
        + 2.0 * T * (T + 2.0 * a) * B / (mu * S_T) \
        + 16.0 * T * C / (mu**2 * S_T)
    return CheckReport(
        check="weighted-recursion",
        trials=1,
        statistic=float(lhs),
        bound=float(rhs),
        stderr=0.0,
    )


def make_equality_builder(mu, A, B, C):
    """Builder driving the per-step recursion at equality from a_0 = 1.

    At every step the error term e_t drains the whole contracted a_t, and
    the next value is

        a_{t+1} = (1 - mu eta_t) a_t - eta_t A e_t + eta_t^2 B + eta_t^3 C

    so all sequence values stay nonnegative.
    """

    def build(T, eta):
        a_seq = np.empty(T + 1)
        e_seq = np.empty(T)
        a_seq[0] = 1.0
        for t in range(T):
            contracted = (1.0 - mu * eta[t]) * a_seq[t]
            inflow = eta[t] ** 2 * B + eta[t] ** 3 * C
            e_seq[t] = contracted / (eta[t] * A)
            a_seq[t + 1] = contracted - eta[t] * A * e_seq[t] + inflow
        return a_seq, e_seq

    return build


def check_async_deviation(config, delay, objective, runs, seed=0) -> CheckReport:
    """Deviation bound under delayed writes: 12 eta_t^2 G^2 (H + tau)^2.

    Every sequence synchronizes on the run's schedule.  The held-out runs
    and the tested runs are one `run_async_ensemble` batch each, which
    writes the plan of the configuration and checks its realized
    staleness against the declared tau before any gradient work.  The
    per-step mean deviation of sequences from the virtual average is
    compared against the bound; G^2 comes from the held-out runs.
    """
    H = config.sync.H
    return _deviation_check("async-deviation", config, run_async_ensemble,
                            ([config.sync] * config.K, delay, objective), 12.0, H + delay.tau,
                            runs, seed, {"H": H, "tau": delay.tau})


def validate_fixture(params):
    """Raise ValueError unless the lemma_suite parameters `params` are in range."""
    for key, low in (("runs", 2), ("trials", 100), ("K", 1), ("b", 1), ("tau", 0), ("seed", 0)):
        _require_integer(key, params[key], low)
    regular_sync_schedule(params["T"], params["H"])  # T and H integers >= 1, H <= T


def lemma_suite(objective, reference, *, runs=1000, trials=4000, K=4, H=4, T=64, b=1,
                tau=2, seed=0):
    """The five checks on one fixture, as `localsgd verify-lemmas` runs them.

    The constants are taken at x0 = 0.  Every run uses the decaying
    schedule of `theorem_steps`, shift max(16 kappa, window) + 1, the
    window being H, or H + tau for the async check.  Variance reduction resamples at the
    worker states of a warm-up run one step before its last
    synchronization (horizon max(2H, 8)), so the states are distinct when
    H > 1.  The recursion takes A = 1/2, B = sigma^2 / K and
    C = 8 G^2 H^2 L.  Returns the five CheckReports.  Parameters out of
    range (`validate_fixture`) and an objective with mu = 0 raise
    ValueError before any oracle call.
    """
    validate_fixture(dict(runs=runs, trials=trials, K=K, H=H, T=T, b=b, tau=tau, seed=seed))
    mu, L = objective.curvature()
    # both schedules first, so that a mu that is not positive fails before any oracle call
    sync_steps, async_steps = theorem_steps((mu, L), H), theorem_steps((mu, L), H + tau)
    x0 = np.zeros(objective.d)
    B = objective.variance_at(x0) / K
    C = 8.0 * objective.second_moment_at(x0) * H**2 * L

    def config(steps):
        return RunConfig(
            K=K, T=T, b=b, sync=regular_sync_schedule(T, H),
            steps=steps, seed=seed, x0=x0,
            record=RecordFlags(virtual=False, f_values=False),
        )

    synchronous = config(sync_steps)
    warm_T = max(2 * H, 8)
    warm = sync.run_local_sgd(replace(synchronous, T=warm_T, sync=regular_sync_schedule(warm_T, H),
                                      record=RecordFlags(iterates=True, f_values=False)),
                              objective)
    return [
        check_variance_reduction(objective, warm.iterates[:, warm_T - 1, :],
                                 trials=trials, seed=seed),
        check_deviation_bound(synchronous, objective, runs, seed=seed),
        check_perturbed_inequality(synchronous, objective, reference, runs, seed=seed),
        check_recursion_lemma(a=synchronous.steps.a, mu=mu, A=0.5, B=B, C=C, T=T,
                              sequence_builder=make_equality_builder(mu, 0.5, B, C)),
        check_async_deviation(config(async_steps), DelayModel("fixed", tau=tau, seed=seed),
                              objective, runs, seed=seed),
    ]


# the fixture's parameters and their defaults, which a config's [lemmas] section overrides
LEMMA_DEFAULTS = {name: param.default
                  for name, param in inspect.signature(lemma_suite).parameters.items()
                  if param.kind is inspect.Parameter.KEYWORD_ONLY}
