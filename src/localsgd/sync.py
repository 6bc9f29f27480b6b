"""Synchronous local SGD with periodic parameter averaging.

K workers evolve iterates in parallel; at every step each worker takes a
mini-batch gradient step on components drawn uniformly with replacement,
and at every synchronization index all workers are reset to the average of
their post-step iterates.  Averaging every step recovers mini-batch SGD
with batch size K*b; averaging only at the horizon is one-shot averaging.

Each worker draws from its own random substream spawned from the master
seed, so runs are reproducible and the every-step schedule is coupled
sample-for-sample with the mini-batch baseline.  A run records what
`config.record` asks for, among it the virtual averaged sequence (the
mean of the worker iterates, which evolves exactly like SGD driven by the
aggregate gradient), the four running averages of that sequence, and the
mean squared deviation of workers from it.

One time-step loop, `_simulate`, advances S seeded runs at once on
iterates of shape (S, K, d) with one batched oracle call per step;
`run_local_sgd` is its S=1 case and `run_local_sgd_ensemble` its S-run
case, so a single run and the matching row of an ensemble agree bitwise.
Asynchronous runs replay their write plan on it.  The stepsize grid
search runs it with one schedule per run, and runs that stop, diverge or
are no longer needed leave the stack, so they cost nothing afterwards.
Indices come from `_index_chunks`, which draws every worker substream in
chunks of `_CHUNK_STEPS` steps, so memory does not grow with the horizon;
runs that share a seed share one draw, and runs that share a schedule one
evaluation of it.  The gathers of the sampled gradients are planned from
them for a block of steps at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .averaging import SCHEMES, recursion_weights
from .schedules import SyncSchedule, TheoremDecayStep, validate_shift

_CHUNK_STEPS = 1024        # steps drawn from each worker substream at a time
_BLOCK_ENTRIES = 1 << 15   # gathered entries of one block of gradient plans, at most
_DIVERGED = 1e100          # a run whose iterates reach this magnitude has diverged


def _require_integer(name, value, least):
    """Reject `value` unless it is an integer >= least; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class RecordFlags:
    """What a run records, read by every engine entry point, sync or async,
    single run or ensemble; a row left off reads None.  Only `virtual` and
    `f_values` are on by default.  A statistic of the states, such as
    f(xbar_t), is for its reader to compute from the recorded rows."""

    virtual: bool = True         # virtual average per step
    deviations: bool = False     # (1/K) sum_k ||xbar - x_k||^2 per step
    # objective value of the four running averages; with it off, a run
    # with an accuracy target still checks them, screened by convexity
    f_values: bool = True
    iterates: bool = False       # full (K, T+1, d) worker trajectories
    noise_norms: bool = False    # ||g_t - gbar_t||^2 per step (costs K full gradients)
    f_every: int | None = None   # extra evaluation stride; default ceil(T/1000)

    def __post_init__(self):
        if self.f_every is not None:
            _require_integer("f_every", self.f_every, 1)


@dataclass(frozen=True)
class RunConfig:
    K: int
    T: int
    b: int
    sync: SyncSchedule
    steps: object
    seed: int
    x0: np.ndarray
    record: RecordFlags = field(default_factory=RecordFlags)

    def __post_init__(self):
        for name in ("K", "T", "b"):
            _require_integer(name, getattr(self, name), 1)
        _require_integer("seed", self.seed, 0)
        if self.sync.T != self.T:
            raise ValueError("sync schedule horizon does not match T")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=np.float64))
        if self.x0.ndim != 1:
            raise ValueError(f"x0 must be 1-D, got shape {self.x0.shape}")


@dataclass
class RunTrace:
    """Recorded quantities of one run, sync or async: row 0 of its
    `EnsembleResult`, with arrays indexed by step.

    A quantity that `config.record` leaves off reads None.  A per-step row
    has its full length also when the run stopped early, and reads NaN
    from the step where the run froze, while eval_steps and f_by_scheme
    end there; the output average is then over the steps before it, and a
    diverged run's reads NaN.
    """

    xbar: np.ndarray | None          # (T+1, d) virtual average per step
    deviations: np.ndarray | None    # (T+1,) (1/K) sum_k ||xbar_t - x_t^k||^2
    noise_sq: np.ndarray | None      # (T,) ||g_t - gbar_t||^2
    iterates: np.ndarray | None      # (K, T+1, d) worker trajectories
    eval_steps: np.ndarray           # steps at which f values were recorded
    f_by_scheme: dict | None         # scheme -> f of its running average per eval step
    comm_rounds: int                 # sync rounds; an async run's is (K,) reads per sequence
    output_average: np.ndarray | None  # shift-a weighted average over t < T; None if target-only
    final_iterates: np.ndarray       # (K, d)
    t_star: int | None               # set when an accuracy target stopped the run
    diverged: bool                   # iterates left the representable range
    final_aggregate: np.ndarray | None = None  # (d,) async shared aggregate; None for sync


@dataclass
class EnsembleResult:
    """What the time-step loop, `_simulate`, records for S seeded runs of one
    configuration, for every engine; its counters cover the whole loop.

    Row r of each row that `config.record` asks for is run r's `RunTrace`
    field, and a row not recorded reads None.  Every per-step row has its
    full length, while eval_steps and f_by_scheme end where the loop did,
    so run r's f values are the first len(trace.eval_steps) of its row.
    A run reads NaN from the step where it froze, and a diverged run's
    output average and f_output read NaN.
    """

    objective: object = field(repr=False)
    diverged: np.ndarray             # (S,) runs stopped by the divergence guard
    max_second_moment: float         # 0.0 unless tracked
    output_average: np.ndarray | None  # (S, d) the RunTrace average; None if target-only
    eval_steps: np.ndarray           # steps of the f_by_scheme values, shared by every run
    xbar: np.ndarray | None          # (S, T+1, d)
    deviations: np.ndarray | None    # (S, T+1)
    noise_sq: np.ndarray | None      # (S, T)
    iterates: np.ndarray | None      # (S, K, T+1, d)
    f_by_scheme: dict | None         # scheme -> (S, evals)
    crossed: np.ndarray              # (S,) first eps-accurate evaluation step, -1 if none
    final_iterates: np.ndarray       # (S, K, d)
    comm_rounds: int | np.ndarray    # sync rounds; async: (K,) reads per sequence
    points_evaluated: int            # (run, scheme) points of evaluation steps with an exact value
    points_screened: int             # (run, scheme) points of evaluation steps certified above eps
    final_aggregate: np.ndarray | None = None  # (S, d) async shared aggregate; None for sync
    staleness: int = 0               # realized staleness of the async write plan

    @cached_property
    def f_output(self) -> np.ndarray:
        """(S,) f of each output average, from one value pass on first read;
        a diverged run's average reads NaN, and so does its value."""
        return self.objective.value_many(self.output_average)


def _spawn_worker_rngs(seed, K):
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(K)]


def _index_chunks(seeds, K, n, b, T):
    """Component indices (S, K, steps, b) of S seeded runs, for the steps t < T
    in chunks of `_CHUNK_STEPS` steps.

    Worker k of run r draws from the k-th substream spawned from seeds[r].
    Chunked draws from a PCG64 stream equal one draw of all T steps, so
    the indices do not depend on the chunk size.
    """
    rngs = [_spawn_worker_rngs(seed, K) for seed in seeds]
    for start in range(0, T, _CHUNK_STEPS):
        steps = min(_CHUNK_STEPS, T - start)
        chunk = np.empty((len(seeds), K, steps, b), dtype=np.int64)
        for r, workers in enumerate(rngs):
            for k, rng in enumerate(workers):
                chunk[r, k] = rng.integers(0, n, size=(steps, b))
        yield chunk


def _worker_mean(X):
    """Mean over the worker axis of (S, K, d); a single worker is its own mean."""
    return X[:, 0] if X.shape[1] == 1 else X.mean(axis=1)


def _per_run(rows, index):
    """rows[index], the row of each run.  A single row is broadcast over the
    runs, not copied, so that scaling by it costs what scaling by a scalar
    does."""
    if len(rows) == 1:
        return np.broadcast_to(rows[0], (len(index),) + rows.shape[1:])
    return rows[index]


def _certified_miss(f_z, slope, sq_dist, mu, eps, f_star):
    """Mask of the points y that convexity proves to be more than eps above f_star.

    f_z = f(z), slope = grad f(z)^T (y - z) and sq_dist = ||y - z||^2 at an
    anchor z.  mu-strong convexity (mu = 0 is always valid) gives
    f(y) >= lb = f_z + slope + (mu/2) sq_dist, so lb - f_star > eps means y
    misses eps.  A NaN anchor value certifies nothing.

    The crossing test reads the computed f(y), so the rule must also hold
    after rounding.  Each of f(y), f(z), grad f(z) and lb is a float64 sum
    of at most max(n, d) terms, whose rounding error is at most about
    max(n, d) 2^-53 of the terms' total magnitude: 5.5e-12 at n = 5e4.  The
    terms of a value (losses and the ridge term) are nonnegative, so that
    total is |f|, and near the boundary |f(y)| <= |f_star| + eps.  The
    margin of 1e-9 times these magnitudes is ~180x that error at n = 5e4,
    so it also covers terms of a margin or a dot product that cancel by
    that factor.  A point at lb - f_star = eps (1 + 1e-12) is not screened.
    """
    curvature = 0.5 * mu * sq_dist
    lb = f_z + slope + curvature
    margin = 1e-9 * (eps + abs(f_star) + np.abs(f_z) + np.abs(slope) + curvature)
    return lb - f_star > eps + margin


def _certified_by_any(Y, z, f_z, g_z, mu, eps, f_star):
    """Mask (A, P) of the points Y (A, P, d) that some anchor of their run certifies.

    Run r has the anchors z[r] (Q, d), with values f_z[r] (Q,) and
    gradients g_z[r] (Q, d).  Each anchor's convexity bound is a valid
    lower bound on f(y), and so is their maximum (Kelley's cutting-plane
    model), so y is screened when `_certified_miss` holds for any one
    (anchor, point) pair.  All A x P x Q pairs are tested in one pass.
    """
    D = Y[:, :, None, :] - z[:, None, :, :]
    return _certified_miss(f_z[:, None, :], np.vecdot(g_z[:, None, :, :], D),
                           np.vecdot(D, D), mu, eps, f_star).any(axis=2)


def _simulate(config, objective, seeds, *, steps=None, track_second_moment=False,
              target=None, limits=None, exchange=None):
    """The time-step loop behind every engine: sync, grid search and async.

    Advances S = len(seeds) runs of `config` on iterates (S, K, d) and
    records what `config.record` asks for, each row with a leading run
    axis.  `steps`, one schedule per run, replaces config.steps, and a
    run's output average has its own schedule's shift.  At each sync index
    the workers take their mean, xbar.  `exchange`, an async write-plan
    replay, replaces that: exchange(t, X) updates the post-step iterates
    in place after every step t, and xbar is exchange.virtual(X), the
    virtual sequence of all updates.  Its caller checks the shift against
    H + tau.

    Each per-run quantity is one array of the table `runs`, over the
    active runs in run order.  Every run leaves through `keep(stay)`, with
    the iterates it froze at as its final iterates and the output average
    of the steps it ran; it records NaN from then on and costs no further
    oracle work.  A run leaves at T, or earlier:
    - when it diverges: its iterates reach |x| >= 1e100 or turn
      non-finite, or a function value is not finite.  Only the values not
      finite read NaN, and so does its output average.
    - at its `crossed` step, its first eps-accurate evaluation step, when
      `target` (eps, f_star) is given.
    - at an evaluation step t >= its limit.  `limits(crossed)` maps the
      crossing steps (-1 if none) of all S runs to the steps (S,) from
      which each is no longer needed; the loop reads it before the first
      evaluation and after each evaluation at which some run crossed.
    The loop ends when no run is left, which is a single run's early exit;
    eval_steps and f_by_scheme end there too.

    The averages are evaluated at every stride-th step and sync index: the
    (run, scheme) points to evaluate in one stacked pass, the others
    reading +inf.  At t = 0 every average is xbar_0, evaluated once.  A
    target-only run, one that records no function values, keeps no output
    average and is screened: only the points that no convexity lower bound
    from their run's four anchors certifies above eps (`_certified_by_any`)
    are evaluated, with their gradients, and become the anchors.  So every
    crossing step is the same as with all values evaluated: a skipped
    point cannot be non-finite, which the iterate guard keeps away, and a
    step whose points are all skipped cannot cross, so it calls no value
    oracle.  points_evaluated and points_screened count the (run, scheme)
    points of every evaluation step, a point with an exact value as
    evaluated.

    Each chunk of `_CHUNK_STEPS` steps evaluates the stepsizes (each
    distinct schedule's scalar eta(t) once per step), the output weights
    and the running averages' coefficients as arrays.  The sampled
    gradients of the active rows are planned (`objective.sample_plans`) for
    a block as long as the steps before it, so a run that stops early
    wastes little of one, and of at most `_BLOCK_ENTRIES` gathered entries;
    a run that leaves re-plans the rest of the block.

    Returns the `EnsembleResult` of the S runs, at least one.  Each row it
    keeps, what config.record asks for and the output averages, is
    allocated once, NaN, and written in place; a row not kept is None.
    Run r's `RunTrace` is row r of it, alone or in a batch.
    """
    if not len(seeds):
        raise ValueError("need at least one seed")
    for seed in seeds:
        _require_integer("seed", seed, 0)
    if config.x0.shape[-1] != objective.d:
        raise ValueError("x0 dimension does not match the objective")
    if target is not None and not target[0] > 0.0:
        raise ValueError("target accuracy must be positive")
    if exchange is None:
        validate_shift(config.steps, objective.curvature(), config.sync.H)

    S, K, T, d, record = len(seeds), config.K, config.T, objective.d, config.record
    steps = [config.steps] * S if steps is None else steps
    stride = -(-T // 1000) if record.f_every is None else record.f_every
    screen = target is not None and not record.f_values
    # the running averages of SCHEMES feed the function-value evaluations only
    track_averages = record.f_values or target is not None
    mu = objective.curvature()[0] if screen else 0.0

    def is_eval(t):
        """Whether step t evaluates the averages: every stride-th step and sync index."""
        return t % stride == 0 or config.sync.is_sync(t)

    # the per-run table; one index draw per distinct seed, and run r takes
    # the draw owner[r]; one evaluation per distinct schedule, and run r has
    # the schedule schedule[r]
    distinct, schedules = {}, {}
    runs = {"run": np.arange(S),
            "owner": np.array([distinct.setdefault(seed, len(distinct)) for seed in seeds]),
            "schedule": np.array([schedules.setdefault(s, len(schedules)) for s in steps]),
            "X": np.tile(config.x0, (S, K, 1))}
    # a run's output average has the weights (a + t)^2 of its schedule's shift a
    shifts = [float(s.a) if isinstance(s, TheoremDecayStep) else 1.0 for s in schedules]
    runs["xbar"] = _worker_mean(runs["X"])
    if screen:
        # z, f(z), grad f(z) per (run, scheme); f(z) = NaN certifies
        # nothing, so every point is evaluated until it has an anchor
        runs["z"] = np.zeros((S, len(SCHEMES), d))
        runs["f_z"] = np.full((S, len(SCHEMES)), np.nan)
        runs["g_z"] = np.zeros((S, len(SCHEMES), d))
    else:
        # the weighted sum and the sum of weights of the output average;
        # -0.0 is the identity of a float sum, so its first term is exact
        runs["output_sum"] = np.full((S, d), -0.0)
        runs["weight_sum"] = np.zeros(S)

    # every row kept, what config.record asks for and the output averages,
    # is allocated once in its EnsembleResult layout, NaN until its run
    # writes it; the f values are (scheme, run, evaluation)
    layouts = {"xbar": (record.virtual, (S, T + 1, d)),
               "deviations": (record.deviations, (S, T + 1)),
               "noise_sq": (record.noise_norms, (S, T)),
               "iterates": (record.iterates, (S, K, T + 1, d)),
               "output_average": (not screen, (S, d))}
    rows = {name: np.full(shape, np.nan) if asked else None
            for name, (asked, shape) in layouts.items()}
    f_rows = np.full((len(SCHEMES), S, sum(map(is_eval, range(T + 1)))), np.nan) \
        if record.f_values else None
    eval_steps, comm_rounds, max_second_moment = [], 0, 0.0
    points_evaluated = points_screened = 0
    crossed, diverged = np.full(S, -1, dtype=np.int64), np.zeros(S, dtype=bool)
    final_iterates = np.empty((S, K, d))
    limit = np.full(S, np.inf) if limits is None else limits(crossed)
    chunks = _index_chunks(list(distinct), K, objective.n, config.b, T)
    # the gradient plans of the steps plan_start.. of the `planned` active
    # runs' rows; the block ends at plan_end
    plans, plan_start, plan_end, planned = None, 0, 0, S

    def keep(stay):
        """Keep the runs of the stack where `stay` is True; the others leave
        it with their iterates X as their final iterates and the output
        average of their steps so far."""
        leaving = runs["run"][~stay]
        final_iterates[leaving] = runs["X"][~stay]
        if not screen:
            rows["output_average"][leaving] = (runs["output_sum"][~stay]
                                               / runs["weight_sum"][~stay, None])
        if exchange is not None:
            exchange.keep(stay)
        for name, array in runs.items():
            runs[name] = array[stay]

    def evaluate(t):
        """The mask of the points of the four running averages (A, 4) that
        step t evaluates, and f at every point, where a point not evaluated
        reads +inf; f is None when no point is evaluated."""
        Y = runs["Y"]
        if screen:
            need = ~_certified_by_any(Y, runs["z"], runs["f_z"], runs["g_z"], mu, *target)
        else:
            need = np.ones(Y.shape[:2], dtype=bool)
        if not need.any():
            return need, None
        f = np.full(need.shape, np.inf)
        # at t = 0 every average is xbar_0, so its one value is every point's
        points = Y[:1, 0] if t == 0 else Y[need]
        if screen:
            f[need], runs["g_z"][need] = objective.value_and_gradient_many(points)
            runs["z"][need], runs["f_z"][need] = points, f[need]
        else:
            f[need] = objective.value_many(points)
        return need, f

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            if t % _CHUNK_STEPS == 0:
                # the stepsizes, output weights and averaging coefficients of
                # the steps from t on, and their indices (None past the last step)
                span = np.arange(t, min(t + _CHUNK_STEPS, T + 1))
                runs["eta"] = _per_run(np.array([[s.eta(u) for u in span.tolist()]
                                                 for s in schedules]), runs["schedule"])
                if not screen:
                    # (a + t)^2 by C pow, as the ** of a float is
                    squares = [[(a + u) ** 2 for u in span.tolist()] for a in shifts]
                    runs["output_weight"] = _per_run(np.array(squares), runs["schedule"])
                if track_averages:
                    weights = recursion_weights(span)[..., None]
                chunk, chunk_start = next(chunks, None), t

            active, xbar = runs["run"], runs["xbar"]
            if track_averages and t == 0:
                runs["Y"] = np.repeat(xbar[:, None], len(SCHEMES), axis=1)
            elif track_averages:
                x_num, x_den, y_num, y_den = weights[:, t - chunk_start]
                x = xbar[:, None]
                y = x * x_num / x_den + runs["Y"][:, 1:] * y_num / y_den
                runs["Y"] = np.concatenate((x, y), axis=1)
            if record.virtual:
                rows["xbar"][active, t] = xbar
            if record.deviations:
                rows["deviations"][active, t] = np.mean(
                    np.sum((runs["X"] - xbar[:, None, :]) ** 2, axis=2), axis=1)
            if record.iterates:
                rows["iterates"][active, :, t] = runs["X"]
            leave = np.zeros(len(active), dtype=bool)
            if track_averages and is_eval(t):
                eval_steps.append(t)
                need, f = evaluate(t)
                evaluated = int(np.count_nonzero(need))
                points_evaluated += evaluated
                points_screened += need.size - evaluated
                if f is not None:  # a step whose points are all skipped cannot cross
                    if record.f_values:
                        f_rows[:, active, len(eval_steps) - 1] = f.T
                    bad = np.isnan(f).any(axis=1)
                    diverged[active[bad]] = True
                    if target is not None:
                        hit = ~bad & (f.min(axis=1) - target[1] <= target[0])
                        crossed[active[hit]] = t
                        if limits is not None and hit.any():
                            limit = limits(crossed)
                    # an active run that has crossed did so at this step
                    leave |= bad | (crossed[active] >= 0)
                leave |= t >= limit[active]
            leave |= t == T  # every run leaves at T
            if leave.any():
                keep(~leave)
                if not len(runs["run"]):
                    break

            if t == plan_end or planned != len(runs["run"]):
                # plan the sampled gradients of the stack from step t to the block end
                if t == plan_end:
                    per_step = len(runs["run"]) * K * config.b * objective.row_entries
                    plan_end = min(chunk_start + chunk.shape[2],
                                   t + max(1, min(t, int(_BLOCK_ENTRIES // per_step))))
                I = chunk[runs["owner"], :, t - chunk_start:plan_end - chunk_start]
                plans = objective.sample_plans(np.moveaxis(I, 2, 0), _BLOCK_ENTRIES)
                plan_start, plan_end, planned = t, t + len(plans), len(runs["run"])
            if not screen:
                w = runs["output_weight"][:, t - chunk_start]
                runs["weight_sum"] = runs["weight_sum"] + w
                runs["output_sum"] = runs["output_sum"] + w[:, None] * runs["xbar"]
            if track_second_moment:
                max_second_moment = max(max_second_moment,
                                        float(objective.second_moment_many(runs["X"]).max()))
            G = objective.planned_gradient_many(runs["X"], plans[t - plan_start])
            if record.noise_norms:
                diff = G.mean(axis=1) - objective.gradient_many(runs["X"]).mean(axis=1)
                rows["noise_sq"][runs["run"], t] = np.sum(diff**2, axis=1)
            X = runs["X"] - runs["eta"][:, t - chunk_start, None, None] * G
            # a run whose iterates blow up cannot recover; freeze it at its
            # last finite iterates before the objective evaluation overflows
            if not np.max(np.abs(X)) < _DIVERGED:  # NaN fails too
                blown = ~np.all(np.abs(X) < _DIVERGED, axis=(1, 2))
                diverged[runs["run"][blown]] = True
                keep(~blown)
                if not len(runs["run"]):
                    break
                X = X[~blown]
            if exchange is not None:
                exchange(t + 1, X)
                runs["xbar"] = exchange.virtual(X)
            else:
                if config.sync.is_sync(t + 1):
                    if K > 1:
                        X[:] = X.mean(axis=1, keepdims=True)
                    comm_rounds += 1
                runs["xbar"] = _worker_mean(X)
            runs["X"] = X

    if rows["output_average"] is not None:
        rows["output_average"][diverged] = np.nan
    return EnsembleResult(
        objective, diverged, max_second_moment, eval_steps=np.asarray(eval_steps, dtype=np.int64),
        f_by_scheme=None if f_rows is None
        else dict(zip(SCHEMES, f_rows[:, :, :len(eval_steps)])),
        crossed=crossed, final_iterates=final_iterates, comm_rounds=comm_rounds,
        points_evaluated=points_evaluated, points_screened=points_screened, **rows)


def _row_zero(result):
    """Run 0 of an `EnsembleResult`: the `RunTrace` of every single run, sync or async."""
    rows = {name: None if (row := getattr(result, name)) is None else row[0]
            for name in ("xbar", "deviations", "noise_sq", "iterates", "output_average",
                         "final_iterates", "final_aggregate")}
    crossed, f = int(result.crossed[0]), result.f_by_scheme
    return RunTrace(
        **rows, f_by_scheme=None if f is None else {scheme: row[0] for scheme, row in f.items()},
        eval_steps=result.eval_steps, comm_rounds=result.comm_rounds,
        t_star=crossed if crossed >= 0 else None, diverged=bool(result.diverged[0]))


def run_local_sgd(config, objective, stop_when=None) -> RunTrace:
    """Run synchronous local SGD and record the configured trace.

    Deterministic given config.seed.  Sampling is uniform over the n
    components with replacement, one independent substream per worker.
    `stop_when`, an (eps, f_star) pair, is the loop's target: the run ends
    at the first function-value evaluation where some tracked average is
    eps-accurate, and the reached step is stored as trace.t_star.  A run
    that diverges ends at that step with trace.diverged set and its last
    finite iterates; either way its per-step rows read NaN from there.
    """
    return _row_zero(_simulate(config, objective, [config.seed], target=stop_when))


def run_minibatch_sgd(config, objective) -> np.ndarray:
    """Serial mini-batch SGD with batch K*b, coupled to the local runs.

    Consumes the K worker substreams in worker order each step, so its
    sample sequence matches a local SGD run that synchronizes every step.
    Returns the iterate sequence (T+1, d).
    """
    if config.x0.shape[-1] != objective.d:
        raise ValueError("x0 dimension does not match the objective")
    rngs = _spawn_worker_rngs(config.seed, config.K)
    x = config.x0.copy()
    path = [x.copy()]
    for t in range(config.T):
        idx = np.concatenate(
            [rngs[k].integers(0, objective.n, size=config.b) for k in range(config.K)]
        )
        x = x - config.steps.eta(t) * objective.minibatch_gradient(x, idx)
        path.append(x.copy())
    return np.asarray(path)


def run_local_sgd_ensemble(config, objective, seeds, *, track_second_moment=False):
    """Run one configuration under many seeds, vectorized across runs.

    Run r is the `run_local_sgd` run with seed=seeds[r], advanced by the
    same loop: it records what `config.record` asks for, and its rows
    agree bitwise with the single run's trace.  `track_second_moment`
    adds the largest E_i ||grad f_i||^2 at any iterate.
    """
    return _simulate(config, objective, seeds, track_second_moment=track_second_moment)
