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
runs that share a seed share one draw.  The gathers of the sampled
gradients are planned from them for a block of steps at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral

import numpy as np

from .averaging import SCHEMES, ShiftedQuadraticAverage, recursion_weights
from .schedules import SyncSchedule, TheoremDecayStep, validate_shift

_CHUNK_STEPS = 1024        # steps drawn from each worker substream at a time
_BLOCK_ENTRIES = 1 << 15   # gathered entries of one block of gradient plans, at most
_DIVERGED = 1e100          # a run whose iterates reach this magnitude has diverged


def _require_integer(name, value, least):
    """Reject `value` unless it is an integer >= least; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass
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
        f_every = self.f_every
        if f_every is not None and (isinstance(f_every, bool) or not isinstance(f_every, Integral)
                                    or f_every < 1):
            raise ValueError(f"f_every must be None or an integer >= 1, got {f_every!r}")


@dataclass
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
        self.x0 = np.asarray(self.x0, dtype=np.float64)
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

    Advances S = len(seeds) runs of `config` together on iterates X of
    shape (S, K, d) and records what `config.record` asks for, each row
    with a leading run axis.  `steps`, one schedule per run, replaces the
    stepsizes of config.steps.  A run whose iterates reach |x| >= 1e100 or
    turn non-finite, or one of whose function values is not finite, is
    marked diverged and frozen; only the (run, scheme) values that are not
    finite read NaN.  `target` (eps, f_star) stops each run at its first
    eps-accurate evaluation step, its `crossed` step.  Every evaluation
    takes one path: the (run, scheme) points to evaluate go through one
    stacked pass, and the others read +inf.  At t = 0 every average is
    xbar_0, which is evaluated once for all of them.  A target-only run,
    one that does not record function values, is screened: each (run,
    scheme) keeps an anchor z, the last average evaluated exactly, with
    f(z) and grad f(z) from one pass, and only the points that no
    convexity lower bound from their run's four anchors certifies above
    eps (`_certified_by_any`) are evaluated; each becomes its own new
    anchor.  Every crossing step is the same as with all values evaluated;
    a skipped evaluation cannot see a non-finite value, which the iterate
    guard keeps away, and a step whose points are all skipped cannot
    cross, so it does no value arithmetic at all.  points_evaluated and
    points_screened count the (run, scheme) points of every evaluation
    step, a point with an exact value as evaluated.  A target-only run
    reads nothing of the shifted output average, so it does not keep one.
    `limits(crossed)` maps the crossing steps (-1 if none) of all S runs
    to the steps (S,) from which each run is no longer needed, and an
    active run is frozen too at an evaluation step t >= its limit.  The
    limits change only when a run crosses: the loop reads them before the
    first evaluation and after each evaluation at which some run crossed.
    A frozen run keeps the iterates it froze at as its final iterates and
    the output average of the steps it ran, records NaN from then on and
    leaves the stack, so it costs no further oracle work.  A diverged
    run's output average reads NaN.  The loop ends once every run is
    frozen, which for S=1 is a single run's early exit; eval_steps and
    f_by_scheme end there too.

    At each sync index of config.sync the workers take their mean, which
    is xbar.  `exchange`, an async write-plan replay, replaces that:
    exchange(t, X) updates the post-step iterates (A, K, d) in place after
    every step t, exchange.keep(mask) drops runs, and xbar is the virtual
    sequence of all updates.  Its caller checks the shift against H + tau.

    Work that depends only on the step or on the indices is done ahead,
    for many steps at once.  The sampled gradients are planned
    (`objective.sample_plans`) for a block of steps of the active (run,
    worker) rows: a block is as long as the steps before it, so a run that
    stops early wastes little of one, and it holds at most
    `_BLOCK_ENTRIES` gathered entries, about as many steps as rows of
    `objective.row_entries` entries fill; a drop re-plans the rest of the
    block.  The four running averages are one (A, 4, d) array, updated
    with the coefficients of `averaging.RECURSIONS` computed for
    `_CHUNK_STEPS` steps at a time.

    Returns the `EnsembleResult` of the S runs, at least one.  Each row
    it keeps, what config.record asks for and the output averages, is
    allocated once, NaN, in its field's layout and written in place for
    the active runs; a row not kept is None.  Run r's `RunTrace` is row r
    of it, alone or in a batch.
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

    S, K, T, record = len(seeds), config.K, config.T, config.record
    X = np.tile(config.x0, (S, K, 1))
    final_iterates = np.empty_like(X)
    active = np.arange(S)         # the runs still in the stack, in run order
    # one index draw per distinct seed; run r takes the draw owner[r]
    distinct = {}
    owner = np.array([distinct.setdefault(seed, len(distinct)) for seed in seeds])
    if steps is None:
        eta_of = config.steps.eta
    else:
        def eta_of(t):
            return np.array([steps[r].eta(t) for r in active])[:, None, None]
    shift = config.steps.a if isinstance(config.steps, TheoremDecayStep) else 1.0
    stride = -(-T // 1000) if record.f_every is None else record.f_every
    screen = target is not None and not record.f_values
    output_avg = None if screen else ShiftedQuadraticAverage(shift)
    # the running averages (A, 4, d) of SCHEMES feed the function-value
    # evaluations only; `weights` holds the coefficients of the steps from
    # weights_start on
    track_averages = record.f_values or target is not None
    Y, weights, weights_start = None, None, 0
    mu = objective.curvature()[0] if screen else 0.0
    # z, f(z), grad f(z) per (active run, scheme) when screening; f(z) = NaN
    # certifies nothing, so every point is evaluated until it has an anchor
    d = objective.d
    shape = (S, len(SCHEMES), d)
    anchor = dict(z=np.zeros(shape), f=np.full(shape[:2], np.nan),
                  g=np.zeros(shape)) if screen else {}

    def is_eval(t):
        """Whether step t evaluates the averages: every stride-th step and sync index."""
        return t % stride == 0 or config.sync.is_sync(t)

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
    limit = np.full(S, np.inf) if limits is None else limits(crossed)
    chunks = _index_chunks(list(distinct), K, objective.n, config.b, T)
    chunk, chunk_start = next(chunks), 0
    # the gradient plans of the steps plan_start.. of the active rows; the
    # block ends at plan_end, and None asks for the rest of it again
    plans, plan_start, plan_end = None, 0, 0

    def plan(t):
        """Plan the sampled gradients of the active rows from step t to the block end."""
        nonlocal chunk, chunk_start, plans, plan_start, plan_end
        if t == plan_end:
            if t == chunk_start + chunk.shape[2]:
                chunk, chunk_start = next(chunks), t
            per_step = len(active) * K * config.b * objective.row_entries
            plan_end = min(chunk_start + chunk.shape[2],
                           t + max(1, min(t, int(_BLOCK_ENTRIES // per_step))))
        I = chunk[owner[active], :, t - chunk_start:plan_end - chunk_start]
        plans = objective.sample_plans(np.moveaxis(I, 2, 0), _BLOCK_ENTRIES)
        plan_start, plan_end = t, t + len(plans)

    def average(xbar, t):
        """Fold xbar_t into the running averages Y."""
        nonlocal Y, weights, weights_start
        if t == 0:
            Y = np.repeat(xbar[:, None], len(SCHEMES), axis=1)
            return
        if weights is None or t - weights_start == weights.shape[1]:
            weights_start = t
            weights = recursion_weights(np.arange(t, min(t + _CHUNK_STEPS, T + 1)))[..., None]
        x_num, x_den, y_num, y_den = weights[:, t - weights_start]
        x = xbar[:, None]
        Y = np.concatenate((x, x * x_num / x_den + Y[:, 1:] * y_num / y_den), axis=1)

    def evaluate(t):
        """f of the four running averages (A, 4) at step t; a point not evaluated reads +inf.

        Returns f and a mask of the active runs with a NaN value, or None
        when screening evaluates no point.
        """
        nonlocal points_evaluated, points_screened
        if screen:
            need = ~_certified_by_any(Y, anchor["z"], anchor["f"], anchor["g"], mu, *target)
        else:
            need = np.ones(Y.shape[:2], dtype=bool)
        evaluated = int(np.count_nonzero(need))
        points_evaluated += evaluated
        points_screened += need.size - evaluated
        if evaluated == 0:
            return None
        # at t = 0 every average is xbar_0, so its one value is every point's
        points = Y[:1, 0] if t == 0 else Y[need]
        f = np.full(need.shape, np.inf)
        if screen:
            f[need], anchor["g"][need] = objective.value_and_gradient_many(points)
            anchor["z"][need], anchor["f"][need] = points, f[need]
        else:
            f[need] = objective.value_many(points)
        if record.f_values:
            f_rows[:, active, len(eval_steps) - 1] = f.T
        return f, np.isnan(f).any(axis=1)

    def observe(t, xbar):
        """Record step t; returns a mask of the active runs it froze."""
        nonlocal limit
        if track_averages:
            average(xbar, t)
        if record.virtual:
            rows["xbar"][active, t] = xbar
        if record.deviations:
            rows["deviations"][active, t] = np.mean(np.sum((X - xbar[:, None, :]) ** 2, axis=2),
                                                    axis=1)
        if record.iterates:
            rows["iterates"][active, :, t] = X
        out = bad = np.zeros(len(active), dtype=bool)
        if track_averages and is_eval(t):
            eval_steps.append(t)
            checked = evaluate(t)
            if checked is not None:
                f, bad = checked
                if target is not None:
                    hit = ~bad & (f.min(axis=1) - target[1] <= target[0])
                    crossed[active[hit]] = t
                    if limits is not None and hit.any():
                        limit = limits(crossed)
                # an active run that has crossed did so at this step
                out = bad | (crossed[active] >= 0)
            out = out | (t >= limit[active])
        diverged[active[bad]] = True
        return out

    def drop(out, X, *arrays):
        """Freeze the active runs `out` (a mask) at their iterates in X and
        the output averages of their steps so far.

        Returns None once every run is frozen.  Otherwise drops them from
        the stack and returns `arrays`, each a per-run array over the
        active runs or a scalar, without them.
        """
        nonlocal active, Y, plans
        final_iterates[active[out]] = X[out]
        stay = ~out
        if output_avg is not None and output_avg.weighted_sum is not None:
            rows["output_average"][active[out]] = output_avg.value[out]
            output_avg.weighted_sum = output_avg.weighted_sum[stay]
        if exchange is not None:
            exchange.keep(stay)
        if out.all():
            return None
        active = active[stay]
        plans = None
        if Y is not None:
            Y = Y[stay]
        for key in anchor:
            anchor[key] = anchor[key][stay]
        return [a[stay] if isinstance(a, np.ndarray) else a for a in arrays]

    xbar = _worker_mean(X)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            newly = observe(t, xbar) | (t == T)  # every run leaves at T
            if newly.any():
                if (kept := drop(newly, X, X, xbar)) is None:
                    break
                X, xbar = kept
            if plans is None or t == plan_end:
                plan(t)
            if output_avg is not None:
                output_avg.update(xbar, t)
            if track_second_moment:
                max_second_moment = max(max_second_moment,
                                        float(objective.second_moment_many(X).max()))
            G = objective.planned_gradient_many(X, plans[t - plan_start])
            if record.noise_norms:
                diff = G.mean(axis=1) - objective.gradient_many(X).mean(axis=1)
                rows["noise_sq"][active, t] = np.sum(diff**2, axis=1)
            eta = eta_of(t)
            X_next = X - eta * G
            # a run whose iterates blow up cannot recover; freeze it at its
            # last finite iterates before the objective evaluation overflows
            if not np.max(np.abs(X_next)) < _DIVERGED:  # NaN fails too
                blown = ~np.all(np.abs(X_next) < _DIVERGED, axis=(1, 2))
                diverged[active[blown]] = True
                if (kept := drop(blown, X, X_next, xbar, G, eta)) is None:
                    break
                X_next, xbar, G, eta = kept
            if exchange is not None:
                xbar = xbar - eta * G.mean(axis=1)
                exchange(t + 1, X_next)
            else:
                if config.sync.is_sync(t + 1):
                    if K > 1:
                        X_next[:] = X_next.mean(axis=1, keepdims=True)
                    comm_rounds += 1
                xbar = _worker_mean(X_next)
            X = X_next

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
