"""Synchronous local SGD with periodic parameter averaging.

K workers evolve iterates in parallel; at every step each worker takes a
mini-batch gradient step on components drawn uniformly with replacement,
and at every synchronization index all workers are reset to the average of
their post-step iterates.  Averaging every step recovers mini-batch SGD
with batch size K*b; averaging only at the horizon is one-shot averaging.

Each worker draws from its own random substream spawned from the master
seed, so runs are reproducible and the every-step schedule is coupled
sample-for-sample with the mini-batch baseline.  The trace records the
virtual averaged sequence (the mean of the worker iterates, which evolves
exactly like SGD driven by the aggregate gradient), the four running
averages of that sequence, and the mean squared deviation of workers from
it.

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

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .averaging import SCHEMES, ShiftedQuadraticAverage, recursion_weights
from .schedules import SyncSchedule, TheoremDecayStep, validate_shift

_CHUNK_STEPS = 1024        # steps drawn from each worker substream at a time
_BLOCK_ENTRIES = 1 << 15   # gathered entries of one block of gradient plans, at most
_DIVERGED = 1e100          # a run whose iterates reach this magnitude has diverged


@dataclass
class RecordFlags:
    """What a run should trace; heavier recordings are off by default."""

    virtual: bool = True         # virtual average per step
    deviations: bool = True      # (1/K) sum_k ||xbar - x_k||^2 per step
    # objective value of the four running averages; with it off, a run
    # with an accuracy target still checks them, screened by convexity
    f_values: bool = True
    iterates: bool = False       # full (K, T+1, d) worker trajectories
    noise_norms: bool = False    # ||g_t - gbar_t||^2 per step (costs K full gradients)
    f_virtual: bool = False      # f(xbar_t) per step
    f_every: int | None = None   # extra evaluation stride; default ceil(T/1000)


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
        if self.K < 1 or self.T < 1 or self.b < 1:
            raise ValueError("require K >= 1, T >= 1, b >= 1")
        if self.sync.T != self.T:
            raise ValueError("sync schedule horizon does not match T")
        self.x0 = np.asarray(self.x0, dtype=np.float64)


@dataclass
class RunTrace:
    """Recorded quantities of one run; arrays are indexed by step.

    A quantity that `config.record` leaves off reads None.
    """

    xbar: np.ndarray | None          # (T+1, d) virtual average per step
    deviations: np.ndarray | None    # (T+1,) (1/K) sum_k ||xbar_t - x_t^k||^2
    noise_sq: np.ndarray | None      # (T,) ||g_t - gbar_t||^2
    f_xbar: np.ndarray | None        # (T+1,) f(xbar_t)
    iterates: np.ndarray | None      # (K, T+1, d) worker trajectories
    eval_steps: np.ndarray           # steps at which f values were recorded
    f_by_scheme: dict                # scheme -> f of its running average per eval step
    comm_rounds: int
    output_average: np.ndarray | None  # shift-a weighted average over t < T; None if target-only
    final_iterates: np.ndarray       # (K, d)
    t_star: int | None               # set when an accuracy target stopped the run
    diverged: bool                   # iterates left the representable range


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


def _eval_stride(record, T):
    if record.f_every is not None:
        return max(1, int(record.f_every))
    return max(1, -(-T // 1000))


def _worker_mean(X):
    """Mean over the worker axis of (S, K, d); a single worker is its own mean."""
    return X[:, 0] if X.shape[1] == 1 else X.mean(axis=1)


def _values(objective, Y):
    """value_many of a stack (A, ..., d); a run whose value is not finite reads NaN.

    A non-finite value raises for the whole stack, so on a raise each run
    is evaluated on its own and only the failing runs read NaN.
    """
    try:
        f = objective.value_many(Y)
    except FloatingPointError:
        if len(Y) == 1:
            return np.full(Y.shape[:-1], np.nan)
        return np.concatenate([_values(objective, y[None]) for y in Y])
    return np.where(np.isfinite(f), f, np.nan)


def _values_and_gradients(objective, Y):
    """value_and_gradient_many of a stack; non-finite values read NaN as in `_values`."""
    try:
        return objective.value_and_gradient_many(Y)
    except FloatingPointError:
        return _values(objective, Y), objective.gradient_many(Y)


def _certified_miss(f_z, slope, dist_sq, mu, eps, f_star):
    """Mask of the points y that convexity proves to be more than eps above f_star.

    f_z = f(z), slope = grad f(z)^T (y - z) and dist_sq = ||y - z||^2 at an
    anchor z.  mu-strong convexity (mu = 0 is always valid) gives
    f(y) >= lb = f_z + slope + (mu/2) dist_sq, so lb - f_star > eps means y
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
    curvature = 0.5 * mu * dist_sq
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


def _simulate(config, objective, seeds, *, steps=None, ref_point=None,
              track_second_moment=False, target=None, keep=None, exchange=None):
    """The time-step loop behind every engine: sync, grid search and async.

    Advances S = len(seeds) runs of `config` together on iterates X of
    shape (S, K, d) and records what `config.record` asks for, each row
    with a leading run axis.  `steps`, one schedule per run, replaces the
    stepsizes of config.steps.  A run whose iterates reach |x| >= 1e100 or
    turn non-finite, or whose recorded function value is not finite, is
    marked diverged and frozen.  `target` (eps, f_star) records each run's
    first eps-accurate evaluation step.  A target-only run, one that does
    not record function values, is screened: each (run, scheme) keeps an
    anchor z, the last average evaluated exactly, with f(z) and grad f(z)
    from one pass, and an evaluation whose convexity lower bound from any
    of its run's four anchors is certified above eps (`_certified_by_any`)
    is skipped and reads +inf; a point evaluated becomes its own new
    anchor.  Every crossing step is the same as with all values evaluated;
    a skipped evaluation cannot see a non-finite value, which the iterate
    guard keeps away, and a step whose points are all skipped cannot cross,
    so it does no value arithmetic at all.  At t = 0 every average is
    xbar_0, which is evaluated once for all (run, scheme) points, recorded
    or screened.  run["points_evaluated"] and run["points_screened"] count
    the (run, scheme) points of every evaluation step, a point with an
    exact value as evaluated.  A target-only run reads nothing of the
    shifted output average, so it does not keep one and
    run["output_average"] is None.
    `keep(t, crossed)`, called after each evaluation at step t with the
    crossing steps (-1 if none) of all S runs, returns a mask of the runs
    still needed; the others are frozen too, so `crossed < 0` stops each
    run where it reaches eps.  A frozen run keeps the iterates it froze at
    as its final iterates, records NaN from then on and leaves the stack,
    so it costs no further oracle work; its output and running averages
    read NaN unless it is among the last runs to freeze.  The loop ends
    once every run is frozen, which for S=1 is a single run's early exit.

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

    Each recorded quantity comes back in run["rows"] as one array with
    axes (step, run, ...), None if it was not recorded.
    """
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
    stride = _eval_stride(record, T)
    screen = target is not None and not record.f_values
    output_avg = None if screen else ShiftedQuadraticAverage(shift)
    # the running averages (A, 4, d) of SCHEMES feed the function-value
    # evaluations only; `weights` holds the coefficients of the steps from
    # weights_start on
    track_averages = record.f_values or target is not None
    Y, weights, weights_start = None, None, 0
    mu = objective.curvature()[0] if screen else 0.0
    anchor = {}  # z, f(z), grad f(z) per (active run, scheme) once screening
    rows = {name: [] for name in ("xbar", "deviations", "iterates", "f_xbar",
                                  "dist_sq", "noise_sq", "f_values")}
    run = {"eval_steps": [], "comm_rounds": 0, "max_second_moment": 0.0,
           "points_evaluated": 0, "points_screened": 0,
           "crossed": np.full(S, -1, dtype=np.int64),
           "diverged": np.zeros(S, dtype=bool)}
    chunks = _index_chunks(list(distinct), K, objective.n, config.b, T)
    chunk, chunk_start = next(chunks), 0
    # the gradient plans of the steps plan_start.. of the active rows; the
    # block ends at plan_end, and None asks for the rest of it again
    plans, plan_start, plan_end = None, 0, 0

    def unstack(row):
        """A row over the active runs as a row over all S runs, NaN for the others."""
        if len(active) == S:
            return row
        full = np.full((S,) + row.shape[1:], np.nan)
        full[active] = row
        return full

    def append(name, row):
        rows[name].append(unstack(row))

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
        """f of the four running averages (A, 4) at step t; a screened point reads +inf.

        Returns f and a mask of the active runs with a non-finite value, or
        None when screening evaluates no point at t > 0.
        """
        points = Y.shape[0] * Y.shape[1]
        evaluated = points
        if anchor:
            need = ~_certified_by_any(Y, anchor["z"], anchor["f"], anchor["g"],
                                      mu, *target)
            evaluated = int(np.count_nonzero(need))
        run["points_evaluated"] += evaluated
        run["points_screened"] += points - evaluated
        if t == 0:
            # every row of Y is xbar_0, so one pass gives every value; the
            # copies are writable, since re-anchoring writes into them
            def spread(a):
                return np.broadcast_to(a, Y.shape[:2] + a.shape[2:]).copy()
            if screen:
                f, g = map(spread, _values_and_gradients(objective, Y[:1, :1]))
                anchor.update(z=Y, f=f, g=g)
            else:
                f = spread(_values(objective, Y[:1, :1]))
        elif evaluated == 0:
            return None
        elif evaluated == points:
            if screen:
                f, g = _values_and_gradients(objective, Y)
                anchor.update(z=Y, f=f, g=g)
            else:
                f = _values(objective, Y)
        else:
            # only target-only runs screen; re-anchor the points evaluated
            f = np.full(need.shape, np.inf)
            Y_need = Y[need]
            f_need, g = _values_and_gradients(objective, Y_need)
            f[need] = anchor["f"][need] = f_need
            anchor["z"][need], anchor["g"][need] = Y_need, g
        if record.f_values:
            append("f_values", f)
        return f, np.isnan(f).any(axis=1)

    def observe(t, xbar):
        """Record step t; returns a mask of the active runs it froze."""
        if track_averages:
            average(xbar, t)
        if record.virtual:
            append("xbar", xbar.copy())
        if record.deviations:
            append("deviations", np.mean(np.sum((X - xbar[:, None, :]) ** 2, axis=2), axis=1))
        if record.iterates:
            append("iterates", X.copy())
        bad = np.zeros(len(active), dtype=bool)
        if record.f_virtual:
            f = _values(objective, xbar)
            append("f_xbar", f)
            bad |= np.isnan(f)
        if ref_point is not None:
            append("dist_sq", np.sum((xbar - ref_point) ** 2, axis=1))
        out = bad
        if track_averages and (t % stride == 0 or t == T or (t >= 1 and config.sync.is_sync(t))):
            run["eval_steps"].append(t)
            checked = evaluate(t)
            if checked is not None:
                f, bad_f = checked
                out = bad = bad | bad_f
                if target is not None:
                    reached = f.min(axis=1) - target[1] <= target[0]
                    hit = ~bad & (run["crossed"][active] < 0) & reached
                    run["crossed"][active[hit]] = t
            if keep is not None:
                out = out | ~keep(t, run["crossed"])[active]
        run["diverged"][active[bad]] = True
        return out

    def drop(out, X, *arrays):
        """Freeze the active runs `out` (a mask) at their iterates in X.

        Returns None once every run is frozen.  Otherwise drops them from
        the stack and returns `arrays`, each a per-run array over the
        active runs or a scalar, without them.
        """
        nonlocal active, Y, plans
        if out.all():
            return None
        final_iterates[active[out]] = X[out]
        stay = ~out
        active = active[stay]
        plans = None
        if Y is not None:
            Y = Y[stay]
        for key in anchor:
            anchor[key] = anchor[key][stay]
        if output_avg is not None and output_avg.weighted_sum is not None:
            output_avg.weighted_sum = output_avg.weighted_sum[stay]
        if exchange is not None:
            exchange.keep(stay)
        return [a[stay] if isinstance(a, np.ndarray) else a for a in arrays]

    xbar = _worker_mean(X)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            newly = observe(t, xbar)
            if newly.any():
                if (kept := drop(newly, X, X, xbar)) is None:
                    break
                X, xbar = kept
            if t == T:
                break
            if plans is None or t == plan_end:
                plan(t)
            if output_avg is not None:
                output_avg.update(xbar, t)
            if track_second_moment:
                run["max_second_moment"] = max(run["max_second_moment"],
                                               float(objective.second_moment_many(X).max()))
            G = objective.planned_gradient_many(X, plans[t - plan_start])
            if record.noise_norms:
                diff = G.mean(axis=1) - objective.gradient_many(X).mean(axis=1)
                append("noise_sq", np.sum(diff**2, axis=1))
            eta = eta_of(t)
            X_next = X - eta * G
            # a run whose iterates blow up cannot recover; freeze it at its
            # last finite iterates before the objective evaluation overflows
            if not np.max(np.abs(X_next)) < _DIVERGED:  # NaN fails too
                blown = ~np.all(np.abs(X_next) < _DIVERGED, axis=(1, 2))
                run["diverged"][active[blown]] = True
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
                    run["comm_rounds"] += 1
                xbar = _worker_mean(X_next)
            X = X_next

    final_iterates[active] = X
    run.update(rows={name: np.asarray(r) if r else None for name, r in rows.items()},
               eval_steps=np.asarray(run["eval_steps"], dtype=np.int64),
               final_iterates=final_iterates,
               output_average=None if output_avg is None or output_avg.value is None
               else unstack(output_avg.value))
    return run


def run_local_sgd(config, objective, stop_when=None) -> RunTrace:
    """Run synchronous local SGD and record the configured trace.

    Deterministic given config.seed.  Sampling is uniform over the n
    components with replacement, one independent substream per worker.
    `stop_when`, an (eps, f_star) pair, ends the run early at the first
    function-value evaluation where some tracked average is eps-accurate;
    the reached step is stored as trace.t_star.  A run that diverges ends
    at that step with trace.diverged set and its last finite iterates.
    """
    run = _simulate(config, objective, [config.seed], target=stop_when,
                    keep=lambda t, crossed: crossed < 0)
    row = {name: None if r is None else r[:, 0] for name, r in run["rows"].items()}
    f = row["f_values"]
    return RunTrace(
        xbar=row["xbar"], deviations=row["deviations"], noise_sq=row["noise_sq"],
        f_xbar=row["f_xbar"],
        iterates=None if row["iterates"] is None else row["iterates"].transpose(1, 0, 2),
        eval_steps=run["eval_steps"],
        f_by_scheme={} if f is None else dict(zip(SCHEMES, np.ascontiguousarray(f.T))),
        comm_rounds=run["comm_rounds"],
        output_average=None if run["output_average"] is None else run["output_average"][0],
        final_iterates=run["final_iterates"][0],
        t_star=int(run["crossed"][0]) if run["crossed"][0] >= 0 else None,
        diverged=bool(run["diverged"][0]),
    )


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


@dataclass
class EnsembleResult:
    """Aggregate statistics over many seeded runs of one configuration.

    A row not recorded reads None.  A run that diverged reads NaN from
    then on, its output average and f_output included.
    """

    objective: object = field(repr=False)
    diverged: np.ndarray             # (S,) runs stopped by the divergence guard
    max_second_moment: float         # 0.0 unless tracked
    output_average: np.ndarray       # (S, d) shift-a weighted average over t < T
    deviations: np.ndarray | None    # (S, T+1)
    dist_sq: np.ndarray | None       # (S, T+1) squared distance of xbar to ref
    noise_sq: np.ndarray | None      # (S, T)
    f_xbar: np.ndarray | None        # (S, T+1)

    @cached_property
    def f_output(self) -> np.ndarray:
        """(S,) f of each output average, from one value pass on first read."""
        f = np.full(len(self.diverged), np.nan)
        if not self.diverged.all():
            f[~self.diverged] = self.objective.value_many(self.output_average[~self.diverged])
        return f


def _ensemble_result(run, objective) -> EnsembleResult:
    """The EnsembleResult of the run dict of an ensemble `_simulate`, sync or async."""
    output_average = run["output_average"]
    output_average[run["diverged"]] = np.nan
    return EnsembleResult(
        objective, run["diverged"], run["max_second_moment"], output_average,
        **{name: None if run["rows"][name] is None else run["rows"][name].T
           for name in ("deviations", "dist_sq", "noise_sq", "f_xbar")})


def run_local_sgd_ensemble(
    config,
    objective,
    seeds,
    *,
    ref_point=None,
    track_second_moment=False,
    record_deviations=False,
    record_noise=False,
    record_f_xbar=False,
):
    """Run one configuration under many seeds, vectorized across runs.

    Run r is the `run_local_sgd` run with seed=seeds[r], advanced by the
    same loop, so its rows agree bitwise with the single run.  The runs
    record what the `record_*` flags ask for, not `config.record`.
    """
    record = RecordFlags(virtual=False, deviations=record_deviations, f_values=False,
                         noise_norms=record_noise, f_virtual=record_f_xbar)
    run = _simulate(replace(config, record=record), objective, seeds, ref_point=ref_point,
                    track_second_moment=track_second_moment)
    return _ensemble_result(run, objective)
