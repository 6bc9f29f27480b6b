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

One time-step loop, `_simulate`, advances a batch of runs, one `RunConfig`
each, at once on worker-major iterates (K, S, d), each worker's runs one
contiguous slab (see `_worker_mean`), with one batched oracle call per
step; the rows it records stay run-major.  `run_local_sgd` is a batch of
one run and `run_local_sgd_ensemble` one of a run per seed, so a single
run and its row of a batch agree bitwise.
Asynchronous runs replay their write plan on it.  The stepsize grid
search runs a schedule per run, and runs that stop, diverge or are no
longer needed leave the stack, so they cost nothing afterwards.  Indices
come from `_index_chunks`, which draws every worker substream in chunks
of `_CHUNK_STEPS` steps, so memory does not grow with the horizon; runs
that share a seed share one draw, and runs that share a schedule one
evaluation of it.  Past a few substreams, one bit generator draws them in
turn, from states set by one vectorized pass of numpy's seeding, so
chunks equal one draw; the gathers of the sampled gradients are planned
from them for a block of steps at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .averaging import SCHEMES, recursion_weights
from .schedules import (SyncSchedule, TheoremDecayStep, _require_bool, _require_integer,
                        _require_real, validate_shift)

_CHUNK_STEPS = 1024        # steps drawn from each worker substream at a time
_BLOCK_ENTRIES = 1 << 15   # gathered entries of one block of gradient plans, at most
_DIVERGED = 1e100          # a run whose iterates reach this magnitude has diverged
_SPAWNED_STREAMS = 8       # a draw of more streams than this hashes their states in one pass
# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


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
        for name in ("virtual", "deviations", "f_values", "iterates", "noise_norms"):
            _require_bool(name, getattr(self, name))
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
        for name, least in (("K", 1), ("T", 1), ("b", 1), ("seed", 0)):
            _require_integer(name, getattr(self, name), least)
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


@dataclass
class EnsembleResult:
    """What the time-step loop, `_simulate`, records for a batch of S runs,
    for every engine; its counters cover the whole loop.

    Row r of each row that the runs' record asks for is run r's `RunTrace`
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
    staleness: int = 0               # realized staleness of the async write plan

    @cached_property
    def f_output(self) -> np.ndarray:
        """(S,) f of each output average, from one value pass on first read;
        a diverged run's average reads NaN, and so does its value."""
        return self.objective.value_many(self.output_average)


def _spawn_worker_rngs(seed, K):
    return [np.random.Generator(np.random.PCG64(s))
            for s in np.random.SeedSequence(seed).spawn(K)]


def _hashmix(words, const, mult, rows):
    """SeedSequence's hash of `words` into `rows` rows from constant `const`, and the next one."""
    consts = [const]
    for _ in range(rows):
        consts.append(consts[-1] * mult & _MASK32)
    column = np.array(consts, dtype=np.uint32).reshape((-1,) + (1,) * (words.ndim - 1))
    words = (words ^ column[:-1]) * column[1:]
    words ^= words >> 16
    return words, consts[-1]


def _stream_states(seeds, K):
    """`_spawn_worker_rngs(seed, K)[k].bit_generator.state` for each seed and
    k < K, run-major: numpy's SeedSequence hash (of the seed's 32-bit words,
    low first, zero-padded to 4, then k) and PCG64 seeding, fixed by its
    compatibility policy, run on arrays per word count."""
    lengths = np.array([max(4, -(-int(seed).bit_length() // 32)) for seed in seeds])
    initstate, initseq = np.empty((2, len(seeds), K), dtype=object)
    for length in set(lengths.tolist()):
        rows = np.flatnonzero(lengths == length)
        words = [np.array([[int(seeds[r]) >> 32 * j & _MASK32] for r in rows], dtype=np.uint32)
                 for j in range(length)] + [np.arange(K, dtype=np.uint32)[None]]
        # mix_entropy: hash the first 4 words into the pool (4, seeds, K),
        # mix each pool word into the other 3, then each later word into all
        pool, const = _hashmix(np.stack(words[:4]), _INIT_A, _MULT_A, 4)
        for src in range(4):
            dst = [i for i in range(4) if i != src]
            hashed, const = _hashmix(pool[src:src + 1], const, _MULT_A, 3)
            mixed = _MIX_L * pool[dst] - _MIX_R * hashed
            pool[dst] = mixed ^ mixed >> 16
        for word in words[4:]:
            hashed, const = _hashmix(word[None], const, _MULT_A, 4)
            mixed = _MIX_L * pool - _MIX_R * hashed
            pool = mixed ^ mixed >> 16
        # generate_state(4, uint64): 8 words hashed from the pool in turn, a
        # uint64 per (low, high) pair, and initstate, initseq 2 of those each
        halves, _ = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _INIT_B, _MULT_B, 8)
        halves = halves.astype(np.uint64)
        quads = (halves[0::2] | halves[1::2] << 32).astype(object)
        initstate[rows] = quads[0] << 64 | quads[1]
        initseq[rows] = quads[2] << 64 | quads[3]
    # srandom: inc = 2 initseq + 1, and the state 0 stepped, plus initstate, stepped
    inc = (initseq << 1 | 1) & _MASK128
    state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
    return [{"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
             "state": {"state": s, "inc": i}} for s, i in zip(state.flat, inc.flat)]


def _index_chunks(seeds, K, n, b, T):
    """Component indices (S, K, steps, b) of S seeded runs, for the steps t < T
    in chunks of `_CHUNK_STEPS` steps.

    Worker k of run r draws the k-th substream spawned from seeds[r]: from
    numpy's spawned generators up to `_SPAWNED_STREAMS` streams, and past
    that from one PCG64 set to each stream's saved state in turn, buffered
    32-bit half and all; so chunked draws equal one draw of any chunk size.
    """
    if len(seeds) * K <= _SPAWNED_STREAMS:
        gens, states = [rng for seed in seeds for rng in _spawn_worker_rngs(seed, K)], None
    else:
        states = _stream_states(seeds, K)
        gens = [np.random.Generator(np.random.PCG64(0))] * len(states)
    for start in range(0, T, _CHUNK_STEPS):
        steps = min(_CHUNK_STEPS, T - start)
        chunk = np.empty((len(seeds), K, steps, b), dtype=np.int64)
        for j, stream in enumerate(chunk.reshape(-1, steps, b)):
            if states:
                gens[j].bit_generator.state = states[j]
            stream[:] = gens[j].integers(0, n, size=(steps, b))
            if states and start + steps < T:
                states[j] = gens[j].bit_generator.state
        yield chunk


def _worker_mean(X):
    """Mean (S, d) over the workers of (K, S, d), bitwise np.mean over axis 1
    of the run-major (S, K, d): summing axis 0 adds the contiguous (S, d)
    slabs in worker order, as numpy adds the K rows wherever its inner loop
    runs over d, which it does for d >= 2.  At d = 1 the K axis is the
    contiguous one, which numpy sums pairwise, another order from K = 8 on;
    so d = 1 sums an (S, K) copy.  A single worker is its own mean."""
    if len(X) == 1:
        return X[0]
    if X.shape[2] == 1:
        return np.ascontiguousarray(X[:, :, 0].T).sum(axis=1)[:, None] / len(X)
    return X.sum(axis=0) / len(X)


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


def _simulate(runs, objective, *, track_second_moment=False, target=None, limits=None,
              exchange=None):
    """The time-step loop behind every engine: sync, grid search and async.

    Advances the S = len(runs) runs, one `RunConfig` each, on iterates
    (K, S, d), worker-major, and records what their record asks for, each
    row with a leading run axis: row r is the one run of runs[r], and the
    worker rows (S, K, ...) are transposed on write.  The runs share K,
    T, b, x0 and record; each has its own seed, stepsizes (and output
    average shift) and sync schedule, at whose indices its workers take
    their mean, xbar, in one masked mean with the runs that sync there.
    Per-run periods need record.f_values off, since eval_steps and
    f_by_scheme have one layout for all runs, and no `exchange`, an async
    write-plan replay that replaces the worker mean: exchange(t, X)
    updates the post-step iterates in place after every step t, and xbar
    is exchange.virtual(X), the virtual sequence of all updates.  Each
    schedule's shift is checked against its runs' period before any
    oracle call, or by an exchange's caller against H + tau.

    Each per-run quantity is one array of the table `stack`, over the
    active runs in run order (axis 1 of X, whose flat (K S, d) rows the
    gradient plans follow).  Every run leaves through `keep(stay)`, with
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

    A run's averages are evaluated at every stride-th step and at its
    sync indices, and only the runs evaluating at a step are screened,
    evaluated or left at their limit there: their (run, scheme) points to
    evaluate in one stacked pass, the others reading +inf.  Each step
    takes the same masked path with one period or several, and the
    screening test runs over every active run, its answer kept for the
    evaluating ones; with one period every mask is all true.  eval_steps
    lists the steps at which some run evaluated, and comm_rounds counts
    the steps after which some run took its worker mean; with one
    period, these are every run's own up to where the loop ended.  At
    t = 0 every average is xbar_0, evaluated once.  A target-only run,
    one that records no function values, keeps no output average and is
    screened: only the points that no convexity lower bound from their
    run's four anchors certifies above eps (`_certified_by_any`) are
    evaluated, with their gradients, and become the anchors.  So every
    crossing step is the same as with all values evaluated: a skipped
    point cannot be non-finite, which the iterate guard keeps away, and a
    step whose points are all skipped cannot cross, so it calls no value
    oracle.  points_evaluated and points_screened count the (run, scheme)
    points of every evaluation step, a point with an exact value as
    evaluated.

    `track_second_moment` keeps the largest E_i ||grad f_i||^2 at the
    iterates of the active runs before each step, through
    `objective.second_moment_max`: a screen may skip the exact sums of
    the rows it proves to be at most the running max (the quadratic's
    does, and the max at x0 usually bounds every later row), and the
    result is bitwise the exact max.

    Each chunk of `_CHUNK_STEPS` steps evaluates the stepsizes (each
    distinct schedule's scalar eta(t) once per step), the evaluation and
    sync steps of each distinct sync schedule, the output weights and the
    running averages' coefficients as arrays.  The sampled
    gradients of the active rows are planned (`objective.sample_plans`) for
    a block as long as the steps before it, so a run that stops early
    wastes little of one, and of at most `_BLOCK_ENTRIES` gathered entries;
    a run that leaves re-plans the rest of the block.

    Returns the `EnsembleResult` of the S runs, at least one.  Each row it
    keeps, what the record asks for and the output averages, is allocated
    once, NaN, and written in place; a row not kept is None.
    """
    if not len(runs):
        raise ValueError("need at least one run")
    config = runs[0]  # its K, T, b, x0 and record are every run's
    shared = (config.K, config.T, config.b, config.record, config.x0.shape, config.x0.tobytes())
    if any((run.K, run.T, run.b, run.record, run.x0.shape, run.x0.tobytes()) != shared
           for run in runs):
        raise ValueError("the runs of a batch must share K, T, b, x0 and record")
    if config.x0.shape[-1] != objective.d:
        raise ValueError("x0 dimension does not match the objective")
    if target is not None:
        _require_real("target accuracy", target[0], positive=True)
        _require_real("target f_star", target[1])
    S, K, T, d, record = len(runs), config.K, config.T, objective.d, config.record
    per_run = len({run.sync for run in runs}) > 1
    if per_run and record.f_values:
        raise ValueError("per-run sync periods need record.f_values off: eval_steps and "
                         "f_by_scheme have one layout for all runs")
    if per_run and exchange is not None:
        raise ValueError("per-run sync periods do not apply to an async exchange")
    curvature = objective.curvature()
    if exchange is None:
        for s, sync in dict.fromkeys((run.steps, run.sync) for run in runs):
            validate_shift(s, curvature, sync.H)
    stride = -(-T // 1000) if record.f_every is None else record.f_every
    screen = target is not None and not record.f_values
    # the running averages of SCHEMES feed the function-value evaluations only
    track_averages = record.f_values or target is not None

    def is_eval(t, sync):
        """Whether step t, or each of an array of steps, evaluates the
        averages of a run synced by `sync`: every stride-th step and sync
        index."""
        return (t % stride == 0) | sync.is_sync(t)

    # the per-run table of the stack; one index draw per distinct seed, and
    # run r takes the draw owner[r]; one evaluation per distinct schedule,
    # and run r has the stepsizes schedule[r] and the sync steps period[r]
    distinct, schedules, periods = {}, {}, {}
    stack = {"run": np.arange(S),
             "owner": np.array([distinct.setdefault(run.seed, len(distinct)) for run in runs]),
             "schedule": np.array([schedules.setdefault(run.steps, len(schedules))
                                   for run in runs]),
             "period": np.array([periods.setdefault(run.sync, len(periods)) for run in runs]),
             "X": np.tile(config.x0, (K, S, 1))}
    # a run's output average has the weights (a + t)^2 of its schedule's shift a
    shifts = [float(s.a) if isinstance(s, TheoremDecayStep) else 1.0 for s in schedules]
    stack["xbar"] = _worker_mean(stack["X"])
    if screen:
        # z, f(z), grad f(z) per (run, scheme); f(z) = NaN certifies
        # nothing, so every point is evaluated until it has an anchor
        stack["z"] = np.zeros((S, len(SCHEMES), d))
        stack["f_z"] = np.full((S, len(SCHEMES)), np.nan)
        stack["g_z"] = np.zeros((S, len(SCHEMES), d))
    else:
        # the weighted sum and the sum of weights of the output average;
        # -0.0 is the identity of a float sum, so its first term is exact
        stack["output_sum"] = np.full((S, d), -0.0)
        stack["weight_sum"] = np.zeros(S)

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
    # with f values recorded, every run has the one period config.sync
    f_rows = np.full((len(SCHEMES), S, int(is_eval(np.arange(T + 1), config.sync).sum())),
                     np.nan) if record.f_values else None
    eval_steps, comm_rounds, max_second_moment = [], 0, 0.0
    points_evaluated = points_screened = 0
    crossed, diverged = np.full(S, -1, dtype=np.int64), np.zeros(S, dtype=bool)
    final_iterates = np.empty((S, K, d))
    limit = np.full(S, np.inf) if limits is None else limits(crossed)
    chunks = _index_chunks(list(distinct), K, objective.n, config.b, T)
    # the gradient plans of the steps plan_start.. of the `planned` active
    # runs' rows; the block ends at plan_end
    plans, plan_start, plan_end, planned = None, 0, 0, S
    # the sync schedules of the active runs, and per step of the chunk
    # whether some active run evaluates and syncs after it
    present = evaluating = merging = None

    def keep(stay):
        """Keep the runs of the stack where `stay` is True; the others leave
        it with their iterates X as their final iterates and the output
        average of their steps so far."""
        leaving = stack["run"][~stay]
        final_iterates[leaving] = stack["X"][:, ~stay].swapaxes(0, 1)
        if not screen:
            rows["output_average"][leaving] = (stack["output_sum"][~stay]
                                               / stack["weight_sum"][~stay, None])
        if exchange is not None:
            exchange.keep(stay)
        for name, array in stack.items():
            stack[name] = array.compress(stay, axis=1) if name == "X" else array[stay]
        schedule_steps()

    def schedule_steps(new_chunk=False):
        """Keep, per step of the chunk, whether some active run evaluates
        and whether some active run syncs after it; they change only with
        the chunk and when the last run of a sync schedule leaves."""
        nonlocal present, evaluating, merging
        now = np.zeros(len(periods), dtype=bool)
        now[stack["period"]] = True
        if new_chunk or (now != present).any():
            present = now
            evaluating = evals[present].any(axis=0).tolist()
            merging = merges[present].any(axis=0).tolist()

    def evaluate(t, ev):
        """The mask of the points of the four running averages (A, 4) that
        step t evaluates, of the runs where `ev` holds, and f at every
        point, where a point not evaluated reads +inf; f is None when no
        point is evaluated."""
        Y = stack["Y"]
        if screen:
            need = ~_certified_by_any(Y, stack["z"], stack["f_z"], stack["g_z"], curvature[0],
                                      *target)
            need &= ev[:, None]
        else:
            need = ev[:, None].repeat(len(SCHEMES), axis=1)
        if not need.any():
            return need, None
        f = np.full(need.shape, np.inf)
        # at t = 0 every average is xbar_0, so its one value is every point's
        points = Y[:1, 0] if t == 0 else Y[need]
        if screen:
            f[need], stack["g_z"][need] = objective.value_and_gradient_many(points)
            stack["z"][need], stack["f_z"][need] = points, f[need]
        else:
            f[need] = objective.value_many(points)
        return need, f

    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T + 1):
            if t % _CHUNK_STEPS == 0:
                # the stepsizes, output weights and averaging coefficients of
                # the steps from t on, and their indices (None past the last step)
                span = np.arange(t, min(t + _CHUNK_STEPS, T + 1))
                stack["eta"] = _per_run(np.array([[s.eta(u) for u in span.tolist()]
                                                  for s in schedules]), stack["schedule"])
                if not screen:
                    # (a + t)^2 by C pow, as the ** of a float is
                    squares = [[(a + u) ** 2 for u in span.tolist()] for a in shifts]
                    stack["output_weight"] = _per_run(np.array(squares), stack["schedule"])
                if track_averages:
                    weights = recursion_weights(span)[..., None]
                # whether each run evaluates at each step and syncs after
                # it, by its sync schedule, and whether some active run does
                evals = np.array([is_eval(span, s) for s in periods])
                merges = np.array([s.is_sync(span + 1) for s in periods])
                stack["evals"] = _per_run(evals, stack["period"])
                stack["merges"] = _per_run(merges, stack["period"])
                schedule_steps(new_chunk=True)
                chunk, chunk_start = next(chunks, None), t

            active, xbar = stack["run"], stack["xbar"]
            if track_averages and t == 0:
                stack["Y"] = np.repeat(xbar[:, None], len(SCHEMES), axis=1)
            elif track_averages:
                x_num, x_den, y_num, y_den = weights[:, t - chunk_start]
                x = xbar[:, None]
                y = x * x_num / x_den + stack["Y"][:, 1:] * y_num / y_den
                stack["Y"] = np.concatenate((x, y), axis=1)
            if record.virtual:
                rows["xbar"][active, t] = xbar
            if record.deviations:
                rows["deviations"][active, t] = _worker_mean(
                    np.sum((stack["X"] - xbar) ** 2, axis=2, keepdims=True))[:, 0]
            if record.iterates:
                rows["iterates"][active, :, t] = stack["X"].swapaxes(0, 1)
            leave = np.zeros(len(active), dtype=bool)
            if track_averages and evaluating[t - chunk_start]:
                ev = stack["evals"][:, t - chunk_start]  # the active runs evaluating at t
                eval_steps.append(t)
                need, f = evaluate(t, ev)
                evaluated = int(np.count_nonzero(need))
                points_evaluated += evaluated
                points_screened += len(SCHEMES) * int(np.count_nonzero(ev)) - evaluated
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
                leave |= ev & (t >= limit[active])
            leave |= t == T  # every run leaves at T
            if leave.any():
                keep(~leave)
                if not len(stack["run"]):
                    break

            if t == plan_end or planned != len(stack["run"]):
                # plan the sampled gradients of the stack from step t to the
                # block end, as (steps, K, runs, b): plan row p is row p of X
                if t == plan_end:
                    per_step = len(stack["run"]) * K * config.b * objective.row_entries
                    plan_end = min(chunk_start + chunk.shape[2],
                                   t + max(1, min(t, int(_BLOCK_ENTRIES // per_step))))
                I = np.take(chunk[:, :, t - chunk_start:plan_end - chunk_start], stack["owner"],
                            axis=0)
                plans = objective.sample_plans(I.transpose(2, 1, 0, 3), _BLOCK_ENTRIES)
                plan_start, plan_end, planned = t, t + len(plans), len(stack["run"])
            if not screen:
                w = stack["output_weight"][:, t - chunk_start]
                stack["weight_sum"] = stack["weight_sum"] + w
                stack["output_sum"] = stack["output_sum"] + w[:, None] * stack["xbar"]
            if track_second_moment:
                max_second_moment = objective.second_moment_max(stack["X"], max_second_moment)
            G = objective.planned_gradient_many(stack["X"], plans[t - plan_start])
            if record.noise_norms:
                diff = _worker_mean(G) - _worker_mean(objective.gradient_many(stack["X"]))
                rows["noise_sq"][stack["run"], t] = np.sum(diff**2, axis=1)
            # the step X - eta G, written over G
            G *= stack["eta"][:, t - chunk_start, None]
            X = np.subtract(stack["X"], G, out=G)
            # a run whose iterates blow up cannot recover; freeze it at its
            # last finite iterates before the objective evaluation overflows
            if not (X.max() < _DIVERGED and -_DIVERGED < X.min()):  # NaN fails too
                blown = ~np.all(np.abs(X) < _DIVERGED, axis=(0, 2))
                diverged[stack["run"][blown]] = True
                keep(~blown)
                if not len(stack["run"]):
                    break
                X = X.compress(~blown, axis=1)
            if exchange is not None:
                exchange(t + 1, X)
                stack["xbar"] = exchange.virtual(X)
            else:
                if merging[t - chunk_start]:
                    if K > 1:  # the active runs that sync after step t
                        np.copyto(X, _worker_mean(X),
                                  where=stack["merges"][None, :, t - chunk_start, None])
                    comm_rounds += 1
                stack["xbar"] = _worker_mean(X)
            stack["X"] = X

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
                         "final_iterates")}
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
    return _row_zero(_simulate([config], objective, target=stop_when))


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

    Run r is the `run_local_sgd` run of replace(config, seed=seeds[r]), a
    row of one `_simulate` batch, and agrees bitwise with its trace.
    `track_second_moment` adds the largest E_i ||grad f_i||^2 at any iterate.
    """
    return _simulate([replace(config, seed=seed) for seed in seeds], objective,
                     track_second_moment=track_second_moment)
