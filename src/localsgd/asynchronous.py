"""Asynchronous local SGD with explicit write visibility.

Each of K logical sequences takes local gradient steps and, at its own
synchronization indices, atomically adds its accumulated update block
(scaled by 1/K) to a shared aggregate and restarts from the aggregate
value it reads back.  A read never incorporates update steps beyond the
reader's own step index, and which older blocks it sees is governed by a
delay model:

* zero: every write is visible to every read at the same or a later step;
* fixed(tau): a write lands tau steps after it is issued;
* random-bounded(tau): each write draws a lag uniformly from {0, ..., tau}.

A sequence always sees its own writes immediately.  The simulation runs on
a logical step clock with writes serialized before reads at each step, so
runs are reproducible and the realized visibility sets are recorded in a
WriteLog for post-hoc verification.  Heterogeneous worker speeds are
modeled by assigning H-step blocks of the sequences to physical workers
(`load_balanced_assignment`) and replaying the resulting wall-clock order
through the same engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedules import TheoremDecayStep, gap, regular_sync_schedule, validate_shift
from .sync import _index_stream


@dataclass(frozen=True)
class DelayModel:
    """Write-visibility model with worst-case staleness tau (in steps)."""

    kind: str = "zero"
    tau: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "fixed", "random-bounded"):
            raise ValueError(f"unknown delay model {self.kind!r}")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.kind == "zero" and self.tau != 0:
            raise ValueError("zero-delay model must declare tau=0")


@dataclass
class WriteEvent:
    """One atomic aggregation: worker's block of updates [start_step, step)."""

    id: int
    worker: int
    step: int
    start_step: int
    wall: float
    lag: int
    delta: np.ndarray

    @property
    def visible_wall(self) -> float:
        return self.wall + self.lag


@dataclass
class ReadEvent:
    worker: int
    step: int
    wall: float
    visible_ids: tuple


class WriteLog:
    """Every write and read of a run, with realized visibility."""

    def __init__(self):
        self.writes = []
        self.reads = []

    def visible_updates(self, t, k, h):
        """Update indices of worker h visible to a worker-k read at step t.

        Evaluates the same visibility rule the engine used; update index j
        labels the local step whose gradient produced the update.
        """
        wall = self._read_wall(k, t)
        out = set()
        for w in self.writes:
            if w.worker != h or w.step > t:
                continue
            if h == k or w.visible_wall <= wall:
                out.update(range(w.start_step, w.step))
        return out

    def _read_wall(self, k, t):
        for r in self.reads:
            if r.worker == k and r.step == t:
                return r.wall
        return float(t)


def measured_delay(log: WriteLog) -> int:
    """Smallest tau' such that every write is visible to all reads tau'
    or more steps after it was issued.

    Scans every (read, earlier write by another worker) pair; a write at
    step s unseen by a read at step t >= s forces tau' > t - s.  Returns 0
    when nothing was ever stale.
    """
    if not log.reads:
        raise ValueError("write log has no recorded reads")
    worst = 0
    by_id = {w.id: w for w in log.writes}
    for r in log.reads:
        seen = set(r.visible_ids)
        for w in by_id.values():
            if w.worker == r.worker or w.step > r.step or w.id in seen:
                continue
            worst = max(worst, r.step - w.step + 1)
    return worst


class AsyncRunTrace:
    """Recorded quantities of one asynchronous run."""

    def __init__(self, K, T):
        self.K = K
        self.T = T
        self.xbar = []          # virtual averaged sequence (all updates)
        self.deviations = []
        self.comm_rounds = np.zeros(K, dtype=np.int64)
        self.final_iterates = None
        self.final_aggregate = None
        self.max_second_moment = 0.0

    def as_arrays(self):
        self.xbar = np.asarray(self.xbar)
        self.deviations = np.asarray(self.deviations)
        return self


def run_async_local_sgd(config, per_worker_syncs, delay, objective,
                        wall_times=None, declared_tau=None,
                        track_second_moment=False):
    """Simulate asynchronous local SGD; returns (AsyncRunTrace, WriteLog).

    `per_worker_syncs` gives each sequence its own synchronization index
    set (each must contain the horizon T).  `wall_times`, when given, maps
    (worker, sync step) to a wall-clock instant and overrides the logical
    clock for visibility comparisons; this is how heterogeneous-speed
    block schedules are replayed, with `declared_tau` carrying the plan's
    staleness bound.  After the run the realized staleness is checked
    against the declared tau and a violation aborts with a diagnostic.
    Sequence k samples the same indices as worker k of `run_local_sgd`,
    and each step makes one batched oracle call for all K sequences.
    """
    K, T, b = config.K, config.T, config.b
    if len(per_worker_syncs) != K:
        raise ValueError("need one synchronization schedule per worker")
    for k, sched in enumerate(per_worker_syncs):
        if sched.T != T or not sched.is_sync(T):
            raise ValueError(f"worker {k} schedule must end at the horizon T")
    if config.x0.shape[-1] != objective.d:
        raise ValueError("x0 dimension does not match the objective")

    tau = delay.tau if declared_tau is None else int(declared_tau)
    H = max(gap((0,) + sched.indices) for sched in per_worker_syncs)
    if isinstance(config.steps, TheoremDecayStep):
        mu, L = objective.curvature()
        validate_shift(config.steps, L / mu, H + tau)

    lag_rng = np.random.default_rng(delay.seed)

    def draw_lag():
        if delay.kind == "zero":
            return 0
        if delay.kind == "fixed":
            return delay.tau
        return int(lag_rng.integers(0, delay.tau + 1))

    def wall_of(k, step):
        if wall_times is None:
            return float(step)
        return float(wall_times[(k, step)])

    X = np.tile(config.x0, (K, 1))
    base = np.tile(config.x0, (K, 1))   # value each worker last read
    xbar = config.x0.copy()

    log = WriteLog()
    trace = AsyncRunTrace(K, T)
    trace.xbar.append(xbar.copy())
    trace.deviations.append(float(np.mean(np.sum((X - xbar) ** 2, axis=1))))

    def read_value(k, step):
        # K=1: the aggregate telescopes to the worker's own iterate, so
        # return it directly instead of round-tripping through the sums.
        if K == 1:
            return X[0].copy(), tuple(w.id for w in log.writes)
        wall = wall_of(k, step)
        total = config.x0.copy()
        visible = []
        for w in log.writes:
            if w.step > step:
                continue
            if w.worker == k or w.visible_wall <= wall:
                total += w.delta / K
                visible.append(w.id)
        return total, tuple(visible)

    for t, I in enumerate(_index_stream([config.seed], K, objective.n, b, T)):
        if track_second_moment:
            sm = float(objective.second_moment_many(X).max())
            trace.max_second_moment = max(trace.max_second_moment, sm)
        eta = config.steps.eta(t)
        grads = objective.minibatch_gradient_many(X, I[0])
        X -= eta * grads
        xbar = xbar - eta * grads.mean(axis=0)

        writers = [k for k in range(K) if per_worker_syncs[k].is_sync(t + 1)]
        for k in writers:
            start = _last_sync(per_worker_syncs[k], t + 1)
            log.writes.append(
                WriteEvent(
                    id=len(log.writes),
                    worker=k,
                    step=t + 1,
                    start_step=start,
                    wall=wall_of(k, t + 1),
                    lag=draw_lag(),
                    delta=X[k] - base[k],
                )
            )
        for k in writers:
            value, visible = read_value(k, t + 1)
            X[k] = value
            base[k] = value.copy()
            trace.comm_rounds[k] += 1
            log.reads.append(
                ReadEvent(worker=k, step=t + 1, wall=wall_of(k, t + 1), visible_ids=visible)
            )

        trace.xbar.append(xbar.copy())
        trace.deviations.append(float(np.mean(np.sum((X - xbar) ** 2, axis=1))))

    trace.final_iterates = X
    trace.final_aggregate = config.x0 + sum(w.delta for w in log.writes) / K
    realized = measured_delay(log)
    if realized > tau:
        raise RuntimeError(
            f"delay model violated its declared bound: realized staleness "
            f"{realized} > tau={tau}"
        )
    return trace.as_arrays(), log


def _last_sync(sched, step):
    """Largest synchronization index strictly below `step` (0 if none)."""
    prev = 0
    for s in sched.indices:
        if s >= step:
            break
        prev = s
    return prev


@dataclass
class AssignmentPlan:
    """Block schedule mapping logical sequences onto physical workers.

    Each entry assigns one H-step block of one sequence to a worker over a
    wall interval.  `bound` is the staleness guarantee of the plan: the
    worst, over all blocks, of how far the most advanced contemporaneous
    sequence is ahead of the block's first step when the block lands.
    """

    speeds: tuple
    H: int
    n_blocks: int
    entries: list = field(default_factory=list)  # (seq, block, worker, start, end)
    bound: int = 0

    def wall_times(self):
        """Map (sequence, sync step) -> wall instant of the block end."""
        return {
            (seq, (block + 1) * self.H): end
            for seq, block, _worker, _start, end in self.entries
        }

    def is_identity(self):
        return all(seq == worker for seq, _b, worker, _s, _e in self.entries)


def load_balanced_assignment(speeds, H, n_blocks=4) -> AssignmentPlan:
    """Greedy work-conserving schedule of sequence blocks onto workers.

    One logical sequence per worker; whenever a worker frees up it takes
    the next block of the most-lagging sequence whose previous block has
    completed (ties to the lowest sequence id).  With equal speeds this is
    the identity assignment with bound H; with unequal speeds fast workers
    pick up lagging sequences, and the returned bound certifies the
    realized staleness of any replay of the plan.
    """
    speeds = tuple(float(s) for s in speeds)
    if not speeds or any(s <= 0 for s in speeds):
        raise ValueError("speeds must be positive")
    if H < 1 or n_blocks < 1:
        raise ValueError("H and n_blocks must be >= 1")
    K = len(speeds)

    worker_free = [0.0] * K
    next_block = [0] * K      # per sequence
    seq_ready = [0.0] * K     # wall when the sequence's last block finished
    entries = []

    remaining = K * n_blocks
    while remaining:
        # pick the (worker, sequence) pair that can start earliest
        best = None
        for w in range(K):
            for seq in range(K):
                if next_block[seq] >= n_blocks:
                    continue
                start = max(worker_free[w], seq_ready[seq])
                key = (start, next_block[seq], seq, w)
                if best is None or key < best[0]:
                    best = (key, w, seq, start)
        _, w, seq, start = best
        end = start + H / speeds[w]
        entries.append((seq, next_block[seq], w, start, end))
        next_block[seq] += 1
        worker_free[w] = end
        seq_ready[seq] = end
        remaining -= 1

    # staleness bound: when a block lands, how far ahead is the leader?
    completions = [((block + 1) * H, end) for _seq, block, _w, _start, end in entries]
    bound = H
    for seq, block, _w, _start, end in entries:
        lead = max(s for s, e in completions if e <= end)
        bound = max(bound, lead - block * H)
    plan = AssignmentPlan(speeds=speeds, H=H, n_blocks=n_blocks, entries=entries)
    plan.bound = int(bound)
    return plan


def run_load_balanced(config, speeds, objective):
    """Asynchronous run replaying a load-balanced block schedule.

    Requires T divisible by H.  All sequences synchronize every H steps;
    the plan's wall-clock order decides which writes each read can see,
    and the plan's bound is used as the declared staleness.
    """
    H = config.sync.H
    if config.T % H != 0:
        raise ValueError("load-balanced runs need T divisible by H")
    if len(speeds) != config.K:
        raise ValueError("need one speed per logical sequence (K of them)")
    plan = load_balanced_assignment(speeds, H, n_blocks=config.T // H)
    schedules = [regular_sync_schedule(config.T, H) for _ in range(config.K)]
    trace, log = run_async_local_sgd(
        config,
        schedules,
        DelayModel(kind="zero"),
        objective,
        wall_times=plan.wall_times(),
        declared_tau=plan.bound,
    )
    return trace, log, plan
