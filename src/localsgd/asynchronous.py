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
a logical step clock with writes serialized before reads at each step.
Which writes a read sees depends on the schedules, the delay model and
the wall times, never on the run seed, so `write_plan` records every
write and read of a configuration once, in a WriteLog that also serves
post-hoc verification, and the runs replay it on the synchronous
time-step loop (`sync._simulate`), many seeds at once.  Heterogeneous
worker speeds are modeled by assigning H-step blocks of the sequences to
physical workers (`load_balanced_assignment`) and replaying the resulting
wall-clock order through the same engine.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace

import numpy as np

from .schedules import validate_shift
from .sync import RecordFlags, _ensemble_result, _simulate


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
    """One atomic aggregation: worker's block of updates since its last write."""

    id: int
    worker: int
    step: int
    wall: float
    lag: int

    @property
    def visible_wall(self) -> float:
        return self.wall + self.lag


class ReadEvent:
    """A read by `worker` at `step` of the aggregate.

    It sees the first `settled` writes and, of the later ones, those given
    as `visible_ids` (kept as `pending`), so it holds only the writes still
    in flight; the `visible_ids` property lists every write it sees.
    """

    def __init__(self, worker, step, visible_ids, settled=0):
        self.worker = worker
        self.step = step
        self.settled = settled
        self.pending = tuple(visible_ids)

    @property
    def visible_ids(self) -> tuple:
        """Ids of every write the read sees, ascending."""
        return tuple(range(self.settled)) + self.pending


class WriteLog:
    """Every write and read of a run, with realized visibility.

    Write ids are positions in `writes`, which is in step order.
    """

    def __init__(self):
        self.writes = []
        self.reads = []


def measured_delay(log: WriteLog) -> int:
    """Smallest tau' such that every write is visible to all reads tau'
    or more steps after it was issued.

    A write by another worker at step s unseen by a read at step t >= s
    forces tau' > t - s.  Writes are in step order, so each read looks
    only at its writes from `settled` on, up to the first unseen one.
    Returns 0 when nothing was ever stale.
    """
    if not log.reads:
        raise ValueError("write log has no recorded reads")
    worst = 0
    for r in log.reads:
        seen = set(r.pending)
        for i in range(r.settled, len(log.writes)):
            w = log.writes[i]
            if w.step > r.step:
                break
            if w.worker != r.worker and w.id not in seen:
                worst = max(worst, r.step - w.step + 1)
                break
    return worst


def _check_staleness(log, tau) -> int:
    """Measured staleness of `log`; raises when it exceeds the declared tau."""
    realized = measured_delay(log)
    if realized > tau:
        raise RuntimeError(
            f"delay model violated its declared bound: realized staleness "
            f"{realized} > tau={tau}"
        )
    return realized


def _checked_plan(config, per_worker_syncs, delay, objective, wall_times=None,
                  declared_tau=None):
    """The write plan of an asynchronous run of `config`, checked before any run.

    Writes the plan, checks a decaying schedule's shift against the longest
    sync interval plus tau, then the plan's realized staleness against tau:
    `declared_tau`, or the delay model's.  Returns (plan, realized staleness).
    """
    log = write_plan(config.K, config.T, per_worker_syncs, delay, wall_times)
    tau = delay.tau if declared_tau is None else int(declared_tau)
    validate_shift(config.steps, objective.curvature(),
                   max(s.H for s in per_worker_syncs) + tau)
    return log, _check_staleness(log, tau)


def write_plan(K, T, per_worker_syncs, delay, wall_times=None) -> WriteLog:
    """Every write and read of an asynchronous run of K sequences over T steps.

    At each step the sequences that synchronize there write, in sequence
    order, then read.  A read sees its own writes and those whose lag has
    elapsed by its wall instant (the step, or `wall_times[(k, step)]`).
    There is one synchronization schedule per sequence, each ending at T.
    The plan does not depend on the run seed.
    """
    if len(per_worker_syncs) != K:
        raise ValueError("need one synchronization schedule per worker")
    for k, sched in enumerate(per_worker_syncs):
        if sched.T != T:
            raise ValueError(f"worker {k} schedule must end at the horizon T")
    lag_rng = np.random.default_rng(delay.seed)

    def wall_of(k, step):
        return float(step if wall_times is None else wall_times[(k, step)])

    syncing = [[k for k in range(K) if per_worker_syncs[k].is_sync(t)]
               for t in range(T + 1)]
    # earliest wall instant of any read after step t
    later = [np.inf] * (T + 2)
    for t in range(T, 0, -1):
        later[t] = min([later[t + 1]] + [wall_of(k, t) for k in syncing[t]])

    log = WriteLog()
    settled = 0   # every later read sees the writes before this id
    for t in range(1, T + 1):
        for k in syncing[t]:
            # a zero-delay model has tau 0
            lag = (int(lag_rng.integers(0, delay.tau + 1))
                   if delay.kind == "random-bounded" else delay.tau)
            log.writes.append(WriteEvent(id=len(log.writes), worker=k, step=t,
                                         wall=wall_of(k, t), lag=lag))
        for k in syncing[t]:
            wall = wall_of(k, t)
            visible = [w.id for w in log.writes[settled:]
                       if w.worker == k or w.visible_wall <= wall]
            log.reads.append(ReadEvent(k, t, visible, settled))
        while (settled < len(log.writes)
               and log.writes[settled].visible_wall <= later[t + 1]):
            settled += 1
    return log


class _Replay:
    """A write plan replayed on the run stack of `sync._simulate`.

    After step t, each sequence that writes at t adds its update block
    since its last read, X - base, to the aggregate; each that reads takes
    x0 plus the blocks / K it sees, added in write-id order: the settled
    sum, then its pending writes.  So no read scans the whole log.
    """

    def __init__(self, log, x0, S, K, T):
        self.K = K
        self.writes_at = [[] for _ in range(T + 1)]
        self.reads_at = [[] for _ in range(T + 1)]
        for w in log.writes:
            self.writes_at[w.step].append(w)
        for r in log.reads:
            self.reads_at[r.step].append(r)
        self.base = np.tile(x0, (S, K, 1))           # the value each sequence last read
        self.settled_sum = np.tile(x0, (S, 1))       # x0 plus the settled blocks / K
        self.settled = 0
        self.blocks = {}                             # id -> block / K, unsettled writes
        self.total = np.zeros((S, len(x0)))          # sum of every block written
        self.rounds = np.zeros(K, dtype=np.int64)    # reads per sequence

    def __call__(self, t, X):
        for w in self.writes_at[t]:
            block = X[:, w.worker] - self.base[:, w.worker]
            self.total += block
            self.blocks[w.id] = block / self.K
        for r in self.reads_at[t]:
            while self.settled < r.settled:
                self.settled_sum += self.blocks.pop(self.settled)
                self.settled += 1
            # one sequence's aggregate telescopes to its own iterate
            if self.K > 1:
                value = self.settled_sum.copy()
                for i in r.pending:
                    value += self.blocks[i]
                X[:, r.worker] = value
            self.base[:, r.worker] = X[:, r.worker]
            self.rounds[r.worker] += 1

    def keep(self, stay):
        """Keep only the runs of the stack where `stay` is True."""
        self.base = self.base[stay]
        self.settled_sum = self.settled_sum[stay]
        self.total = self.total[stay]
        self.blocks = {i: block[stay] for i, block in self.blocks.items()}


@dataclass
class AsyncRunTrace:
    """Recorded quantities of one asynchronous run."""

    xbar: np.ndarray             # (T+1, d) virtual averaged sequence (all updates)
    deviations: np.ndarray       # (T+1,) mean squared distance of sequences to xbar
    comm_rounds: np.ndarray      # (K,) reads per sequence
    final_iterates: np.ndarray   # (K, d)
    final_aggregate: np.ndarray  # (d,) x0 plus every update block / K
    max_second_moment: float
    diverged: bool               # iterates left the representable range


def run_async_local_sgd(config, per_worker_syncs, delay, objective,
                        wall_times=None, declared_tau=None,
                        track_second_moment=False):
    """Simulate asynchronous local SGD; returns (AsyncRunTrace, WriteLog).

    `per_worker_syncs` gives each sequence its own synchronization
    schedule (each must end at the horizon T).  `wall_times`, when given,
    maps (worker, sync step) to a wall-clock instant and overrides the
    logical clock for visibility comparisons; this is how
    heterogeneous-speed block schedules are replayed, with `declared_tau`
    carrying the plan's staleness bound.  The realized staleness of the
    write plan is checked against the declared tau before any gradient
    work; a violation aborts with a diagnostic.  Sequence k samples the
    same indices as worker k of `run_local_sgd`, and a run that diverges
    stops there with its last finite iterates and `diverged` set.
    """
    K = config.K
    log, _ = _checked_plan(config, per_worker_syncs, delay, objective, wall_times,
                           declared_tau)
    replay = _Replay(log, config.x0, 1, K, config.T)
    run = _simulate(replace(config, record=RecordFlags(f_values=False)), objective,
                    [config.seed], exchange=replay,
                    track_second_moment=track_second_moment)
    trace = AsyncRunTrace(
        xbar=run["rows"]["xbar"][:, 0],
        deviations=run["rows"]["deviations"][:, 0],
        comm_rounds=replay.rounds,
        final_iterates=run["final_iterates"][0],
        final_aggregate=config.x0 + replay.total[0] / K,
        max_second_moment=run["max_second_moment"],
        diverged=bool(run["diverged"][0]),
    )
    return trace, log


def run_async_ensemble(config, log, objective, seeds, *, track_second_moment=False):
    """Asynchronous runs of `config`, one per seed, all replaying one plan.

    `log` comes from `_checked_plan`, which checked its schedules, the
    shift and its staleness.
    Run r agrees bitwise with `run_async_local_sgd` at seed seeds[r].
    Returns the EnsembleResult of the sync ensemble, with `deviations`
    recorded and the output average of the virtual sequence.
    """
    run = _simulate(replace(config, record=RecordFlags(virtual=False, f_values=False)),
                    objective, seeds,
                    exchange=_Replay(log, config.x0, len(seeds), config.K, config.T),
                    track_second_moment=track_second_moment)
    return _ensemble_result(run, objective)


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
    # wall when the sequence's last block finished, inf once it has no block left
    seq_ready = [0.0] * K
    entries = []

    for _ in range(K * n_blocks):
        # pick the (worker, sequence) pair with the smallest key (start,
        # next_block[seq], seq, worker).  The earliest start is the later
        # of the earliest free worker and the earliest ready sequence, and
        # every worker free by then can start every sequence ready by then
        # at that instant, so one pass over each finds the pair
        start = max(min(worker_free), min(seq_ready))
        _, seq = min((next_block[s], s) for s in range(K) if seq_ready[s] <= start)
        w = next(w for w in range(K) if worker_free[w] <= start)
        end = start + H / speeds[w]
        entries.append((seq, next_block[seq], w, start, end))
        next_block[seq] += 1
        worker_free[w] = end
        seq_ready[seq] = end if next_block[seq] < n_blocks else float("inf")

    # staleness bound: when a block lands, how far ahead is the leader?  The
    # leader at wall instant w is the furthest step of a block ending by w:
    # a running max over the completions in order of their ends
    ends, leads = [], []
    for end, step in sorted((end, (block + 1) * H) for _s, block, _w, _st, end in entries):
        ends.append(end)
        leads.append(max(step, leads[-1]) if leads else step)
    bound = max([H] + [leads[bisect_right(ends, end) - 1] - block * H
                       for _seq, block, _w, _start, end in entries])
    return AssignmentPlan(speeds=speeds, H=H, n_blocks=n_blocks, entries=entries,
                          bound=int(bound))


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
    trace, log = run_async_local_sgd(
        config,
        [config.sync] * config.K,
        DelayModel(kind="zero"),
        objective,
        wall_times=plan.wall_times(),
        declared_tau=plan.bound,
    )
    return trace, log, plan
