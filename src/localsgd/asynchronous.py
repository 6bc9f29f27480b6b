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
post-hoc verification.  A read sees a prefix of the write log plus its
extras, the later writes already in flight to it.  Every run, one seed or
many, writes, checks and replays its own plan in one function on the
synchronous time-step loop (`sync._simulate`), so no plan crosses the API.
Heterogeneous worker speeds are modeled by assigning H-step blocks of the
sequences to physical workers (`load_balanced_assignment`) and replaying
the resulting wall-clock order through the same function.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain

import numpy as np

from .schedules import _require_integer, _require_real, validate_shift
from .sync import _row_zero, _simulate, _worker_mean


@dataclass(frozen=True)
class DelayModel:
    """Write-visibility model with worst-case staleness tau (in steps)."""

    kind: str = "zero"
    tau: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "fixed", "random-bounded"):
            raise ValueError(f"unknown delay model {self.kind!r}")
        _require_integer("tau", self.tau, 0)
        if self.kind == "zero" and self.tau != 0:
            raise ValueError("zero-delay model must declare tau=0")
        _require_integer("seed", self.seed, 0)


Write = namedtuple("Write", "worker step wall lag")
Read = namedtuple("Read", "worker step prefix extras")


class WriteLog:
    """Every write and read of a run, with realized visibility.

    A write (worker, step, wall, lag) lands at wall + lag; its id is its
    position in `writes`, which is in step order.  A read (worker, step,
    prefix, extras) sees the writes [0, prefix) and the ascending ids in
    `extras`, the later writes already in flight to it.
    """

    def __init__(self):
        self.writes = []
        self.reads = []


def measured_delay(log: WriteLog) -> int:
    """Smallest tau' such that every write is visible to all reads tau'
    or more steps after it was issued.

    A write at step s unseen by a read at step t >= s forces tau' > t - s.
    Writes are in step order, so the oldest write a read misses is the one
    at its prefix, and another sequence's, since a sequence sees its own
    writes.  Returns 0 when nothing was ever stale.
    """
    if not log.reads:
        raise ValueError("write log has no recorded reads")
    worst = 0
    for r in log.reads:
        if r.prefix < len(log.writes) and log.writes[r.prefix].step <= r.step:
            worst = max(worst, r.step - log.writes[r.prefix].step + 1)
    return worst


def write_plan(K, T, per_worker_syncs, delay, wall_times=None) -> WriteLog:
    """Every write and read of an asynchronous run of K sequences over T steps.

    At each step the sequences that synchronize there write, in sequence
    order, then read.  A read sees its own writes and those whose lag has
    elapsed by its wall instant (the step, or `wall_times[(k, step)]`).
    There is one synchronization schedule per sequence, each ending at T,
    and a sequence's wall instants must not decrease.  So its reads see
    nested sets, and each read's prefix and extras come from a scan that
    starts at the sequence's previous prefix.  The plan does not depend on
    the run seed.
    """
    if len(per_worker_syncs) != K:
        raise ValueError("need one synchronization schedule per worker")
    for k, sched in enumerate(per_worker_syncs):
        if sched.T != T:
            raise ValueError(f"worker {k} schedule must end at the horizon T")
    lag_rng = np.random.default_rng(delay.seed)

    def wall_of(k, step):
        return float(step if wall_times is None else wall_times[(k, step)])

    log = WriteLog()
    prefix = [0] * K                   # each sequence's prefix at its last read
    last_wall = [-np.inf] * K
    for t in range(1, T + 1):
        syncing = [k for k in range(K) if per_worker_syncs[k].is_sync(t)]
        for k in syncing:
            # a zero-delay model has tau 0
            lag = (int(lag_rng.integers(0, delay.tau + 1))
                   if delay.kind == "random-bounded" else delay.tau)
            log.writes.append(Write(k, t, wall_of(k, t), lag))
        for k in syncing:
            wall = wall_of(k, t)
            if wall < last_wall[k]:
                raise ValueError(f"the wall instants of sequence {k} decrease at step {t}")
            last_wall[k] = wall
            seen = [i for i, w in enumerate(log.writes[prefix[k]:], prefix[k])
                    if w.worker == k or w.wall + w.lag <= wall]
            # the seen ids that continue the prefix extend it
            run = 0
            while run < len(seen) and seen[run] == prefix[k] + run:
                run += 1
            prefix[k] += run
            log.reads.append(Read(k, t, prefix[k], tuple(seen[run:])))
    return log


class _Replay:
    """A write plan replayed on the run stack of `sync._simulate`.

    After step t, each sequence that writes at t adds its update block
    since its last read, X - base, to the aggregate; each that reads takes
    x0 plus the blocks / K it sees, added in write-id order.  The blocks
    before the smallest prefix of the reads still to come are folded into
    one sum; a read adds the rest of its prefix, then its extras, to a copy
    of it.  So no read scans the whole log.

    The virtual sequence xbar, x0 plus every update / K, is the mean over
    the sequences of each one's iterate plus the blocks / K written that
    its last read did not see.  It is read off the iterates at every step,
    as the synchronous worker mean is, so its rounding error is that of
    the iterates and the blocks in flight, not that of a running sum.
    A read's value is not: a block X - base formed as the iterates fall
    from a large base keeps its rounding, summed from x0 or the last read.
    """

    def __init__(self, log, x0, S, K, T):
        self.K = K
        self.writes_at = [[] for _ in range(T + 1)]
        self.reads_at = [[] for _ in range(T + 1)]
        for i, w in enumerate(log.writes):
            self.writes_at[w.step].append((i, w.worker))
        # every read from this one on sees the writes before `fold`
        folds = list(accumulate(reversed([r.prefix for r in log.reads]), min))[::-1]
        for r, fold in zip(log.reads, folds):
            self.reads_at[r.step].append((r, fold))
        self.base = np.tile(x0, (S, K, 1))           # the value each sequence last read
        self.folded_sum = np.tile(x0, (S, 1))        # x0 plus the folded blocks / K
        self.folded = 0
        self.blocks = {}                             # id -> block / K, unfolded writes
        self.rounds = np.zeros(K, dtype=np.int64)    # reads per sequence
        self.unseen = np.zeros((S, K, len(x0)))      # the blocks / K each last read missed

    def __call__(self, t, X):
        for i, k in self.writes_at[t]:
            self.blocks[i] = (X[:, k] - self.base[:, k]) / self.K
            # every sequence misses a write until a read of its own sees it
            self.unseen += self.blocks[i][:, None]
        for r, fold in self.reads_at[t]:
            while self.folded < fold:
                self.folded_sum += self.blocks.pop(self.folded)
                self.folded += 1
            # one sequence's aggregate telescopes to its own iterate
            if self.K > 1:
                value = self.folded_sum.copy()
                for i in chain(range(self.folded, r.prefix), r.extras):
                    value += self.blocks[i]
                X[:, r.worker] = value
            self.base[:, r.worker] = X[:, r.worker]
            self.rounds[r.worker] += 1
            # the writes it does not see are past its prefix, so none is folded
            self.unseen[:, r.worker] = sum(
                (block for i, block in self.blocks.items() if i >= r.prefix and i not in r.extras),
                np.zeros_like(self.folded_sum))

    def virtual(self, X):
        """xbar (S, d) of the post-exchange iterates X, every update once."""
        return _worker_mean(X + self.unseen)

    def keep(self, stay):
        """Keep only the runs of the stack where `stay` is True."""
        self.base = self.base[stay]
        self.folded_sum = self.folded_sum[stay]
        self.blocks = {i: block[stay] for i, block in self.blocks.items()}
        self.unseen = self.unseen[stay]


def _replayed(config, per_worker_syncs, delay, objective, seeds, *,
              track_second_moment=False, wall_times=None, declared_tau=None):
    """Every asynchronous run: writes the plan of `config`, checks it, and
    replays it once per seed.

    Before any gradient work, checks a decaying schedule's shift against
    the longest sync interval plus tau, then the plan's realized staleness
    against tau: `declared_tau`, or the delay model's.  The runs record
    what `config.record` asks for, and their xbar is the virtual sequence
    of all updates, whose xbar[T] is the shared aggregate.  Returns the
    loop's `EnsembleResult`, with the plan's `staleness` and the reads per
    sequence as `comm_rounds`, and the plan.
    """
    log = write_plan(config.K, config.T, per_worker_syncs, delay, wall_times)
    tau = delay.tau if declared_tau is None else int(declared_tau)
    validate_shift(config.steps, objective.curvature(),
                   max(s.H for s in per_worker_syncs) + tau)
    staleness = measured_delay(log)
    if staleness > tau:
        raise RuntimeError(
            f"delay model violated its declared bound: realized staleness "
            f"{staleness} > tau={tau}"
        )
    replay = _Replay(log, config.x0, len(seeds), config.K, config.T)
    result = _simulate([replace(config, seed=seed) for seed in seeds], objective,
                       exchange=replay, track_second_moment=track_second_moment)
    return replace(result, staleness=staleness, comm_rounds=replay.rounds), log


def run_async_local_sgd(config, per_worker_syncs, delay, objective):
    """Simulate asynchronous local SGD; returns (RunTrace, WriteLog).

    The run records what `config.record` asks for; its trace's
    `comm_rounds` counts each sequence's reads, and its xbar[T] is the
    shared aggregate.  `per_worker_syncs` gives each sequence its own
    synchronization schedule (each must end at the horizon T).  The
    realized staleness of the write plan is checked against the delay
    model's tau before any gradient work; a violation aborts with a
    diagnostic.  Sequence k samples the same indices as worker k of
    `run_local_sgd`, and a run that diverges stops there with its last
    finite iterates and `diverged` set.
    """
    result, log = _replayed(config, per_worker_syncs, delay, objective, [config.seed])
    return _row_zero(result), log


def run_async_ensemble(config, per_worker_syncs, delay, objective, seeds, *,
                       track_second_moment=False):
    """Asynchronous runs of `config`, one per seed, all replaying the plan
    that `run_async_local_sgd` writes and checks for the same inputs.

    Run r records what `config.record` asks for and agrees bitwise with
    `run_async_local_sgd` at seed seeds[r].  Returns the `EnsembleResult`
    of `_replayed`: the output average of the virtual sequence and the
    plan's `staleness`.
    """
    return _replayed(config, per_worker_syncs, delay, objective, seeds,
                     track_second_moment=track_second_moment)[0]


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


def load_balanced_assignment(speeds, H, n_blocks=4) -> AssignmentPlan:
    """Greedy work-conserving schedule of sequence blocks onto workers.

    One logical sequence per worker; whenever a worker frees up it takes
    the next block of the most-lagging sequence whose previous block has
    completed (ties to the lowest sequence id).  With equal speeds this is
    the identity assignment with bound H; with unequal speeds fast workers
    pick up lagging sequences, and the returned bound certifies the
    realized staleness of any replay of the plan.
    """
    speeds = tuple(speeds)
    for speed in speeds:
        _require_real("speed", speed, positive=True)
    for name, value in (("the number of speeds", len(speeds)), ("H", H), ("n_blocks", n_blocks)):
        _require_integer(name, value, 1)
    speeds = tuple(float(s) for s in speeds)
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
    result, log = _replayed(config, [config.sync] * config.K, DelayModel(kind="zero"),
                            objective, [config.seed], wall_times=plan.wall_times(),
                            declared_tau=plan.bound)
    return _row_zero(result), log, plan
