"""Config-driven experiment runner.

Reads a flat INI config describing a dataset (a LIBSVM file or a synthetic
quadratic), a sweep over (eps, K, H, b) cells, and a communication cost
model, then for every cell grid-searches the stepsize families

    decaying   eta_t = min(32, c n / (t+1))
    constant   eta_t = 32 c

over c = 2^i, measures iterations-to-accuracy (reached when any of the
four tracked averages is eps-accurate), and emits

    results.csv          one row per cell with the winning stepsize,
                         iterations, gradient evaluations, communication
                         rounds, modeled wall-clock, and measured speedup
                         against the (K=1, H=1) baseline
    speedup_theory.csv   the closed-form speedup model over the same grid
    speedup.svg          optional hand-rolled line charts (one panel per
                         eps, speedup vs K, one polyline per H)

The adaptive search of a cell, one `_CellSearch` object (start at c = 1,
1/2, 2; move to the best point until its neighbours c/4, c/2, 2c, 4c are
all measured), runs in rounds.  A round is one batched run, on the cell
seed, of the points both families' searches visit next and of speculative
points they may visit later; a run leaves the batch once it is
eps-accurate, diverges, or can no longer be its family's best point, and
the search is replayed over the measured iteration counts.  The cells of
one (eps, K, b, step cap), which differ in H only, are searched in
lockstep: each round of the group is one batch of every cell's round,
each run on its own cell's seed and sync period, and each cell's rounds
and answer are those of its search alone.  Its count is its winner's own
run in a batch: no point runs twice.

The config is the one input of `run_experiment` and `verify_lemmas`,
and its `out_dir` the one place they write.  Every error of a config,
its file, its dataset or its output directory is a one-line ConfigError.

Runs are seeded and single-threaded.  With one worker, a job is one such
group of cells; a pool of W workers, bounded by the LOCALSGD_THREADS
environment variable, splits each group into min(W, cells) jobs, so that
every group's work spreads over the whole pool, and opens no more worker
processes than there are jobs.  Output bytes depend only on the config.
"""

from __future__ import annotations

import configparser
import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product
from math import ceil, inf, isfinite, log2, sqrt
from numbers import Integral
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .data import LibsvmFormatError, parse_libsvm
from .lemmas import LEMMA_DEFAULTS, LEMMA_HEADER, lemma_suite, validate_fixture
from .objectives import (
    LogisticObjective,
    QuadraticObjective,
    ReferenceSolution,
    make_quadratic,
)
from .schedules import (ConstantStep, ExperimentDecayStep, _require_bool, _require_integer,
                        _require_real, regular_sync_schedule)
from .sync import RecordFlags, RunConfig, _simulate, run_local_sgd
from .theory import check_cost_ratio, speedup, step_cost

RESULTS_HEADER = [
    "K", "H", "b", "eps", "family", "c",
    "iterations", "grad_evals", "comm_rounds", "wallclock", "speedup",
]
THEORY_HEADER = ["K", "H", "eps", "rho", "speedup_model"]

FAMILIES = ("decaying", "constant")


class ConfigError(ValueError):
    """Invalid or missing experiment configuration; names the field."""


@dataclass(frozen=True)
class DatasetSpec:
    kind: str                      # "libsvm" | "quadratic"
    path: str | None = None
    lam: float | None = None       # None means 1/n
    dimension: int | None = None
    d: int = 10
    mu: float = 1.0
    L: float = 4.0
    n: int = 64
    noise: float = 1.0
    seed: int = 7
    f_star: float | None = None
    fstar_tolerance: float = 1e-8


# every c = 2^i with i in this window of grid exponents is a positive finite float
_GRID_MIN, _GRID_MAX = -1074, 1023
_ROUND_FLOATS = 1024  # iterate floats (runs x K x d) a grid-search round speculates up to


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    eps_list: tuple                # each list is kept as a tuple
    K_list: tuple
    H_list: tuple
    b_list: tuple
    rho: float = 25.0
    seed: int = 1
    epoch_cap: int = 200
    i_min: int = -20
    i_max: int = 20
    out_dir: str = "results"
    svg: bool = True
    # lemma_suite keywords, the rest default; kept as a read-only mapping
    lemmas: dict = field(default_factory=dict)

    def __post_init__(self):
        # frozen all the way down, so that no list or keyword changed in
        # place bypasses the checks below
        for name in ("eps", "K", "H", "b"):
            if not (values := tuple(getattr(self, f"{name}_list"))):
                raise ConfigError(f"sweep list {name!r} must be nonempty")
            object.__setattr__(self, f"{name}_list", values)
        object.__setattr__(self, "lemmas", MappingProxyType(dict(self.lemmas)))
        try:
            for eps in self.eps_list:
                _require_real("eps", eps, positive=True)
            for name in ("K", "H", "b"):
                for value in getattr(self, f"{name}_list"):
                    _require_integer(name, value, 1)
            check_cost_ratio(self.rho)
            _require_integer("[run] seed", self.seed, 0)
            _require_integer("epoch_cap", self.epoch_cap, 1)
            # integer bounds get the window's messages first, any other the integer rule's
            if all(isinstance(getattr(self, name), Integral) for name in ("i_min", "i_max")):
                if self.i_min > self.i_max:
                    raise ValueError("grid window is empty (i_min > i_max)")
                if self.i_min < _GRID_MIN or self.i_max > _GRID_MAX:
                    raise ValueError(f"grid window [{self.i_min}, {self.i_max}] must lie "
                                     f"within [{_GRID_MIN}, {_GRID_MAX}], where every c = 2^i "
                                     f"is positive and finite")
            for name in ("i_min", "i_max"):  # integers too, after the window's messages
                _require_integer(name, getattr(self, name), _GRID_MIN)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if unknown := [key for key in self.lemmas if key not in LEMMA_DEFAULTS]:
            raise ConfigError(f"unknown key {unknown[0]!r} in [lemmas]")
        try:
            validate_fixture({**LEMMA_DEFAULTS, **self.lemmas})
        except ValueError as exc:
            raise ConfigError(f"lemmas.{exc}")
        if not self.out_dir:
            raise ConfigError("[output] dir must not be empty")
        try:
            _require_bool("[output] svg", self.svg)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _parse_list(raw, cast, field_name):
    try:
        return [cast(tok.strip()) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse list {field_name!r}: {raw!r}")


def parse_lambda(raw):
    """A ridge coefficient as `lambda` or `--lambda` gives it: a number, or auto (1/n)."""
    if raw == "auto":
        return None
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"lambda must be a number or auto, got {raw!r}")


def _optional(cast):
    """`cast`, reading an empty value as unset."""
    return lambda raw: cast(raw) if raw else None


def _boolean(raw):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {raw}")


# (section, key) -> (field, parse).  Keys are lower case, as configparser
# reads them.  [dataset] fills a DatasetSpec, [lemmas] the lemma_suite
# keywords and the others an ExperimentConfig, which hold every default.
_KEYS = {
    ("dataset", "kind"): ("kind", str),
    ("dataset", "path"): ("path", str),
    ("dataset", "lambda"): ("lam", parse_lambda),
    ("dataset", "dimension"): ("dimension", _optional(int)),
    ("dataset", "d"): ("d", int),
    ("dataset", "mu"): ("mu", float),
    ("dataset", "l"): ("L", float),
    ("dataset", "n"): ("n", int),
    ("dataset", "noise"): ("noise", float),
    ("dataset", "seed"): ("seed", int),
    ("dataset", "fstar"): ("f_star", _optional(float)),
    ("dataset", "fstar_tolerance"): ("fstar_tolerance", float),
    ("sweep", "eps"): ("eps_list", lambda raw: _parse_list(raw, float, "sweep.eps")),
    ("sweep", "k"): ("K_list", lambda raw: _parse_list(raw, int, "sweep.K")),
    ("sweep", "h"): ("H_list", lambda raw: _parse_list(raw, int, "sweep.H")),
    ("sweep", "b"): ("b_list", lambda raw: _parse_list(raw, int, "sweep.b")),
    ("cost", "rho"): ("rho", float),
    ("run", "seed"): ("seed", int),
    ("run", "epoch_cap"): ("epoch_cap", int),
    ("grid", "i_min"): ("i_min", int),
    ("grid", "i_max"): ("i_max", int),
    ("output", "dir"): ("out_dir", str),
    ("output", "svg"): ("svg", _boolean),
    **{("lemmas", name.lower()): (name, int) for name in LEMMA_DEFAULTS},
}


# the [dataset] keys that each kind reads
_DATASET_KEYS = {
    "libsvm": {"kind", "path", "lambda", "dimension", "fstar", "fstar_tolerance"},
    "quadratic": {"kind", "d", "mu", "l", "n", "noise", "seed", "fstar"},
}


def load_experiment_config(path) -> ExperimentConfig:
    """Parse the INI experiment config; raises ConfigError with the field.

    A section or key that `_KEYS` lacks is an error, [DEFAULT] included,
    and so is a [dataset] key that its kind does not read.  So is a file
    configparser rejects, in one line, and a `%` in a value is literal.
    """
    # no section is special, so [DEFAULT] is checked like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       default_section="", interpolation=None)
    try:
        if not parser.read(os.fspath(path), encoding="utf-8"):  # messages name a Path as a str
            raise ConfigError(f"cannot read config file {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8 text: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(" ".join(line.strip() for line in str(exc).splitlines())) from None

    values = {section: {} for section, _ in _KEYS}
    for section in parser.sections():
        if section not in values:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser[section].items():
            if (section, key) not in _KEYS:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
            name, parse = _KEYS[section, key]
            try:
                values[section][name] = parse(raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"bad value in [{section}]: {exc}")

    if "dataset" not in parser:
        raise ConfigError("missing [dataset] section")
    dataset = values.pop("dataset")
    # `build_problem` checks the kind and the path, as it does for the API
    kind = dataset.setdefault("kind", "")
    for key in parser["dataset"]:
        if kind in _DATASET_KEYS and key not in _DATASET_KEYS[kind]:
            raise ConfigError(f"key {key!r} in [dataset] does not apply to kind {kind}")
    if "sweep" not in parser:
        raise ConfigError("missing [sweep] section")
    for key in ("eps", "K", "H", "b"):
        if key not in parser["sweep"]:
            raise ConfigError(f"missing sweep.{key}")
    lemmas = values.pop("lemmas")
    settings = {name: value for section in values.values() for name, value in section.items()}
    return ExperimentConfig(dataset=DatasetSpec(**dataset), lemmas=lemmas, **settings)


def build_problem(spec: DatasetSpec):
    """Materialize (objective, reference) for a dataset spec.

    The reference solution is analytic for quadratics and computed by a
    truncated Newton-CG solve (Hessian-vector products only, O(n + d)
    memory) for logistic datasets unless the config pins f_star directly.
    An unknown kind, a libsvm spec without a path, a value the objective or
    the reference solve rejects, a tolerance the solve cannot reach and a
    dataset file that cannot be read or parsed raise a ConfigError.
    """
    if spec.kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be libsvm or quadratic, got {spec.kind!r}")
    if spec.kind == "libsvm" and not spec.path:
        raise ConfigError("dataset.path is required for libsvm datasets")
    try:
        if spec.f_star is not None:
            _require_real("f_star", spec.f_star)
        if spec.kind == "quadratic":
            objective, reference, _ = make_quadratic(
                spec.d, spec.mu, spec.L, spec.n, spec.noise, spec.seed
            )
        else:
            if spec.dimension is not None:
                _require_integer("dimension", spec.dimension, 1)
            with open(spec.path, "r", encoding="utf-8") as fh:
                dataset = parse_libsvm(fh, declared_dimension=spec.dimension)
            objective, reference = LogisticObjective(dataset, lam=spec.lam), None
        if spec.f_star is not None:
            x_ref = reference.x_star if reference is not None else np.zeros(objective.d)
            reference = ReferenceSolution(x_star=x_ref, f_star=spec.f_star,
                                          provenance="numeric")
        elif reference is None:
            reference = reference_for(objective, tolerance=spec.fstar_tolerance)
    except (OSError, LibsvmFormatError) as exc:  # a missing file, a directory, a bad line
        raise ConfigError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"dataset {spec.path!r} is not UTF-8 text: {exc}") from None
    except (ValueError, RuntimeError) as exc:
        raise ConfigError(f"bad value in [dataset]: {exc}")
    return objective, reference


_ARMIJO = 1e-4
_MAX_HALVINGS = 30
_MAX_NEWTON_ITERS = 200_000


def reference_for(objective, tolerance=DatasetSpec.fstar_tolerance) -> ReferenceSolution:
    """Reference solution (x*, f*) of any supported objective.

    Analytic for quadratics.  Otherwise a truncated Newton-CG solve from
    zero, run until the full gradient norm is at most `tolerance`; with
    mu = lam the optimality gap at return is at most tolerance^2 / (2 lam).
    `_MAX_NEWTON_ITERS` caps the Newton (outer) iterations.  Each one solves
    H p = -g by conjugate gradients to a residual of min(1/2, sqrt|g|) |g|,
    through Hessian-vector products only, so memory stays O(n + d), and
    then halves the step from 1 until the Armijo condition holds, which a
    trial value that is not finite (NaN) fails.  When no halving within
    the cap meets it, or a step lowers neither f nor the gradient norm, the
    iterate sits at the rounding floor and the solve raises instead of
    spinning.
    """
    _require_real("reference tolerance", tolerance, positive=True)
    if isinstance(objective, QuadraticObjective):
        return objective.reference_solution()
    if objective.lam <= 0.0:
        raise ValueError("reference computation requires strong convexity (lam > 0)")
    x = np.zeros(objective.d)
    f = objective.value(x)
    g = objective.gradient(x)
    for it in range(_MAX_NEWTON_ITERS + 1):
        gnorm = float(np.linalg.norm(g))
        if gnorm <= tolerance:
            return ReferenceSolution(x_star=x, f_star=f, provenance="numeric")
        if it == _MAX_NEWTON_ITERS:
            break
        p = _newton_cg(objective.hessian_product(x), g, min(0.5, sqrt(gnorm)) * gnorm)
        slope = float(g @ p)
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            x_new = x + step * p
            f_new = objective.value(x_new)
            if f_new <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        g_new = objective.gradient(x_new)
        if not (f_new < f or np.linalg.norm(g_new) < gnorm):
            break  # the rounding floor: the step lowered neither f nor |g|
        x, f, g = x_new, f_new, g_new
    raise RuntimeError(
        f"reference solve did not reach gradient norm {tolerance}: "
        f"norm {gnorm:.3e} after {it} of at most {_MAX_NEWTON_ITERS} Newton iterations"
    )


def _newton_cg(hess, g, residual_tol):
    """Conjugate gradients on hess(p) = -g from p = 0, to |residual| <= residual_tol.

    Every iterate is a descent direction, so the search stops after at most
    2d products even when rounding keeps the residual above the target.
    """
    p = np.zeros_like(g)
    r = -g
    direction = r.copy()
    rr = float(r @ r)
    for _ in range(2 * g.size):
        if sqrt(rr) <= residual_tol:
            break
        hd = hess(direction)
        alpha = rr / float(direction @ hd)
        p += alpha * direction
        r -= alpha * hd
        rr, rr_old = float(r @ r), rr
        direction = r + (rr / rr_old) * direction
    return p


def _family_steps(family, c, n):
    if family == "decaying":
        return ExperimentDecayStep(c=c, n=n)
    if family == "constant":
        return ConstantStep(c=c)
    raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")


def _cell_config(objective, K, H, b, seed, step_cap, steps):
    """A target-only run of a sweep cell: no trace but the accuracy checks."""
    return RunConfig(
        K=K, T=step_cap, b=b, sync=regular_sync_schedule(step_cap, H), steps=steps,
        seed=seed, x0=np.zeros(objective.d),
        record=RecordFlags(virtual=False, f_values=False),
    )


def measure_iterations(objective, f_star, K, H, b, eps, seed, step_cap,
                       family, c):
    """Iterations until some tracked average is eps-accurate; None if never.

    One seeded run, the reference for a grid point's row of a search
    batch, stopped at the first qualifying evaluation point (function
    values are checked at every synchronization index plus a fixed
    subsampling stride).  A run that diverges never qualifies.  The run
    records no function values, so `sync._simulate` screens its checks:
    one that convexity proves cannot reach eps is skipped, and t* is the
    same as with every value computed.
    """
    config = _cell_config(objective, K, H, b, seed, step_cap,
                          _family_steps(family, c, objective.n))
    return run_local_sgd(config, objective, stop_when=(eps, f_star)).t_star


def replay_search(lookup, i_min, i_max):
    """The adaptive stepsize search of one family, replayed over a t* table.

    `lookup` maps an exponent i in [i_min, i_max] (c = 2^i) to t* or to
    None (never eps-accurate); an exponent not in `lookup` is unmeasured.
    The search visits 0, -1, 1; while no visited point reaches eps it
    visits the unvisited point nearest 0 (the negative side first);
    otherwise it takes the visited point with the smallest (t*, i) and
    visits its neighbours i-2, i-1, i+1, i+2, and stops once they are all
    visited.  Returns (i, t*), (None, None) when no point in the window
    reaches eps, or the set of unmeasured points the search visits next.
    """
    visited = {i for i in (0, -1, 1) if i_min <= i <= i_max}
    while True:
        unmeasured = visited - lookup.keys()
        if unmeasured:
            return unmeasured
        known = [i for i in visited if lookup[i] is not None]
        if known:
            best = min(known, key=lambda i: (lookup[i], i))
            new = {j for j in (best - 2, best - 1, best + 1, best + 2)
                   if i_min <= j <= i_max} - visited
            if not new:
                return best, lookup[best]
            visited |= new
        else:
            unvisited = [i for i in range(i_min, i_max + 1) if i not in visited]
            if not unvisited:
                return None, None
            visited.add(min(unvisited, key=lambda i: (abs(i), i)))


def replay_grid(tables, i_min, i_max):
    """Winning (family, c, t*) of the search over one t* table per family.

    `tables` maps each family of FAMILIES to a `replay_search` lookup that
    holds every point its search visits.  Families tie-break toward
    smaller c and then toward the decaying family.  Returns
    (None, None, None) when no stepsize reaches eps.
    """
    candidates = []
    for f, family in enumerate(FAMILIES):
        outcome = replay_search(tables[family], i_min, i_max)
        if isinstance(outcome, set):
            raise ValueError(f"{family} table lacks the points {sorted(outcome)}")
        i, t_star = outcome
        if i is not None:
            candidates.append((t_star, 2.0**i, f, family))
    if not candidates:
        return None, None, None
    t_star, c, _, family = min(candidates)
    return family, c, t_star


def grid_search_stepsize(objective, f_star, K, H, b, eps, seed, step_cap,
                         i_min=ExperimentConfig.i_min, i_max=ExperimentConfig.i_max):
    """Best stepsize family and c = 2^i for one sweep cell.

    The adaptive search of `replay_search` per family (failing to reach
    the accuracy counts as worse; equal counts resolve toward smaller c),
    then the choice between families of `replay_grid`.  The search is one
    `_CellSearch`, run in the rounds of `_search_rounds`: each round is one
    batch of seeded runs on the cell seed, of the points that either
    family's search visits next and of speculative points it may visit
    later, as many as keep runs x K x d within `_ROUND_FLOATS`.  A run
    leaves the batch once it is eps-accurate, diverges, or can no longer be
    its family's best point.  Returns (family, c, iterations), with (None,
    None, None) when no stepsize in the window reaches eps; the iterations
    are the winner's t* in its batch, which is its `measure_iterations`
    run.  This is the one-cell case of `_search_cells`, and its answer is
    the same alone or searched beside other cells.
    """
    return _search_cells(objective, f_star, K, b, eps, step_cap, [(H, seed)], i_min, i_max)[0]


def _search_cells(objective, f_star, K, b, eps, step_cap, cells,
                 i_min=ExperimentConfig.i_min, i_max=ExperimentConfig.i_max):
    """`grid_search_stepsize` of each (H, seed) of `cells`, which share
    (eps, K, b, step_cap) and the window, searched in lockstep.

    Each cell is one `_CellSearch`, with its own tables, cache and
    `_ROUND_FLOATS` budget, so its rounds, runs and answer are those of its
    search alone.  A round of the group is one `_simulate` batch of the
    cells' round points, each run on its cell's seed and sync period, and
    `limits` drops the runs of each cell by that cell's tables alone.
    Returns one (family, c, iterations) per cell, in order, `replay_grid`
    of its tables, whose every t* is its point's own run in a batch: no
    point runs twice.
    """
    syncs = [regular_sync_schedule(step_cap, H) for H, _ in cells]

    def measure(batch, limits):
        steps = [_family_steps(family, 2.0**i, objective.n) for _, (family, i) in batch]
        config = _cell_config(objective, K, cells[0][0], b, cells[0][1], step_cap, steps[0])
        return _simulate(config, objective, [cells[k][1] for k, _ in batch], steps=steps,
                         syncs=[syncs[k] for k, _ in batch], target=(eps, f_star),
                         limits=limits).crossed

    searches = [_CellSearch(i_min, i_max, _ROUND_FLOATS // (K * objective.d)) for _ in cells]
    _search_rounds(measure, searches)
    return [replay_grid(search.measured, i_min, i_max) for search in searches]


def _search_rounds(measure, searches):
    """Run the `_CellSearch` objects `searches` in lockstep until each is done.

    Each round calls `measure(batch, limits)` once, where `batch` lists
    the (k, (family, i)) runs of each search k's `next_round` in turn.  It
    returns the crossing step of each run (-1 if none) and stops a run at
    the step `limits(crossed)` gives it (`_simulate`'s rule); each search
    reads its own slice of `crossed` in `limits` and then in `record`.
    """
    while going := [(k, search) for k, search in enumerate(searches) if search.next_round()]:
        ends = np.cumsum([len(search.points) for _, search in going])[:-1]

        def limits(crossed):
            return np.concatenate([search.limits(part)
                                   for (_, search), part in zip(going, np.split(crossed, ends))])
        crossed = measure([(k, point) for k, search in going for point in search.points],
                          limits)
        for (_, search), part in zip(going, np.split(crossed, ends)):
            search.record(part)


@dataclass
class _CellSearch:
    """The grid search of one cell: a t* table per family (`measured`), a
    cache of speculative outcomes, the window, the round budget, and the
    current round's (family, i) `points` with their speculative mask
    (`spare`).  Two searches are equal when all of these are.

    A round runs the points the search visits next (the needed points)
    and, while it has fewer than `max_runs` runs, speculative points it
    may visit later.  A speculative outcome goes into the cache, and
    enters its family's table only when the search visits that point; a
    round runs no point that is measured or cached, so no point runs
    twice.

    Every table entry is one that the one-point-at-a-time search could
    read, so `replay_grid` gives its answer.  A speculative crossing never
    drives a drop: `_drop_limits` reads the needed runs' crossings only,
    with the speculative rows passed as -1, so every run's limit comes
    from visited points alone.  A cached t* is the run's own t*, since
    row r of a batch is its one-seed run.  A cached None is a run that
    never reached eps, or one dropped by a visited point with a smaller
    (t*, i); that point is in the table before the cached one enters it,
    so by `_drop_limits`' invariant reading None for it changes nothing.
    """
    i_min: int
    i_max: int
    max_runs: int
    measured: dict = field(init=False, default_factory=lambda: {f: {} for f in FAMILIES})
    cache: dict = field(init=False, default_factory=lambda: {f: {} for f in FAMILIES})
    points: list = field(init=False, default_factory=list)
    spare: list = field(init=False, default_factory=list)

    def next_round(self):
        """The points of the next round, the needed ones first; none once the
        search is done.  A needed point already in the cache runs nothing: it
        enters the tables, as the search visits it, before the round is formed.
        """
        lo, hi = self.i_min, self.i_max
        while True:
            needed = []  # the (family, i) points both families' searches visit next
            for family, lookup in self.measured.items():
                if isinstance(outcome := replay_search(lookup, lo, hi), set):
                    needed += [(family, i) for i in sorted(outcome)]
            cached = [(family, i) for family, i in needed if i in self.cache[family]]
            if not cached:
                break
            for family, i in cached:  # the searches visit them now
                self.measured[family][i] = self.cache[family].pop(i)
        # The points the round may run beside its needed ones, likeliest first.  Of each
        # family with needed points: the unvisited, uncached points within 2 of a needed
        # one, which its search visits next if that point becomes its best, and while no
        # visited point of the family has reached eps, the next two points of its outward
        # scan.  Listed by distance to a needed point, the scan points last, then nearest 0.
        ranked = []
        for f, family in enumerate(FAMILIES):
            own = [i for fam, i in needed if fam == family]
            taken = set(own) | self.measured[family].keys() | self.cache[family].keys()
            near = {j: min(abs(j - k) for k in own) for i in own for j in range(i - 2, i + 3)
                    if lo <= j <= hi and j not in taken}
            if own and all(t_star is None for t_star in self.measured[family].values()):
                scan = [j for j in range(lo, hi + 1) if j not in taken and j not in near]
                near.update({j: 3 for j in sorted(scan, key=lambda j: (abs(j), j))[:2]})
            ranked += [((rank, abs(j), j, f), (family, j)) for j, rank in near.items()]
        speculative = [point for _, point in sorted(ranked)]
        self.points = needed + speculative[:max(0, self.max_runs - len(needed))]
        self.spare = [r >= len(needed) for r in range(len(self.points))]
        return self.points

    def limits(self, crossed):
        """`_drop_limits` of the round's runs, the speculative rows read as -1."""
        return _drop_limits(self.measured, self.points, np.where(self.spare, -1, crossed))

    def record(self, crossed):
        """Write the round's t* (-1 if none) to the tables, speculative ones to the cache."""
        for (family, i), spare, t in zip(self.points, self.spare, crossed):
            (self.cache if spare else self.measured)[family][i] = int(t) if t >= 0 else None


def _drop_limits(measured, points, crossed):
    """The steps (P,) from which each of a round's runs is no longer needed.

    `points` are the round's (family, i) pairs and `crossed` their t* so
    far (-1 if none).  A run is needed at step t while it can still be its
    family's best point, that is while t < its limit.  Every point in
    `measured` was visited, so once some point of a family has reached
    eps, a point with a larger (t*, i) is never the best point at any
    stage of that family's search, and reading None for it changes
    nothing.  A run still going at step t reaches eps at t+1 at the
    earliest.

    With (t*, i) the best point so far of run r's family, r is needed at
    step t while (t + 1, i_r) < (t*, i), that is while t < t* - 1 + [i_r <
    i]; a family with no point at eps keeps its runs (limit +inf).
    """
    best = {}
    reached = [(family, t_star, i) for family, lookup in measured.items()
               for i, t_star in lookup.items() if t_star is not None]
    reached += [(family, int(crossed[r]), i)
                for r, (family, i) in enumerate(points) if crossed[r] >= 0]
    for family, t_star, i in reached:
        best[family] = min(best.get(family, (t_star, i)), (t_star, i))
    return np.array([np.inf if family not in best
                     else best[family][0] - 1 + (i < best[family][1])
                     for family, i in points], dtype=np.float64)


@dataclass
class ResultRow:
    K: int
    H: int
    b: int
    eps: float
    family: str | None
    c: float | None
    iterations: int | None
    rho: float

    @property
    def grad_evals(self):
        return None if self.iterations is None else self.iterations * self.K * self.b

    @property
    def comm_rounds(self):
        return None if self.iterations is None else self.iterations // self.H

    @property
    def wallclock(self):
        if self.iterations is None:
            return None
        return self.iterations * step_cost(self.K, self.H, self.rho)

    def measured_speedup(self, baseline_wallclock):
        """baseline_wallclock / wallclock, inf at a zero wall clock; None
        when either is missing."""
        if self.wallclock is None or baseline_wallclock is None:
            return None
        return baseline_wallclock / self.wallclock if self.wallclock > 0 else inf

    def csv_fields(self, baseline_wallclock):
        measured = self.measured_speedup(baseline_wallclock)
        return [
            str(self.K), str(self.H), str(self.b), repr(self.eps),
            self.family or "unreachable",
            "" if self.c is None else repr(self.c),
            "" if self.iterations is None else str(self.iterations),
            "" if self.grad_evals is None else str(self.grad_evals),
            "" if self.comm_rounds is None else str(self.comm_rounds),
            "" if self.wallclock is None else repr(self.wallclock),
            "" if measured is None else repr(measured),
        ]


def _cell_seed(master_seed, index):
    return int(np.random.SeedSequence((master_seed, index)).generate_state(1)[0])


_pool_objective = None  # the sweep's objective in a pool worker


def _set_pool_objective(objective):
    global _pool_objective
    _pool_objective = objective


def _sweep_job(job, objective=None):
    """The answers of one pool job, a group of sweep cells searched
    together; top-level so worker pools can pickle it.

    `job` is the arguments of `_search_cells` after the objective.
    Without `objective`, the job runs on the pool worker's objective.
    """
    return _search_cells(_pool_objective if objective is None else objective, *job)


def _pool_jobs(groups, workers):
    """The (key, cells) `groups`, each split into min(workers, cells) jobs
    of consecutive cells whose counts differ by at most one.

    Cells differ in cost (a K = 1 cell runs K times the steps of a
    K-worker one), and a whole group of costly cells can outlast the rest
    of a pool's work: on a w8a-shaped sweep of five K groups, the K = 1
    group took 37% of the serial time.  A group spread over every worker
    keeps the pool as busy as one job per cell; one worker runs every
    group whole.
    """
    jobs = []
    for key, cells in groups:
        parts = min(workers, len(cells))
        bounds = [len(cells) * j // parts for j in range(parts + 1)]
        jobs += [(key, cells[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return jobs


def _pool_size():
    raw = os.environ.get("LOCALSGD_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigError(f"LOCALSGD_THREADS must be an integer, got {raw!r}")
    return min(os.cpu_count() or 1, 4)


def _output_dir(config):
    """Create the config's output directory; one that cannot be made is a ConfigError.

    Callers build the problem first and run after, so a config error
    leaves no directory behind and a bad directory costs no run.
    """
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from None
    return out


def run_experiment(config: ExperimentConfig):
    """Execute the full sweep; returns (rows, exit_code) and writes outputs.

    The cells of one (eps, K, b, step cap) are one group, searched in
    lockstep by `_search_cells`.  With one worker each group is one job;
    a pool of W workers splits each group into min(W, cells) jobs
    (`_pool_jobs`) and opens min(W, jobs) processes.  A cell's answer
    does not depend on its job, nor the outputs on the pool size.  Exit
    code 0 on success, 2 when some cells never reached their target
    accuracy within the step cap (those rows are marked unreachable).
    """
    objective, reference = build_problem(config.dataset)
    workers = _pool_size()
    out = _output_dir(config)
    grid = list(product(config.eps_list, config.K_list, config.H_list, config.b_list))
    # the cells of one (K, b, eps, step cap) are searched together, in the
    # order of their first cells; a cell of a group is (index, H, seed)
    groups = {}
    for index, (eps, K, H, b) in enumerate(grid):
        step_cap = max(H, ceil(config.epoch_cap * objective.n / (K * b)))
        groups.setdefault((K, b, eps, step_cap), []).append(
            (index, H, _cell_seed(config.seed, index)))
    split = _pool_jobs(groups.items(), workers)
    jobs = [(reference.f_star, *key, [(H, seed) for _, H, seed in cells],
             config.i_min, config.i_max) for key, cells in split]

    if (pool_size := min(workers, len(jobs))) > 1:
        with ProcessPoolExecutor(max_workers=pool_size, initializer=_set_pool_objective,
                                 initargs=(objective,)) as pool:
            found = list(pool.map(_sweep_job, jobs))
    else:
        found = [_sweep_job(job, objective) for job in jobs]
    rows = [None] * len(grid)
    for (_, cells), answers in zip(split, found):
        for (index, _, _), (family, c, t_star) in zip(cells, answers):
            eps, K, H, b = grid[index]
            rows[index] = ResultRow(K=K, H=H, b=b, eps=eps, family=family, c=c,
                                    iterations=t_star, rho=config.rho)

    baselines = {
        (row.b, row.eps): row.wallclock
        for row in rows
        if row.K == 1 and row.H == 1 and row.wallclock is not None
    }
    _write_csv(out / "results.csv", RESULTS_HEADER,
               [row.csv_fields(baselines.get((row.b, row.eps))) for row in rows])
    _write_csv(out / "speedup_theory.csv", THEORY_HEADER,
               theory_rows(config.eps_list, config.K_list, config.H_list, config.rho))

    if config.svg:
        write_speedup_svg(out / "speedup.svg", rows, baselines, config)

    exit_code = 2 if any(row.iterations is None for row in rows) else 0
    return rows, exit_code


def theory_rows(eps_list, K_list, H_list, rho):
    """Fields of the speedup model's rows over a grid, as in speedup_theory.csv."""
    return [[str(K), str(H), repr(eps), repr(rho), repr(speedup(K, H, eps, rho))]
            for eps in eps_list for K in K_list for H in H_list]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# -- hand-rolled SVG ---------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def write_speedup_svg(path, rows, baselines, config):
    """Line charts of measured speedup vs K (log-2 axis), one panel per eps."""
    panel_w, panel_h = 360, 280
    margin = 56
    n_panels = len(config.eps_list)
    width = n_panels * (panel_w + margin) + margin
    height = panel_h + 2 * margin + 24

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for p, eps in enumerate(config.eps_list):
        x0 = margin + p * (panel_w + margin)
        y0 = margin
        series = {}
        for row in rows:
            measured = row.measured_speedup(baselines.get((row.b, row.eps)))
            # a row at a zero wall clock, whose speedup is inf, has no point
            if row.eps == eps and measured is not None and isfinite(measured):
                series.setdefault(row.H, []).append((row.K, measured))
        ks = sorted({k for pts in series.values() for k, _ in pts}) or [1]
        top = max((s for pts in series.values() for _, s in pts), default=1.0)
        top = max(top, 1.0) * 1.1

        def sx(k):
            lo, hi = log2(ks[0]), log2(max(ks[-1], ks[0] * 2))
            return x0 + (log2(k) - lo) / (hi - lo or 1.0) * panel_w

        def sy(s):
            return y0 + panel_h - (s / top) * panel_h

        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{panel_w}" height="{panel_h}" '
            f'fill="none" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x0 + panel_w / 2:.1f}" y="{y0 - 12}" text-anchor="middle">'
            f'speedup vs K (eps={eps!r}, rho={config.rho!r})</text>'
        )
        for k in ks:
            parts.append(
                f'<text x="{sx(k):.1f}" y="{y0 + panel_h + 16}" '
                f'text-anchor="middle">{k}</text>'
            )
        for frac in (0.0, 0.5, 1.0):
            val = frac * top
            parts.append(
                f'<text x="{x0 - 6}" y="{sy(val) + 4:.1f}" '
                f'text-anchor="end">{val:.2f}</text>'
            )
        for j, (H, pts) in enumerate(sorted(series.items())):
            pts = sorted(pts)
            color = _PALETTE[j % len(_PALETTE)]
            coords = " ".join(f"{sx(k):.2f},{sy(s):.2f}" for k, s in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
            parts.append(
                f'<text x="{x0 + panel_w - 6}" y="{y0 + 16 + 14 * j}" '
                f'text-anchor="end" fill="{color}">H={H}</text>'
            )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


# -- lemma verification entry point ------------------------------------------


def verify_lemmas(config: ExperimentConfig):
    """Run the five inequality checks of `lemmas.lemma_suite` on the configured fixture.

    Returns the list of CheckReports and writes lemma_checks.csv; check
    parameters come from the [lemmas] section (with defaults matching the
    standard fixtures).  The checks' theorem schedules need mu > 0; an
    objective without it is a ConfigError before any directory is made.
    """
    objective, reference = build_problem(config.dataset)
    try:
        _require_real("mu", objective.curvature()[0], positive=True)
    except ValueError as exc:
        raise ConfigError(f"verify-lemmas needs a strongly convex objective: {exc}") from None
    out = _output_dir(config)
    reports = lemma_suite(objective, reference, **config.lemmas)
    _write_csv(out / "lemma_checks.csv", LEMMA_HEADER,
               [report.csv_fields() for report in reports])
    return reports
