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

The adaptive search of a cell (start at c = 1, 1/2, 2; move to the best
point until its neighbours c/4, c/2, 2c, 4c are all measured) runs in
rounds.  A round is one batched run, on the cell seed, of the points both
families' searches visit next; a run leaves the batch once it is
eps-accurate, diverges, or can no longer be its family's best point, and
the search is replayed over the measured iteration counts.

Runs are seeded and single-threaded per cell; cells are independent jobs
executed by a worker pool bounded by the LOCALSGD_THREADS environment
variable.  Output bytes depend only on the config.
"""

from __future__ import annotations

import configparser
import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product
from math import ceil, inf, isfinite, log2, sqrt
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .data import parse_libsvm
from .lemmas import LEMMA_DEFAULTS, LEMMA_HEADER, lemma_suite, validate_fixture
from .objectives import (
    LogisticObjective,
    QuadraticObjective,
    ReferenceSolution,
    make_quadratic,
)
from .schedules import ConstantStep, ExperimentDecayStep, regular_sync_schedule
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
        for name, values in (("eps", self.eps_list), ("K", self.K_list),
                             ("H", self.H_list), ("b", self.b_list)):
            if not values:
                raise ConfigError(f"sweep list {name!r} must be nonempty")
        # frozen all the way down, so that no list or keyword changed in
        # place bypasses the checks below
        for name in ("eps_list", "K_list", "H_list", "b_list"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "lemmas", MappingProxyType(dict(self.lemmas)))
        if not all(isfinite(e) and e > 0 for e in self.eps_list):
            raise ConfigError("eps values must be positive and finite")
        if any(v < 1 for v in self.K_list + self.H_list + self.b_list):
            raise ConfigError("K, H and b values must be >= 1")
        try:
            check_cost_ratio(self.rho)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if self.seed < 0:
            raise ConfigError(f"[run] seed must be >= 0, got {self.seed}")
        if self.epoch_cap < 1:
            raise ConfigError("epoch_cap must be >= 1")
        if self.i_min > self.i_max:
            raise ConfigError("grid window is empty (i_min > i_max)")
        if self.i_min < _GRID_MIN or self.i_max > _GRID_MAX:
            raise ConfigError(f"grid window [{self.i_min}, {self.i_max}] must lie within "
                              f"[{_GRID_MIN}, {_GRID_MAX}], where every c = 2^i is "
                              f"positive and finite")
        try:
            validate_fixture({**LEMMA_DEFAULTS, **self.lemmas})
        except ValueError as exc:
            raise ConfigError(f"lemmas.{exc}")
        if not self.out_dir:
            raise ConfigError("[output] dir must not be empty")


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
    and so is a [dataset] key that its kind does not read.
    """
    # no section is special, so [DEFAULT] is checked like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       default_section="")
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {str(path)!r} is not UTF-8 text: {exc}") from None

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
    kind = dataset.get("kind", "")
    if kind not in _DATASET_KEYS:
        raise ConfigError(f"dataset.kind must be libsvm or quadratic, got {kind!r}")
    for key in parser["dataset"]:
        if key not in _DATASET_KEYS[kind]:
            raise ConfigError(f"key {key!r} in [dataset] does not apply to kind {kind}")
    if kind == "libsvm" and not dataset.get("path"):
        raise ConfigError("dataset.path is required for libsvm datasets")
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
    A value the objective or the reference solve rejects, and a tolerance
    the solve cannot reach, raise a ConfigError naming [dataset], and so
    does a dataset file that cannot be read as UTF-8 text.
    """
    if spec.kind == "libsvm":
        try:
            with open(spec.path, "r", encoding="utf-8") as fh:
                dataset = parse_libsvm(fh, declared_dimension=spec.dimension)
        except OSError as exc:  # a missing file, a directory, no permission
            raise ConfigError(str(exc)) from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"dataset {spec.path!r} is not UTF-8 text: {exc}") from None
    try:
        if spec.kind == "quadratic":
            objective, reference, _ = make_quadratic(
                spec.d, spec.mu, spec.L, spec.n, spec.noise, spec.seed
            )
        else:
            objective, reference = LogisticObjective(dataset, lam=spec.lam), None
        if spec.f_star is not None:
            x_ref = reference.x_star if reference is not None else np.zeros(objective.d)
            reference = ReferenceSolution(x_star=x_ref, f_star=spec.f_star,
                                          provenance="numeric")
        elif reference is None:
            reference = reference_for(objective, tolerance=spec.fstar_tolerance)
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
    if not (isfinite(tolerance) and tolerance > 0.0):
        raise ValueError(f"reference tolerance must be finite and positive, got {tolerance}")
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
    return ConstantStep(c=c)


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

    One seeded run, stopped at the first qualifying evaluation point
    (function values are checked at every synchronization index plus a
    fixed subsampling stride).  A run that diverges never qualifies.  The
    run records no function values, so `sync._simulate` screens its
    checks: one that convexity proves cannot reach eps is skipped, and t*
    is the same as with every value computed.
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
    then the choice between families of `replay_grid`.  The search runs
    in rounds: each round is one batch of seeded runs on the cell seed,
    one per point that either family's search visits next, and a run
    leaves the batch once it is eps-accurate, diverges, or can no longer
    be its family's best point.  Returns (family, c, iterations), with
    (None, None, None) when no stepsize in the window reaches eps.  The
    winner is measured again from scratch as a single run and must
    reproduce its count.
    """
    measured = {family: {} for family in FAMILIES}
    while points := _next_points(measured, i_min, i_max):
        _search_round(objective, f_star, K, H, b, eps, seed, step_cap,
                      measured, points)
    family, c, t_star = replay_grid(measured, i_min, i_max)
    if family is None:
        return None, None, None

    # guard against state leakage: the winner must reproduce from scratch
    confirm = measure_iterations(objective, f_star, K, H, b, eps, seed,
                                 step_cap, family, c)
    if confirm != t_star:
        raise RuntimeError(
            f"grid-search winner did not reproduce: {t_star} vs {confirm}"
        )
    return family, c, t_star


def _next_points(measured, i_min, i_max):
    """The (family, i) points both families' searches visit next."""
    points = []
    for family, lookup in measured.items():
        outcome = replay_search(lookup, i_min, i_max)
        if isinstance(outcome, set):
            points += [(family, i) for i in sorted(outcome)]
    return points


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


def _search_round(objective, f_star, K, H, b, eps, seed, step_cap, measured, points):
    """Measure `points`, (family, i) pairs, as one batch into `measured`.

    The loop stops a run where it reaches eps, which gives its t*, or at
    its `_drop_limits` step, and then it reads None.
    """
    steps = [_family_steps(family, 2.0**i, objective.n) for family, i in points]
    config = _cell_config(objective, K, H, b, seed, step_cap, steps[0])
    result = _simulate(config, objective, [seed] * len(points), steps=steps,
                       target=(eps, f_star),
                       limits=lambda crossed: _drop_limits(measured, points, crossed))
    for (family, i), t_star in zip(points, result.crossed):
        measured[family][i] = int(t_star) if t_star >= 0 else None


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


def _sweep_cell(cell, objective=None):
    """One sweep cell; top-level so worker pools can pickle it.

    `cell` is (f_star, eps, K, H, b, seed, step_cap, rho, i_min, i_max).
    Without `objective`, the cell runs on the pool worker's objective.
    """
    f_star, eps, K, H, b, seed, step_cap, rho, i_min, i_max = cell
    family, c, t_star = grid_search_stepsize(
        _pool_objective if objective is None else objective,
        f_star, K, H, b, eps, seed, step_cap, i_min, i_max,
    )
    return ResultRow(K=K, H=H, b=b, eps=eps, family=family, c=c, iterations=t_star,
                     rho=rho)


def _pool_size():
    raw = os.environ.get("LOCALSGD_THREADS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigError(f"LOCALSGD_THREADS must be an integer, got {raw!r}")
    return min(os.cpu_count() or 1, 4)


def with_output_dir(config, out_dir):
    """`config` with `out_dir`, unless None, as its [output] dir and checked as that key
    is: the one rule for where `run_experiment` and `verify_lemmas` write."""
    return config if out_dir is None else replace(config, out_dir=str(out_dir))


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


def run_experiment(config: ExperimentConfig, out_dir=None):
    """Execute the full sweep; returns (rows, exit_code) and writes outputs.

    Exit code 0 on success, 2 when some cells never reached their target
    accuracy within the step cap (those rows are marked unreachable).
    """
    config = with_output_dir(config, out_dir)
    objective, reference = build_problem(config.dataset)
    workers = _pool_size()
    out = _output_dir(config)
    grid = product(config.eps_list, config.K_list, config.H_list, config.b_list)
    cells = [
        (reference.f_star, eps, K, H, b, _cell_seed(config.seed, index),
         max(H, ceil(config.epoch_cap * objective.n / (K * b))),
         config.rho, config.i_min, config.i_max)
        for index, (eps, K, H, b) in enumerate(grid)
    ]

    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_set_pool_objective,
                                 initargs=(objective,)) as pool:
            rows = list(pool.map(_sweep_cell, cells))
    else:
        rows = [_sweep_cell(cell, objective) for cell in cells]

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


def verify_lemmas(config: ExperimentConfig, out_dir=None):
    """Run the five inequality checks of `lemmas.lemma_suite` on the configured fixture.

    Returns the list of CheckReports and writes lemma_checks.csv; check
    parameters come from the [lemmas] section (with defaults matching the
    standard fixtures).
    """
    config = with_output_dir(config, out_dir)
    objective, reference = build_problem(config.dataset)
    out = _output_dir(config)
    reports = lemma_suite(objective, reference, **config.lemmas)
    _write_csv(out / "lemma_checks.csv", LEMMA_HEADER,
               [report.csv_fields() for report in reports])
    return reports
