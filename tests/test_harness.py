import csv
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from localsgd import Dataset, LogisticObjective, QuadraticObjective, make_quadratic, speedup
from localsgd import harness
from localsgd.cli import main
from localsgd.harness import (
    FAMILIES,
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    build_problem,
    grid_search_stepsize,
    load_experiment_config,
    measure_iterations,
    reference_for,
    replay_grid,
    replay_search,
    run_experiment,
    verify_lemmas,
)
from localsgd.harness import (
    _CellSearch,
    _cell_config,
    _drop_limits,
    _family_steps,
    _pool_jobs,
    _search_cells,
    _search_rounds,
)
from localsgd.schedules import ConstantStep, regular_sync_schedule
from localsgd.sync import RecordFlags, RunConfig, _simulate, run_local_sgd
from oracles import (GradientCounter, accelerated_reference, needed_by_comparison, random_cells,
                     random_groups)

DATA = Path(__file__).parent / "data"


def quad_spec(**overrides):
    spec = DatasetSpec(kind="quadratic", d=6, mu=1.0, L=4.0, n=32, noise=0.5, seed=7)
    return replace(spec, **overrides)


def small_config(tmp_path, **overrides):
    defaults = dict(
        dataset=quad_spec(),
        eps_list=[0.05],
        K_list=[1, 2],
        H_list=[1, 4],
        b_list=[1],
        rho=25.0,
        seed=1,
        epoch_cap=50,
        out_dir=str(tmp_path / "out"),
        svg=True,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def write_config(tmp_path, body):
    path = tmp_path / "exp.ini"
    path.write_text(body, encoding="utf-8")
    return path


def test_config_parse_and_errors(tmp_path):
    good = write_config(tmp_path, """
[dataset]
kind = quadratic
d = 5
mu = 1.0
L = 2.0
n = 16
noise = 0.1
seed = 3

[sweep]
eps = 0.1, 0.01
K = 1, 2
H = 1
b = 1

[cost]
rho = 30

[output]
dir = somewhere
""")
    cfg = load_experiment_config(good)
    assert cfg.eps_list == (0.1, 0.01)
    assert cfg.rho == 30.0
    assert cfg.dataset.d == 5

    with pytest.raises(ConfigError, match="dataset"):
        load_experiment_config(write_config(tmp_path, "[sweep]\neps = 1\nK = 1\nH = 1\nb = 1\n"))
    # the kind and the path are checked where a spec built in Python is checked too
    bogus = load_experiment_config(write_config(
        tmp_path, "[dataset]\nkind = bogus\n\n[sweep]\neps = 1\nK = 1\nH = 1\nb = 1\n"))
    with pytest.raises(ConfigError, match="^dataset.kind must be libsvm or quadratic, got 'bogus"):
        build_problem(bogus.dataset)
    with pytest.raises(ConfigError, match="sweep.K"):
        load_experiment_config(write_config(tmp_path, "[dataset]\nkind = quadratic\n\n[sweep]\neps = 1\nH = 1\nb = 1\n"))
    no_path = load_experiment_config(write_config(
        tmp_path, "[dataset]\nkind = libsvm\n\n[sweep]\neps = 1\nK = 1\nH = 1\nb = 1\n"))
    with pytest.raises(ConfigError, match="^dataset.path is required for libsvm datasets$"):
        build_problem(no_path.dataset)
    with pytest.raises(ConfigError):
        load_experiment_config(tmp_path / "missing.ini")


LEMMAS_OK = {"runs": 2, "trials": 100, "K": 1, "H": 4, "T": 4, "b": 1, "tau": 0, "seed": 0}


@pytest.mark.parametrize("field, value", [
    ("runs", 1), ("trials", 99), ("K", 0), ("H", 0), ("T", 0), ("b", 0), ("tau", -1),
    ("seed", -1), ("H", 5),  # H > T
])
def test_lemmas_section_validation(tmp_path, field, value):
    lemmas = {**LEMMAS_OK, field: value}
    body = "[dataset]\nkind = quadratic\n\n[sweep]\neps = 1\nK = 1\nH = 1\nb = 1\n\n[lemmas]\n"
    body += "".join(f"{key} = {v}\n" for key, v in lemmas.items())
    with pytest.raises(ConfigError, match=f"lemmas.{field}"):
        load_experiment_config(write_config(tmp_path, body))
    # the boundary values themselves are accepted
    body_ok = body.replace(f"{field} = {value}", f"{field} = {LEMMAS_OK[field]}")
    assert load_experiment_config(write_config(tmp_path, body_ok)).lemmas["runs"] == 2


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="eps"):
        small_config(tmp_path, eps_list=[-0.1])
    with pytest.raises(ConfigError, match="nonempty"):
        small_config(tmp_path, K_list=[])
    with pytest.raises(ConfigError, match="rho"):
        small_config(tmp_path, rho=0.5)


@pytest.mark.parametrize("field, overrides", [
    ("eps", {"eps_list": [0.05, float("nan")]}),
    ("rho", {"rho": float("nan")}),
    ("rho", {"rho": float("inf")}),
])
def test_experiment_config_rejects_non_finite_values(tmp_path, field, overrides):
    with pytest.raises(ConfigError, match=field):
        small_config(tmp_path, **overrides)


@pytest.mark.parametrize("overrides, error", [
    ({"K_list": [1, 0]}, "K must be an integer >= 1, got 0"),
    ({"H_list": [0]}, "H must be an integer >= 1, got 0"),
    ({"b_list": [0]}, "b must be an integer >= 1, got 0"),
    ({"epoch_cap": 0}, "epoch_cap must be an integer >= 1, got 0"),
    ({"i_min": 3, "i_max": 2}, "grid window is empty (i_min > i_max)"),
    ({"seed": -1}, "[run] seed must be an integer >= 0, got -1"),
    ({"out_dir": ""}, "[output] dir must not be empty"),
    ({"K_list": [2.5]}, "K must be an integer >= 1, got 2.5"),
    ({"H_list": [True]}, "H must be an integer >= 1, got True"),
    ({"b_list": [1, 2.0]}, "b must be an integer >= 1, got 2.0"),
    ({"seed": 1.5}, "[run] seed must be an integer >= 0, got 1.5"),
    ({"epoch_cap": 1.5}, "epoch_cap must be an integer >= 1, got 1.5"),
    ({"i_min": -2.5}, "i_min must be an integer >= -1074, got -2.5"),
    ({"i_max": False}, "i_max must be an integer >= -1074, got False"),
    ({"eps_list": [True]}, "eps must be finite and positive, got True"),
    ({"rho": True}, "cost ratio rho must be finite and >= 1, got True"),
    ({"K_list": ["2"]}, "K must be an integer >= 1, got '2'"),
    ({"eps_list": ["0.1"]}, "eps must be finite and positive, got '0.1'"),
    ({"i_min": "a"}, "i_min must be an integer >= -1074, got 'a'"),
    ({"i_max": None}, "i_max must be an integer >= -1074, got None"),
    ({"i_min": "z", "i_max": "a"}, "i_min must be an integer >= -1074, got 'z'"),
    ({"eps_list": [0.1, 10**400]}, f"eps must be finite and positive, got {10**400}"),
    ({"rho": 10**400}, f"cost ratio rho must be finite and >= 1, got {10**400}"),
    ({"svg": "no"}, "[output] svg must be a bool, got 'no'"),
    ({"svg": 1}, "[output] svg must be a bool, got 1"),
], ids=["K", "H", "b", "epoch_cap", "grid", "seed", "out_dir", "K-float", "H-bool",
        "b-float", "seed-float", "epoch_cap-float", "i_min-float", "i_max-bool", "eps-bool",
        "rho-bool", "K-text", "eps-text", "i_min-text", "i_max-none", "grid-text",
        "eps-huge-int", "rho-huge-int", "svg-text", "svg-int"])
def test_experiment_config_rejects_values_out_of_range(tmp_path, overrides, error):
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
        small_config(tmp_path, **overrides)


SYNTH50 = str(DATA / "synth50.libsvm")


@pytest.mark.parametrize("command", [run_experiment, verify_lemmas])
@pytest.mark.parametrize("overrides, error", [
    ({"dataset": DatasetSpec(kind="libsvm", path=SYNTH50, fstar_tolerance=True)},
     "bad value in [dataset]: reference tolerance must be finite and positive, got True"),
    ({"dataset": DatasetSpec(kind="libsvm", path=SYNTH50, lam=True)},
     "bad value in [dataset]: regularization must be finite and nonnegative, got True"),
    ({"dataset": quad_spec(d=2.5)}, "bad value in [dataset]: d must be an integer >= 1, got 2.5"),
    ({"dataset": quad_spec(n=True)},
     "bad value in [dataset]: n must be an integer >= 1, got True"),
    ({"dataset": quad_spec(seed=1.5)},
     "bad value in [dataset]: seed must be an integer >= 0, got 1.5"),
    ({"lemmas": {"runs": 2.5}}, "lemmas.runs must be an integer >= 2, got 2.5"),
    ({"lemmas": {"bogus": 1}}, "unknown key 'bogus' in [lemmas]"),
    ({"dataset": quad_spec(kind="bogus")},
     "dataset.kind must be libsvm or quadratic, got 'bogus'"),
    ({"dataset": DatasetSpec(kind="libsvm")}, "dataset.path is required for libsvm datasets"),
    ({"dataset": quad_spec(f_star=float("nan"))},
     "bad value in [dataset]: f_star must be finite, got nan"),
    ({"dataset": DatasetSpec(kind="libsvm", path=SYNTH50, f_star="0.5")},
     "bad value in [dataset]: f_star must be finite, got '0.5'"),
    ({"dataset": DatasetSpec(kind="libsvm", path=SYNTH50, dimension=300.0)},
     "bad value in [dataset]: dimension must be an integer >= 1, got 300.0"),
    ({"dataset": DatasetSpec(kind="libsvm", path=SYNTH50, dimension=2.5)},
     "bad value in [dataset]: dimension must be an integer >= 1, got 2.5"),
], ids=["fstar_tolerance-bool", "lam-bool", "d-float", "n-bool", "seed-float",
        "lemmas-runs-float", "lemmas-unknown-key", "kind", "no-path", "f_star-nan", "f_star-text", "dimension-float",
        "dimension-fraction"])
def test_a_bad_value_is_a_config_error_before_any_directory(tmp_path, command, overrides,
                                                            error):
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
        command(small_config(tmp_path, **overrides))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("i_min, i_max, accepted", [
    (-1074, 20, True), (-1075, 20, False), (-1080, 20, False),
    (-20, 1023, True), (-20, 1024, False), (-20, 1030, False),
])
def test_grid_window_keeps_every_stepsize_positive_and_finite(tmp_path, i_min, i_max,
                                                              accepted):
    if accepted:
        small_config(tmp_path, i_min=i_min, i_max=i_max)
    else:
        with pytest.raises(ConfigError, match="grid window"):
            small_config(tmp_path, i_min=i_min, i_max=i_max)


@pytest.mark.parametrize("i_min, i_max", [(1, 0), (0.5, 20), (-2000, 20), (-20, 1024),
                                          (-20, True)],
                         ids=["empty", "i_min-float", "below", "above", "i_max-bool"])
def test_grid_search_rejects_the_windows_the_config_rejects(tmp_path, quad10, i_min, i_max):
    # with the config's own message and before any run: an empty window is
    # not an unreachable cell, and no c = 2^i outside the floats is tried
    with pytest.raises(ConfigError) as rejected:
        small_config(tmp_path, i_min=i_min, i_max=i_max)
    obj, ref, _ = quad10
    counter = GradientCounter(obj)
    with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
        grid_search_stepsize(counter, ref.f_star, 2, 2, 1, 0.05, 3, 50, i_min=i_min, i_max=i_max)
    assert not counter.counts


def test_config_without_optional_sections_takes_the_dataclass_defaults(tmp_path):
    cfg = load_experiment_config(write_config(
        tmp_path, "[dataset]\nkind = quadratic\n\n[sweep]\neps = 0.1\nK = 1\nH = 1\nb = 1\n"))
    assert cfg == ExperimentConfig(dataset=DatasetSpec(kind="quadratic"), eps_list=[0.1],
                                   K_list=[1], H_list=[1], b_list=[1])


def test_reference_for_quadratic_is_analytic():
    obj, ref, _ = make_quadratic(d=1, mu=2.0, L=2.0, n=1, noise=0.0, seed=0)
    got = reference_for(obj)
    assert got.provenance == "analytic"
    assert got.x_star[0] == pytest.approx(obj.b_mean[0] / 2.0)
    assert got.f_star == pytest.approx(ref.f_star)


def test_compute_reference_fstar_on_fixture(synth50):
    obj = LogisticObjective(synth50)
    reference = reference_for(obj, tolerance=1e-8)
    assert reference.provenance == "numeric"
    grad_norm = np.linalg.norm(obj.gradient(reference.x_star))
    assert grad_norm <= 1e-8
    # the optimum improves on the start and on a few random points
    assert reference.f_star < obj.value(np.zeros(obj.d))
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert reference.f_star <= obj.value(rng.standard_normal(obj.d))


def test_compute_reference_fstar_nonconvergence(monkeypatch, synth50):
    monkeypatch.setattr(harness, "_MAX_NEWTON_ITERS", 1)
    with pytest.raises(RuntimeError, match="did not reach .* of at most 1 Newton"):
        reference_for(LogisticObjective(synth50), tolerance=1e-14)


def _nan_off_zero(monkeypatch):
    """Make every logistic value NaN except at x = 0."""
    values = LogisticObjective._values

    def nan_off_zero(self, X, m=None):
        return np.where(np.any(X != 0.0, axis=-1), np.nan, values(self, X, m))
    monkeypatch.setattr(LogisticObjective, "_values", nan_off_zero)


def test_reference_solve_halves_past_a_non_finite_value(monkeypatch, synth50):
    # every trial step reads NaN, fails the Armijo test and is halved until
    # the halvings run out
    _nan_off_zero(monkeypatch)
    with pytest.raises(RuntimeError, match="did not reach .* after 0 of at most"):
        reference_for(LogisticObjective(synth50))


def random_sparse_logistic(n=3000, d=60, density=0.08, seed=17):
    """A seeded sparse logistic problem whose labels depend on the features."""
    rng = np.random.default_rng(seed)
    features = sp.random(n, d, density=density, format="csr", random_state=rng)
    scores = features @ rng.standard_normal(d) + 0.5 * rng.standard_normal(n)
    labels = np.where(scores > np.median(scores), 1.0, -1.0)
    return LogisticObjective(Dataset(labels=labels, features=features))


@pytest.mark.parametrize("tolerance", [1e-4, 1e-8, 1e-10])
@pytest.mark.parametrize("problem", ["synth50", "random-sparse"])
def test_newton_reference_matches_accelerated_descent(synth50, problem, tolerance):
    obj = LogisticObjective(synth50) if problem == "synth50" else random_sparse_logistic()
    newton = reference_for(obj, tolerance=tolerance)
    first_order = accelerated_reference(obj, tolerance=tolerance)
    assert np.linalg.norm(obj.gradient(newton.x_star)) <= tolerance
    assert newton.f_star == obj.value(newton.x_star)
    # both values lie within tol^2 / (2 lam) above f*, up to the rounding
    # of the values themselves
    gap = tolerance**2 / (2.0 * obj.lam) + 4 * np.spacing(first_order.f_star)
    assert abs(newton.f_star - first_order.f_star) <= gap


def test_reference_below_the_rounding_floor_fails_fast(synth50):
    obj = LogisticObjective(synth50)
    calls = []
    gradient = obj.gradient
    obj.gradient = lambda x: calls.append(1) or gradient(x)
    with pytest.raises(RuntimeError, match="did not reach"):
        reference_for(obj, tolerance=1e-300)
    assert len(calls) < 50


@pytest.mark.parametrize("tolerance", [0.0, -1e-8, float("nan"), float("inf")])
def test_reference_rejects_a_bad_tolerance(synth50, tolerance):
    with pytest.raises(ValueError, match="tolerance"):
        reference_for(LogisticObjective(synth50), tolerance=tolerance)


def test_grid_search_finds_deterministic_optimum():
    # noiseless 1-d quadratic with mu = L = 1: plain gradient descent with
    # eta = 1 converges in one step, so the best constant step is 32c = 1
    obj, ref, _ = make_quadratic(d=1, mu=1.0, L=1.0, n=1, noise=0.0, seed=2)
    family, c, t_star = grid_search_stepsize(
        obj, ref.f_star, K=1, H=1, b=1, eps=1e-10, seed=0, step_cap=400,
    )
    assert t_star is not None
    chosen_eta = 32.0 * c if family == "constant" else min(32.0, c * obj.n)
    assert 0.5 <= chosen_eta <= 2.0  # within one grid notch of the optimum


def test_grid_search_exhaustive_scan_oracle():
    obj, ref, _ = make_quadratic(d=4, mu=1.0, L=4.0, n=16, noise=0.2, seed=11)
    K, H, b, eps, seed, cap = 2, 2, 1, 0.01, 3, 2000
    family, c, t_star = grid_search_stepsize(
        obj, ref.f_star, K, H, b, eps, seed, cap, i_min=-12, i_max=6
    )
    # oracle: evaluate every grid point of both families
    best = None
    for fam in ("decaying", "constant"):
        for i in range(-12, 7):
            t = measure_iterations(obj, ref.f_star, K, H, b, eps, seed, cap,
                                   fam, 2.0**i)
            if t is None:
                continue
            key = (t, 2.0**i, fam != "decaying")
            if best is None or key < best[0]:
                best = (key, fam, 2.0**i, t)
    assert best is not None
    _, fam_star, c_star, t_oracle = best
    assert t_star == t_oracle
    assert (family, c) == (fam_star, c_star)


def test_grid_search_trivial_accuracy_tie_break():
    obj, ref, _ = make_quadratic(d=3, mu=1.0, L=2.0, n=8, noise=0.1, seed=4)
    f0 = obj.value(np.zeros(3))
    family, c, t_star = grid_search_stepsize(
        obj, ref.f_star, K=1, H=1, b=1, eps=2.0 * (f0 - ref.f_star) + 1.0,
        seed=0, step_cap=50, i_min=-6, i_max=6,
    )
    assert t_star == 0
    assert family == "decaying"
    assert c == 2.0**-6  # smallest c in the window


def sequential_search(measure, i_min, i_max):
    """The stepsize search as it measured one grid point at a time.

    `measure(family, i)` gives t* of c = 2^i or None.  Kept verbatim in
    spirit from the one-run-per-point search as an oracle for the replay.
    """

    def search_family(family):
        results = {}

        def visit(i):
            if i not in results:
                results[i] = measure(family, i)
            return results[i]

        for i in (0, -1, 1):
            if i_min <= i <= i_max:
                visit(i)
        while True:
            finite = {i: t for i, t in results.items() if t is not None}
            if not finite:
                untried = [i for i in range(i_min, i_max + 1) if i not in results]
                if not untried:
                    return None, None
                visit(min(untried, key=lambda i: (abs(i), i)))
                continue
            best_i = min(finite, key=lambda i: (finite[i], i))
            neighbors = [j for j in (best_i - 2, best_i - 1, best_i + 1, best_i + 2)
                         if i_min <= j <= i_max]
            pending = [j for j in neighbors if j not in results]
            if pending:
                for j in pending:
                    visit(j)
                continue
            if all(results[j] is None or results[j] >= finite[best_i]
                   for j in neighbors):
                return 2.0**best_i, finite[best_i]

    candidates = []
    for family in FAMILIES:
        c, t_star = search_family(family)
        if c is not None:
            candidates.append((t_star, c, family != "decaying", family))
    if not candidates:
        return None, None, None
    t_star, c, _, family = min(candidates)
    return family, c, t_star


def table_oracle(tables, i_min, i_max):
    return sequential_search(lambda family, i: tables[family][i], i_min, i_max)


def test_replay_keeps_the_local_minimum_of_the_search():
    # a valley around 0 and a deeper one at 6: the search settles in the
    # first and never looks at the second
    window = range(-8, 9)
    decaying = {i: 50 + 10 * abs(i) for i in window}
    decaying.update({5: 30, 6: 5, 7: 30})
    tables = {"decaying": decaying, "constant": {i: None for i in window}}
    assert replay_search(decaying, -8, 8) == (0, 50)
    assert replay_grid(tables, -8, 8) == ("decaying", 1.0, 50)
    assert replay_grid(tables, -8, 8) == table_oracle(tables, -8, 8)
    assert min(decaying.values()) == 5  # the global minimum is not chosen


def test_replay_of_an_unreachable_family_scans_out_from_zero():
    window = range(-5, 6)
    unreachable = {i: None for i in window}
    assert replay_search(unreachable, -5, 5) == (None, None)
    # the only reachable point is found by the outward scan
    one_point = {**unreachable, -5: 40}
    tables = {"decaying": unreachable, "constant": one_point}
    assert replay_grid(tables, -5, 5) == ("constant", 2.0**-5, 40)
    assert replay_grid(tables, -5, 5) == table_oracle(tables, -5, 5)
    assert replay_grid({"decaying": unreachable, "constant": unreachable}, -5, 5) \
        == (None, None, None)


def test_replay_breaks_ties_toward_small_c_then_decaying():
    window = range(-4, 5)
    flat = {i: 17 for i in window}
    assert replay_search(flat, -4, 4) == (-4, 17)  # ties walk down to the edge
    tables = {"decaying": dict(flat), "constant": dict(flat)}
    assert replay_grid(tables, -4, 4) == ("decaying", 2.0**-4, 17)
    assert replay_grid(tables, -4, 4) == table_oracle(tables, -4, 4)
    # a smaller c wins across families at equal t*
    tables["constant"][-4] = 17
    tables["decaying"] = {i: 17 if i >= -1 else 30 for i in window}
    assert replay_grid(tables, -4, 4) == table_oracle(tables, -4, 4)
    assert replay_grid(tables, -4, 4)[0] == "constant"


def test_replay_of_a_window_without_zero():
    window = range(2, 9)
    rising = {i: 10 * i + 5 for i in window}
    assert replay_search(rising, 2, 8) == (2, 25)
    falling = {i: 100 - 10 * i for i in window}
    tables = {"decaying": rising, "constant": falling}
    assert replay_grid(tables, 2, 8) == ("constant", 2.0**8, 20)
    assert replay_grid(tables, 2, 8) == table_oracle(tables, 2, 8)
    below = {i: 3 for i in range(-9, -2)}
    assert replay_search(below, -9, -3) == (-9, 3)  # starts at -3, ties walk down
    assert replay_grid({"decaying": below, "constant": below}, -9, -3) == \
        table_oracle({"decaying": below, "constant": below}, -9, -3)


def test_replay_asks_for_the_points_it_visits_next():
    assert replay_search({}, -20, 20) == {-1, 0, 1}
    assert replay_search({}, 3, 9) == {3}
    lookup = {0: None, -1: None, 1: None}
    assert replay_search(lookup, -20, 20) == {-2}
    lookup[-2] = 30
    assert replay_search(lookup, -20, 20) == {-4, -3}
    lookup.update({-4: 20, -3: 25})
    assert replay_search(lookup, -20, 20) == {-6, -5}
    # decided once the best point's neighbours are measured; the rest of
    # the window stays unmeasured
    assert replay_search({0: 40, -1: None, 1: None, -2: 50, 2: None}, -20, 20) == (0, 40)
    with pytest.raises(ValueError, match="decaying table lacks the points \\[-6, -5\\]"):
        replay_grid({"decaying": lookup, "constant": {}}, -20, 20)


def rounds_over_tables(tables, i_min, i_max, horizon, max_runs):
    """The rounds of `_search_rounds` over known t*, evaluating at every
    step: one search per table in `tables`, run in lockstep.

    Its `measure` is a per-step model of the loop's rule: a run stops
    where it reaches its t*, or from the step `limits` gives it, read
    before the first step and at each step where some run crossed, and
    then reads None.  Returns each search's answer and the (search,
    point) runs measured.
    """
    runs = []

    def measure(batch, limits):
        runs.extend(batch)
        truth = np.array([-1 if tables[k][f][i] is None else tables[k][f][i]
                          for k, (f, i) in batch])
        crossed = np.full(len(batch), -1)
        frozen = np.zeros(len(batch), dtype=bool)
        limit = limits(crossed)
        for now in range(horizon + 1):
            hit = ~frozen & (truth == now)
            crossed[hit] = now
            if hit.any():
                limit = limits(crossed)
            frozen |= hit | ~(now < limit)
            if frozen.all():
                break
        return crossed
    searches = [_CellSearch(i_min, i_max, max_runs) for _ in tables]
    _search_rounds(measure, searches)
    return [replay_grid(search.measured, i_min, i_max) for search in searches], runs


def test_needed_drops_runs_that_cannot_be_the_best_point():
    points = [("decaying", -2), ("decaying", 2), ("constant", 0)]
    earlier = {"decaying": {0: 40, -1: None, 1: None}, "constant": {}}
    none = np.full(3, -1)

    def needed(measured, points, t, crossed):
        return t < _drop_limits(measured, points, crossed)

    # -2 can still tie 0 at step 40 with a smaller c; 2 cannot
    assert needed(earlier, points, 38, none).tolist() == [True, True, True]
    assert needed(earlier, points, 39, none).tolist() == [True, False, True]
    assert needed(earlier, points, 40, none).tolist() == [False, False, True]
    # once a point of the round reaches eps, its family's other runs end
    assert needed(earlier, points, 20, np.array([-1, 15, -1])).tolist() == \
        [False, False, True]
    # with nothing reached yet every run of the family is needed
    unreached = {"decaying": {0: None}, "constant": {0: None}}
    assert needed(unreached, points, 10**6, none).all()


def test_drop_limits_equal_the_needed_comparison_on_random_tables():
    rng = np.random.default_rng(5)
    for _ in range(300):
        measured = {family: {int(i): (None if rng.random() < 0.3 else int(rng.integers(1, 60)))
                             for i in rng.choice(np.arange(-6, 7), size=rng.integers(0, 6),
                                                 replace=False)}
                    for family in ("decaying", "constant")}
        points = [(str(rng.choice(["decaying", "constant"])), int(rng.integers(-8, 9)))
                  for _ in range(rng.integers(1, 7))]
        crossed = np.where(rng.random(len(points)) < 0.4,
                           rng.integers(0, 60, size=len(points)), -1)
        limits = _drop_limits(measured, points, crossed)
        for t in range(70):
            expected = needed_by_comparison(measured, points, t, crossed)
            assert (t < limits).tolist() == expected.tolist()


def test_cell_search_keeps_speculative_crossings_out_of_drops_and_tables():
    # the first round on the window [-4, 4] with room for 8 runs: the six
    # needed points of both families, then the two likeliest speculative ones
    search = _CellSearch(-4, 4, 8)
    needed = [(family, i) for family in FAMILIES for i in (-1, 0, 1)]
    assert search.next_round() == needed + [("decaying", -2), ("constant", -2)]
    assert search.spare == [False] * 6 + [True] * 2
    # the speculative decaying -2 crosses first, at step 3: read as -1, it
    # drops no needed run, where read as a crossing it would end decaying's
    early = np.array([-1, -1, -1, -1, -1, -1, 3, -1])
    assert np.isinf(search.limits(early)).all()
    assert _drop_limits(search.measured, search.points, early)[:3].tolist() == [2, 2, 2]
    # a needed crossing, decaying 0 at step 10, drops decaying's runs
    assert search.limits(np.array([-1, 10, -1, -1, -1, -1, 3, -1])).tolist() == \
        [10, 9, 9, np.inf, np.inf, np.inf, 10, np.inf]
    # needed outcomes go to the tables, speculative ones to the cache
    search.record(np.array([-1, 10, 12, -1, -1, 20, 3, -1]))
    assert search.measured == {"decaying": {-1: None, 0: 10, 1: 12},
                               "constant": {-1: None, 0: None, 1: 20}}
    assert search.cache == {"decaying": {-2: 3}, "constant": {-2: None}}
    # decaying visits -2 next: its cached t* enters the table and does not run
    points = search.next_round()
    assert search.measured["decaying"][-2] == 3 and search.cache["decaying"] == {}
    assert ("decaying", -2) not in points and points[0] == ("decaying", 2)


def test_cell_search_visits_a_cached_point_without_running_it():
    # decaying is decided at -1; constant's last visit, 1, waits in the cache
    search = _CellSearch(-1, 1, 4)
    search.measured = {"decaying": {-1: 4, 0: 5, 1: 6}, "constant": {-1: None, 0: None}}
    search.cache = {"decaying": {}, "constant": {1: None}}
    _search_rounds(lambda batch, limits: pytest.fail(f"ran {batch}"), [search])
    assert search.measured["constant"] == {-1: None, 0: None, 1: None}
    assert search.cache == {"decaying": {}, "constant": {}}
    # both families are done: the search has no round left
    assert search.next_round() == [] and search.spare == []
    assert replay_grid(search.measured, -1, 1) == ("decaying", 0.5, 4)


def one_point_rounds(objective, K, H, eps, seed, cap, i_min, i_max):
    """The grid search's rounds without speculative points, on the cell seed.

    Each round runs the points of a `_CellSearch` with no room to speculate
    through `_simulate`, with its `limits`.  Returns, per round, its
    EnsembleResult and the number of runs crossed at each `limits` read.
    """
    f_star = reference_for(objective).f_star
    search = _CellSearch(i_min, i_max, 0)
    rounds = []
    while points := search.next_round():
        runs = [RunConfig(K=K, T=cap, b=1, sync=regular_sync_schedule(cap, H),
                          steps=_family_steps(family, 2.0**i, objective.n), seed=seed,
                          x0=np.zeros(objective.d),
                          record=RecordFlags(virtual=False, f_values=False))
                for family, i in points]
        seen = []

        def counted(crossed):
            seen.append(int(np.count_nonzero(crossed >= 0)))
            return search.limits(crossed)
        result = _simulate(runs, objective, target=(eps, f_star), limits=counted)
        rounds.append((result, seen))
        search.record(result.crossed)
    return rounds


def test_grid_rounds_screen_and_evaluate_the_same_points(logistic50):
    # the counts and crossings of every one-point-at-a-time round of three
    # fixed cells, as the engine gave them before its per-step work was
    # planned in blocks
    expected = {
        (1, 1): [(44, 956, [-1, 23, -1, -1]), (24, 172, [-1, 24]), (28, 124, [18, 18])],
        (4, 1): [(51, 173, [-1, 12, 14, -1]), (28, 64, [10, -1, 5]), (19, 85, [-1, 9, -1])],
        (4, 16): [(41, 335, [-1, 20, -1, -1]), (26, 146, [-1, 21]), (13, 35, [-1, 5])],
    }
    for (K, H), want in expected.items():
        cap = max(H, -(-2 * logistic50.n // K))
        rounds = one_point_rounds(logistic50, K, H, 0.05, 7, cap, -4, 0)
        assert [(result.points_evaluated, result.points_screened, result.crossed.tolist())
                for result, _ in rounds] == want


def test_speculative_grid_rounds_of_three_cells(monkeypatch, logistic50):
    # the rounds grid_search_stepsize runs on the cells above, speculative
    # points included: (runs, points evaluated, points screened, crossings);
    # each window of 10 points fits one round
    expected = {
        (1, 1): [(10, 108, 1432, [-1, 23, -1, -1, -1, 24, -1, 18, -1, 18])],
        (4, 1): [(10, 104, 360, [-1, 12, 14, -1, 10, 5, 9, 9, -1, 9])],
        (4, 16): [(10, 96, 640, [-1, 20, -1, -1, -1, 21, 9, 5, -1, 9])],
    }
    rounds = []

    def counted(runs, objective, **kwargs):
        result = _simulate(runs, objective, **kwargs)
        rounds.append((len(runs), result.points_evaluated, result.points_screened,
                       result.crossed.tolist()))
        return result
    f_star = reference_for(logistic50).f_star
    monkeypatch.setattr(harness, "_simulate", counted)
    for (K, H), want in expected.items():
        rounds.clear()
        cap = max(H, -(-2 * logistic50.n // K))
        grid_search_stepsize(logistic50, f_star, K, H, 1, 0.05, 7, cap, -4, 0)
        assert rounds == want, (K, H)


def test_each_batch_run_is_its_points_measure_iterations_run(monkeypatch, logistic50):
    # every run of every round, of a two-round search and of a group of two
    # cells with their own H and seed, is the config `measure_iterations`
    # runs for its (H, seed, family, c), so its t* is that run's t*
    f_star = reference_for(logistic50).f_star
    search_rounds, simulate = harness._search_rounds, harness._simulate
    batches, rounds = [], []

    def logged_rounds(measure, searches):
        def logged(batch, limits):
            batches.append(batch)
            return measure(batch, limits)
        return search_rounds(logged, searches)

    def logged_simulate(runs, objective, **kwargs):
        rounds.append(runs)
        return simulate(runs, objective, **kwargs)
    monkeypatch.setattr(harness, "_search_rounds", logged_rounds)
    monkeypatch.setattr(harness, "_simulate", logged_simulate)
    for K, cells, cap in ((1, [(1, 7)], 100), (2, [(4, 3), (16, 8)], 64)):
        batches.clear()
        rounds.clear()
        if len(cells) == 1:
            [(H, seed)] = cells
            grid_search_stepsize(logistic50, f_star, K, H, 1, 0.05, seed, cap)
        else:
            _search_cells(logistic50, f_star, K, 1, 0.05, cap, cells)
        assert len(rounds) == len(batches) > 1
        for batch, runs in zip(batches, rounds):
            assert len(runs) == len(batch)
            for (k, (family, i)), run in zip(batch, runs):
                H, seed = cells[k]
                want = _cell_config(logistic50, K, H, 1, seed, cap,
                                    _family_steps(family, 2.0**i, logistic50.n))
                for name in ("K", "T", "b", "seed", "steps", "sync", "record"):
                    assert getattr(run, name) == getattr(want, name), name
                assert np.array_equal(run.x0, want.x0)


def test_the_loop_reads_the_limits_only_where_a_run_crosses(logistic50):
    # every round of one synth50 cell: `limits` is read once before the
    # first evaluation and once at each evaluation step where some run
    # crossed, each time with more runs crossed
    crossing_steps = []
    for result, seen in one_point_rounds(logistic50, 4, 1, 0.05, 7, 50, -4, 0):
        crossed = result.crossed[result.crossed >= 0]
        assert len(seen) == 1 + len(set(crossed.tolist()))
        assert seen[0] == 0 and seen == sorted(set(seen))
        crossing_steps.append(len(set(crossed.tolist())))
    assert max(crossing_steps) >= 2


def test_replay_matches_the_sequential_search_on_random_tables():
    # the replay of a full table and the rounds of `_search_rounds`, with
    # their speculative points, cache and drops, both give the answer of
    # the one-at-a-time search; the rounds measure each point that search
    # visits exactly once, as needed or as speculative, and no point twice
    rng = np.random.default_rng(0)
    for trial in range(300):
        i_min = int(rng.integers(-8, 3))
        i_max = i_min + int(rng.integers(0, 12))
        window = range(i_min, i_max + 1)
        tables = {family: {i: (None if rng.random() < 0.35 else int(rng.integers(0, 60)))
                           for i in window} for family in FAMILIES}
        visits = set()
        oracle = sequential_search(
            lambda family, i: visits.add((family, i)) or tables[family][i], i_min, i_max)
        assert replay_grid(tables, i_min, i_max) == oracle, trial
        max_runs = trial % 24
        [answer], runs = rounds_over_tables([tables], i_min, i_max, 60, max_runs)
        runs = [point for _, point in runs]
        assert answer == oracle, trial
        assert len(set(runs)) == len(runs), trial
        assert visits <= set(runs), trial
        if max_runs == 0:  # no room to speculate: the rounds run the visits alone
            assert set(runs) == visits, trial


def test_grid_search_freezes_only_the_diverging_points(logistic50):
    # c up to 2^10 (a step of 32768) diverges on synth50; those points read
    # unreachable and the cell matches the one-point-at-a-time search
    f_star = reference_for(logistic50).f_star
    K, H, b, eps, seed, cap = 2, 2, 1, 0.05, 9, 400
    args = (logistic50, f_star, K, H, b, eps, seed, cap)
    config = RunConfig(K=K, T=cap, b=b, sync=regular_sync_schedule(cap, H),
                       steps=ConstantStep(c=2.0**10), seed=seed,
                       x0=np.zeros(logistic50.d),
                       record=RecordFlags(virtual=False, deviations=False))
    assert run_local_sgd(config, logistic50, stop_when=(eps, f_star)).diverged
    found = grid_search_stepsize(*args, i_min=-6, i_max=10)
    assert found[0] is not None
    expected = sequential_search(
        lambda family, i: measure_iterations(*args, family, 2.0**i), -6, 10)
    assert found == expected


@pytest.mark.parametrize("K, H, eps, seed, i_min, i_max", [
    (1, 1, 0.01, 4, -8, 4),
    (1, 2, 0.02, 3, -20, 20),  # a decaying winner
    (4, 8, 0.02, 2, -10, 2),
])
def test_grid_search_matches_the_one_point_at_a_time_search(logistic50, K, H, eps,
                                                            seed, i_min, i_max):
    args = (logistic50, reference_for(logistic50).f_star, K, H, 1, eps, seed, 1000)
    expected = sequential_search(
        lambda family, i: measure_iterations(*args, family, 2.0**i), i_min, i_max)
    assert grid_search_stepsize(*args, i_min=i_min, i_max=i_max) == expected


RANDOM_CELLS = 10


def grid_search_mismatches(objectives, count, seed=0):
    """The `random_cells` whose grid search differs from the search that
    measures one point at a time with `measure_iterations`, as (case,
    found, expected)."""
    mismatches = []
    for case, cell in enumerate(random_cells(objectives, count, seed)):
        args = (objectives[cell["name"]][0], *(cell[key] for key in (
            "f_star", "K", "H", "b", "eps", "seed", "step_cap")))
        window = cell["i_min"], cell["i_max"]
        expected = sequential_search(
            lambda family, i: measure_iterations(*args, family, 2.0**i), *window)
        found = grid_search_stepsize(*args, *window)
        if found != expected:
            mismatches.append((case, found, expected))
    return mismatches


def test_grid_search_matches_the_sequential_search_on_random_cells(logistic50, quad10):
    # synth50 and the d=10 quadratic, K 1-8, H 1-16, b 1-2, eps 1e-4..0.1,
    # windows within -20..20 and caps of 1-5 epochs, unreachable cells too
    objectives = {"synth50": (logistic50, reference_for(logistic50).f_star),
                  "quad10": (quad10[0], quad10[1].f_star)}
    assert grid_search_mismatches(objectives, RANDOM_CELLS) == []


def search_log(monkeypatch):
    """Log the grid search's internals: each `_search_rounds` call's
    `_CellSearch` objects (as "tables": two are equal when their tables,
    caches and rounds are) and the rounds each ran in, the runs of its
    batches that diverged, and the points each search ran speculatively,
    keyed by the id of its object."""
    log = {"tables": None, "rounds": None, "diverged": 0, "speculative": {}}
    search_rounds, simulate = harness._search_rounds, harness._simulate

    def logged_rounds(measure, searches):
        log["tables"], log["rounds"] = searches, [0] * len(searches)

        def counted(batch, limits):
            for k in {k for k, _ in batch}:
                log["rounds"][k] += 1
                log["speculative"].setdefault(id(searches[k]), set()).update(
                    point for point, spare in zip(searches[k].points, searches[k].spare)
                    if spare)
            return measure(batch, limits)
        return search_rounds(counted, searches)

    def logged_simulate(*args, **kwargs):
        result = simulate(*args, **kwargs)
        log["diverged"] += int(np.count_nonzero(result.diverged))
        return result
    monkeypatch.setattr(harness, "_search_rounds", logged_rounds)
    monkeypatch.setattr(harness, "_simulate", logged_simulate)
    return log


RANDOM_GROUPS = 6


def test_grouped_search_matches_each_cell_searched_alone(monkeypatch, logistic50, quad10):
    # groups of 2-4 cells of one (K, b, eps, step cap) with distinct H and
    # seeds, default windows: each cell's answer, t* tables and number of
    # rounds are those of its search alone, and each reachable cell's t*,
    # read off its batch, is its winner's from-scratch run.  The groups
    # include multi-round searches, unreachable cells, diverging points
    # and winners whose t* a speculative run measured
    objectives = {"synth50": (logistic50, reference_for(logistic50).f_star),
                  "quad10": (quad10[0], quad10[1].f_star)}
    log = search_log(monkeypatch)
    seen = {"multi-round": 0, "unreachable": 0, "diverged": 0, "speculative winner": 0}
    for group in random_groups(objectives, RANDOM_GROUPS, seed=3):
        objective = objectives[group["name"]][0]
        f_star, K, b, eps, cap = (group[key] for key in ("f_star", "K", "b", "eps", "step_cap"))
        log["diverged"], log["speculative"] = 0, {}
        answers = _search_cells(objective, f_star, K, b, eps, cap, group["cells"])
        tables, rounds, speculative = log["tables"], log["rounds"], log["speculative"]
        seen["diverged"] += log["diverged"] > 0
        for k, (H, seed) in enumerate(group["cells"]):
            family, c, t_star = answers[k]
            if family is not None:
                assert t_star == measure_iterations(objective, f_star, K, H, b, eps, seed,
                                                    cap, family, c), (group, k)
                seen["speculative winner"] += (
                    (family, int(np.log2(c))) in speculative[id(tables[k])])
            alone = grid_search_stepsize(objective, f_star, K, H, b, eps, seed, cap)
            assert answers[k] == alone, (group, k)
            assert (log["tables"], log["rounds"]) == ([tables[k]], [rounds[k]]), (group, k)
            seen["multi-round"] += rounds[k] > 1
            seen["unreachable"] += alone[0] is None
    assert all(seen.values()), seen


class OverflowingQuadratic(QuadraticObjective):
    """A quadratic whose value overflows to inf past |x| = 5."""

    def _values(self, X):
        return np.where(np.max(np.abs(X), axis=-1) > 5.0, np.inf, super()._values(X))


def test_a_non_finite_value_freezes_only_its_own_run():
    base, ref, _ = make_quadratic(d=3, mu=1.0, L=2.0, n=8, noise=0.5, seed=4)
    obj = OverflowingQuadratic(base.hess, base.B)
    args = (obj, ref.f_star, 2, 2, 1, 0.002, 3, 300)
    found = grid_search_stepsize(*args, i_min=-6, i_max=4)
    expected = sequential_search(
        lambda family, i: measure_iterations(*args, family, 2.0**i), -6, 4)
    assert found == expected and found[0] is not None
    # large steps leave |x| <= 5 long before 1e100: the single run is
    # marked diverged instead of raising
    config = RunConfig(K=2, T=300, b=1, sync=regular_sync_schedule(300, 2),
                       steps=ConstantStep(c=2.0**4), seed=3, x0=np.zeros(3),
                       record=RecordFlags(virtual=False, deviations=False))
    trace = run_local_sgd(config, obj, stop_when=(0.002, ref.f_star))
    assert trace.diverged and trace.t_star is None
    assert np.all(np.abs(trace.final_iterates) < 1e100)
    # in one batch, the run whose value raises diverges and the winner goes
    # on to its own t*
    family, c, t_star = found
    runs = [config, replace(config, steps=_family_steps(family, c, obj.n))]
    result = _simulate(runs, obj, target=(0.002, ref.f_star))
    assert result.diverged.tolist() == [True, False]
    assert result.crossed.tolist() == [-1, t_star]


@pytest.mark.parametrize("family", ["bogus", "Decaying"])
def test_measure_iterations_rejects_an_unknown_family(quad10, family):
    # a family that is not "decaying" is not the constant one by default
    obj, ref, _ = quad10
    counter = GradientCounter(obj)
    message = f"family must be one of ('decaying', 'constant'), got {family!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        measure_iterations(counter, ref.f_star, 1, 1, 1, 0.05, 0, 200, family, 0.125)
    assert not counter.counts


def recorded_t_star(objective, f_star, K, H, b, eps, seed, step_cap, family, c):
    """t* of `measure_iterations`' run, with every function value recorded."""
    config = RunConfig(K=K, T=step_cap, b=b, sync=regular_sync_schedule(step_cap, H),
                       steps=_family_steps(family, c, objective.n), seed=seed,
                       x0=np.zeros(objective.d))
    return run_local_sgd(config, objective, stop_when=(eps, f_star)).t_star


def assert_screening_keeps_every_t_star(objective, f_star, cells, exponents):
    """measure_iterations, a target-only run, equals the recorded run at every point."""
    outcomes = set()
    for K, H, b, eps, seed, step_cap in cells:
        for family in FAMILIES:
            for i in exponents:
                args = (objective, f_star, K, H, b, eps, seed, step_cap, family, 2.0**i)
                t_star = measure_iterations(*args)
                assert t_star == recorded_t_star(*args), (K, H, family, i)
                outcomes.add(t_star is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("H", [1, 16])
def test_screened_t_star_equals_recorded_t_star_on_synth50(logistic50, K, H):
    f_star = reference_for(logistic50).f_star
    cells = [(K, H, 1, 0.05, 21, max(H, 100 // K)), (K, H, 1, 0.01, 22, 400)]
    assert_screening_keeps_every_t_star(logistic50, f_star, cells, range(-6, 3))


def test_screened_t_star_equals_recorded_t_star_on_quad10(quad10):
    obj, ref, _ = quad10
    cells = [(K, H, 2, eps, 5, 300) for K, H in ((1, 1), (4, 8)) for eps in (0.5, 0.01)]
    assert_screening_keeps_every_t_star(obj, ref.f_star, cells, range(-8, 2))


def test_screened_t_star_equals_recorded_t_star_on_a_w8a_shaped_slice():
    # the first 2000 rows of the benchmark's generated set: sparse binary
    # features, 3% positive labels, lambda = 1/n
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    try:
        import w8a_shaped
    finally:
        sys.path.pop(0)
    labels, rows = w8a_shaped.generate_rows(801)
    labels, rows = labels[:2000].copy(), rows[:2000]
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
    features = sp.csr_matrix((np.ones(indptr[-1]), np.concatenate(rows), indptr),
                             shape=(len(rows), w8a_shaped.N_FEATURES))
    objective = LogisticObjective(Dataset(labels=labels, features=features))
    f_star = reference_for(objective).f_star
    cells = [(4, 4, 4, 0.07, 5, 250), (1, 1, 4, 0.07, 6, 150)]
    assert_screening_keeps_every_t_star(objective, f_star, cells, (-6, -3, -1, 1))


def test_a_diverging_point_reads_none_screened_and_recorded(logistic50):
    f_star = reference_for(logistic50).f_star
    args = (logistic50, f_star, 2, 2, 1, 0.05, 9, 400, "constant", 2.0**10)
    config = RunConfig(K=2, T=400, b=1, sync=regular_sync_schedule(400, 2),
                       steps=ConstantStep(c=2.0**10), seed=9, x0=np.zeros(logistic50.d))
    assert run_local_sgd(config, logistic50, stop_when=(0.05, f_star)).diverged
    assert measure_iterations(*args) is None and recorded_t_star(*args) is None


@pytest.mark.parametrize("K, H, eps, seed", [(1, 1, 0.01, 4), (4, 16, 0.05, 8)])
def test_screened_search_rounds_equal_recorded_rounds(logistic50, K, H, eps, seed):
    # every round of the grid search, screened and with every value
    # recorded, gives the same t*, the same `_drop_limits` drops (a dropped
    # run's final iterates are those of its drop step) and the same winner
    f_star = reference_for(logistic50).f_star
    i_min, i_max, cap = -8, 4, 400
    search = _CellSearch(i_min, i_max, 0)
    screened_points = 0
    while points := search.next_round():
        steps = [_family_steps(family, 2.0**i, logistic50.n) for family, i in points]
        runs = []
        for f_values in (False, True):
            record = RecordFlags(virtual=False, deviations=False, f_values=f_values)
            batch = [RunConfig(K=K, T=cap, b=1, sync=regular_sync_schedule(cap, H), steps=s,
                               seed=seed, x0=np.zeros(logistic50.d), record=record)
                     for s in steps]
            runs.append(_simulate(batch, logistic50, target=(eps, f_star),
                                  limits=search.limits))
        screened, recorded = runs
        for name in ("crossed", "diverged", "final_iterates"):
            assert np.array_equal(getattr(screened, name), getattr(recorded, name))
        screened_points += screened.points_screened
        search.record(screened.crossed)
    assert screened_points > 0
    winner = grid_search_stepsize(logistic50, f_star, K, H, 1, eps, seed, cap,
                                  i_min=i_min, i_max=i_max)
    assert replay_grid(search.measured, i_min, i_max) == winner


def test_run_experiment_outputs(tmp_path):
    config = small_config(tmp_path)
    rows, code = run_experiment(config)
    assert code == 0
    out = Path(config.out_dir)

    with open(out / "results.csv") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    assert header == ["K", "H", "b", "eps", "family", "c", "iterations",
                      "grad_evals", "comm_rounds", "wallclock", "speedup"]
    assert len(body) == len(rows) == 4
    baseline = [r for r in body if r[0] == "1" and r[1] == "1"][0]
    assert float(baseline[10]) == 1.0

    with open(out / "speedup_theory.csv") as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["K", "H", "eps", "rho", "speedup_model"]
        for K, H, eps, rho, value in reader:
            expected = speedup(int(K), int(H), float(eps), float(rho))
            assert abs(float(value) - expected) <= 1e-12 * max(1.0, expected)

    svg = (out / "speedup.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_run_experiment_results_are_byte_stable(tmp_path, monkeypatch):
    # results.csv of this sweep as recorded before the scalar and ensemble
    # engines were merged into one loop; it must stay byte for byte, in
    # process and on a pool of two or four workers
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("LOCALSGD_THREADS", threads)
        config = small_config(tmp_path / threads, svg=False)
        run_experiment(config)
        produced = (Path(config.out_dir) / "results.csv").read_bytes()
        assert produced == (DATA / "quadratic_sweep_results.csv").read_bytes(), threads


def test_logistic_sweep_results_are_byte_stable(tmp_path, monkeypatch):
    # results.csv of a default-window synth50 sweep recorded with the grid
    # search that ran one seeded run per grid point: t* of 43-290 steps,
    # winners of both families, and diverging points at large c.  Its two
    # groups, K = 1 and K = 4 of the cells H = 1, 8, run as one job each
    # in-process and as single cells on a pool of two or four workers
    spec = DatasetSpec(kind="libsvm", path=str(DATA / "synth50.libsvm"))

    def second_run(*args, **kwargs):
        raise AssertionError("a sweep ran a grid point a second time")
    # every row is read off its search's batches: no grid point runs twice
    monkeypatch.setattr(harness, "measure_iterations", second_run)
    monkeypatch.setattr(harness, "run_local_sgd", second_run)
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("LOCALSGD_THREADS", threads)
        config = ExperimentConfig(
            dataset=spec, eps_list=[0.005], K_list=[1, 4], H_list=[1, 8],
            b_list=[1], seed=5, out_dir=str(tmp_path / threads), svg=False,
        )
        run_experiment(config)
        produced = (Path(config.out_dir) / "results.csv").read_bytes()
        assert produced == (DATA / "logistic_sweep_results.csv").read_bytes(), threads


def test_pool_jobs_spread_each_group_over_the_workers():
    groups = [("a", [1, 2, 3, 4, 5]), ("b", [6]), ("c", [7, 8])]
    assert _pool_jobs(groups, 1) == groups
    assert _pool_jobs(groups, 2) == [("a", [1, 2]), ("a", [3, 4, 5]), ("b", [6]),
                                     ("c", [7]), ("c", [8])]
    assert _pool_jobs(groups, 4) == [("a", [1]), ("a", [2]), ("a", [3]), ("a", [4, 5]),
                                     ("b", [6]), ("c", [7]), ("c", [8])]
    for workers in range(1, 9):
        jobs = _pool_jobs(groups, workers)
        # min(workers, cells) jobs of each group, of sizes within one of
        # each other, and every cell once in its group's order
        for key, cells in groups:
            sizes = [len(part) for k, part in jobs if k == key]
            assert len(sizes) == min(workers, len(cells)) and max(sizes) - min(sizes) <= 1
        assert [cell for _, cells in jobs for cell in cells] == list(range(1, 9))
        assert all(cell in dict(groups)[key] for key, cells in jobs for cell in cells)


def test_lemma_checks_are_byte_stable(tmp_path):
    # lemma_checks.csv of verify-lemmas on synth50 with runs 32, T 32 and
    # seed 0: both deviation checks, their held-out G^2 runs and the async
    # write plan
    spec = DatasetSpec(kind="libsvm", path=str(DATA / "synth50.libsvm"))
    config = ExperimentConfig(dataset=spec, eps_list=[0.005], K_list=[1], H_list=[1],
                              b_list=[1], lemmas={"runs": 32, "T": 32, "seed": 0})
    verify_lemmas(replace(config, out_dir=str(tmp_path)))
    produced = (tmp_path / "lemma_checks.csv").read_bytes()
    assert produced == (DATA / "lemma_checks_synth50.csv").read_bytes()


def test_serial_sweep_builds_its_problem_once(tmp_path, monkeypatch):
    calls = []

    def counting_build_problem(spec):
        calls.append(spec)
        return build_problem(spec)

    monkeypatch.setenv("LOCALSGD_THREADS", "1")
    monkeypatch.setattr(harness, "build_problem", counting_build_problem)
    run_experiment(small_config(tmp_path, svg=False))
    assert len(calls) == 1


def test_run_experiment_unreachable_rows(tmp_path):
    config = small_config(tmp_path, eps_list=[1e-9], epoch_cap=1,
                          K_list=[1], H_list=[1])
    rows, code = run_experiment(config)
    assert code == 2
    assert rows[0].iterations is None
    with open(Path(config.out_dir) / "results.csv") as fh:
        body = list(csv.reader(fh))[1:]
    assert body[0][4] == "unreachable"


def test_sweep_pool_has_no_more_workers_than_jobs(tmp_path, monkeypatch):
    # a fake pool records its size and runs the jobs here: no process starts
    opened = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs):
            opened.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(harness, "_pool_objective", None)
    monkeypatch.setenv("LOCALSGD_THREADS", "64")
    # two (K, b, eps) groups of two H cells each: four jobs
    rows, code = run_experiment(small_config(tmp_path, svg=False))
    assert opened == [4]
    assert code == 0 and len(rows) == 4


def test_parallel_pool_matches_serial(tmp_path):
    config = small_config(tmp_path, out_dir=str(tmp_path / "serial"))
    env_before = os.environ.get("LOCALSGD_THREADS")
    try:
        os.environ["LOCALSGD_THREADS"] = "1"
        run_experiment(config)
        os.environ["LOCALSGD_THREADS"] = "3"
        config2 = small_config(tmp_path, out_dir=str(tmp_path / "pooled"))
        run_experiment(config2)
    finally:
        if env_before is None:
            os.environ.pop("LOCALSGD_THREADS", None)
        else:
            os.environ["LOCALSGD_THREADS"] = env_before
    serial = (tmp_path / "serial" / "results.csv").read_bytes()
    pooled = (tmp_path / "pooled" / "results.csv").read_bytes()
    assert serial == pooled


def test_build_problem_pins_fstar():
    spec = quad_spec(f_star=-1.25)
    _, reference = build_problem(spec)
    assert reference.f_star == -1.25


def test_result_row_cost_accounting(tmp_path):
    config = small_config(tmp_path, svg=False)
    rows, _ = run_experiment(config)
    for row in rows:
        if row.iterations is None:
            continue
        # per-round cost: 2(K-1) exchanged vectors at rho gradient-times,
        # one round every H steps
        expected = row.iterations * (1.0 + 2.0 * config.rho * (row.K - 1) / row.H)
        assert row.wallclock == pytest.approx(expected, rel=1e-12)
        assert row.comm_rounds == row.iterations // row.H
        assert row.grad_evals == row.iterations * row.K * row.b


def test_sweep_prefers_infrequent_sync_under_communication_cost(tmp_path):
    # scaled-down analogue of the w8a speedup experiment: with expensive
    # communication (rho=25), small worker counts do better with larger H
    spec = DatasetSpec(kind="libsvm", path=str(DATA / "synth50.libsvm"))
    config = ExperimentConfig(
        dataset=spec, eps_list=[0.02], K_list=[1, 2, 4], H_list=[1, 2, 4, 8, 16],
        b_list=[1], rho=25.0, seed=3, epoch_cap=60, i_min=-8, i_max=4,
        out_dir=str(tmp_path / "logistic_sweep"), svg=False,
    )
    rows, code = run_experiment(config)
    assert code == 0
    speedups = {}
    base = [r.wallclock for r in rows if r.K == 1 and r.H == 1][0]
    for row in rows:
        speedups[(row.K, row.H)] = base / row.wallclock
    for K in (2, 4):
        best_large_H = max(speedups[(K, H)] for H in (2, 4, 8, 16))
        assert best_large_H > speedups[(K, 1)]


def test_verify_lemmas_entry_point(tmp_path):
    config = replace(small_config(tmp_path),
                     lemmas={"runs": 120, "trials": 400, "K": 2, "H": 3, "T": 24,
                             "b": 1, "tau": 1, "seed": 0})
    reports = verify_lemmas(config)
    assert len(reports) == 5
    assert all(r.passed for r in reports)
    lines = (Path(config.out_dir) / "lemma_checks.csv").read_text().splitlines()
    assert lines[0] == "check,trials,statistic,bound,margin,stderr,passed"
    assert len(lines) == 6
    # the config's directory, replaced, is where the checks write
    verify_lemmas(replace(config, out_dir=str(tmp_path / "elsewhere")))
    assert (tmp_path / "elsewhere" / "lemma_checks.csv").exists()


def test_cli_round_trip(tmp_path, cli_env):
    config_path = write_config(tmp_path, f"""
[dataset]
kind = quadratic
d = 5
mu = 1.0
L = 4.0
n = 16
noise = 0.3
seed = 9

[sweep]
eps = 0.05
K = 1, 2
H = 1, 2
b = 1

[run]
seed = 5
epoch_cap = 40

[output]
dir = {tmp_path / 'cli_out'}
svg = false
""")
    proc = subprocess.run(
        [sys.executable, "-m", "localsgd", "run", str(config_path)],
        capture_output=True, text=True, env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cli_out" / "results.csv").exists()
    assert not (tmp_path / "cli_out" / "speedup.svg").exists()

    # the speedup model over the sweep's grid and rho prints speedup_theory.csv
    theory = subprocess.run(
        [sys.executable, "-m", "localsgd", "theory", "--K", "1,2",
         "--H", "1,2", "--eps", "0.05", "--rho", "25"],
        capture_output=True, text=True, env=cli_env,
    )
    assert theory.returncode == 0
    assert theory.stdout == (tmp_path / "cli_out" / "speedup_theory.csv").read_text()

    # zero target accuracy is the closed-form regime
    at_zero = subprocess.run(
        [sys.executable, "-m", "localsgd", "theory", "--K", "4", "--H", "2",
         "--eps", "0", "--rho", "25"],
        capture_output=True, text=True, env=cli_env,
    )
    assert at_zero.returncode == 0
    value = float(at_zero.stdout.strip().splitlines()[1].split(",")[-1])
    assert value == pytest.approx(4.0 / (1.0 + 2.0 * 25.0 * 3 / 2), rel=1e-12)

    bad = subprocess.run(
        [sys.executable, "-m", "localsgd", "run", str(tmp_path / "nope.ini")],
        capture_output=True, text=True, env=cli_env,
    )
    assert bad.returncode == 1

    fstar = subprocess.run(
        [sys.executable, "-m", "localsgd", "fstar", str(DATA / "synth50.libsvm"),
         "--tolerance", "1e-6"],
        capture_output=True, text=True, env=cli_env,
    )
    assert fstar.returncode == 0
    _, reference = build_problem(DatasetSpec(kind="libsvm", path=str(DATA / "synth50.libsvm"),
                                             fstar_tolerance=1e-6))
    assert fstar.stdout.splitlines()[-1] == f"fstar={reference.f_star!r}"


@pytest.mark.parametrize("case", ["run", "verify-lemmas", "fstar", "no-sections",
                                  "lambda", "zero-lambda", "negative-lambda",
                                  "zero-tolerance", "nan-tolerance",
                                  "unreachable-tolerance", "theory-K", "theory-eps",
                                  "theory-rho-nan", "theory-rho-inf", "theory-rho-half",
                                  "theory-eps-nan",
                                  "theory-eps-inf", "theory-K-overflow", "theory-K-text",
                                  "theory-K-empty", "theory-H-empty", "theory-eps-empty"])
def test_cli_bad_input_is_a_config_error(tmp_path, capsys, case):
    bad_data = tmp_path / "bad.libsvm"
    bad_data.write_text("+1 1:1\n+1 oops\n", encoding="utf-8")
    config = write_config(tmp_path, f"""
[dataset]
kind = libsvm
path = {bad_data}

[sweep]
eps = 0.05
K = 1
H = 1
b = 1

[output]
dir = {tmp_path / 'out'}
""")
    no_sections = tmp_path / "flat.ini"
    no_sections.write_text("kind = quadratic\n", encoding="utf-8")
    argv = {
        "run": ["run", str(config)],
        "verify-lemmas": ["verify-lemmas", str(config)],
        "fstar": ["fstar", str(bad_data)],
        "no-sections": ["run", str(no_sections)],
        "lambda": ["fstar", str(DATA / "synth50.libsvm"), "--lambda", "abc"],
        "zero-lambda": ["fstar", str(DATA / "synth50.libsvm"), "--lambda", "0"],
        "negative-lambda": ["fstar", str(DATA / "synth50.libsvm"), "--lambda", "-1"],
        "zero-tolerance": ["fstar", str(DATA / "synth50.libsvm"), "--tolerance", "0"],
        "nan-tolerance": ["fstar", str(DATA / "synth50.libsvm"), "--tolerance", "nan"],
        "unreachable-tolerance": ["fstar", str(DATA / "synth50.libsvm"),
                                  "--tolerance", "1e-300"],
        "theory-K": ["theory", "--K", "0", "--H", "1", "--eps", "0.1"],
        "theory-eps": ["theory", "--K", "1", "--H", "1", "--eps", "-0.1"],
        "theory-rho-nan": ["theory", "--K", "2", "--H", "1", "--eps", "0.1", "--rho", "nan"],
        "theory-rho-inf": ["theory", "--K", "2", "--H", "1", "--eps", "0.1", "--rho", "inf"],
        # the rule of a config's rho: finite and >= 1
        "theory-rho-half": ["theory", "--K", "2", "--H", "1", "--eps", "0.1", "--rho", "0.5"],
        "theory-eps-nan": ["theory", "--K", "2", "--H", "1", "--eps", "nan"],
        "theory-eps-inf": ["theory", "--K", "2", "--H", "1", "--eps", "inf"],
        # an int too large for a float raises OverflowError, not ValueError
        "theory-K-overflow": ["theory", "--K", "9" * 401, "--H", "1", "--eps", "0.1"],
        "theory-K-text": ["theory", "--K", "abc", "--H", "1", "--eps", "0.1"],
        # an empty list, as a config's [sweep] rejects it
        "theory-K-empty": ["theory", "--K", "", "--H", "1", "--eps", "0.1"],
        "theory-H-empty": ["theory", "--K", "2", "--H", " , ", "--eps", "0.1"],
        "theory-eps-empty": ["theory", "--K", "2", "--H", "1", "--eps", ""],
    }[case]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: ") and "Traceback" not in err
    if case == "theory-K-text":
        assert err == "config error: cannot parse list '--K': 'abc'\n"
    elif case.endswith("-empty"):
        flag = case[len("theory-"):-len("-empty")]
        assert err == f"config error: list '--{flag}' must be nonempty\n"
    elif case.startswith("theory"):
        assert err.startswith("config error: bad theory argument: ")


@pytest.mark.parametrize("extra, error", [
    ("[run]\nepoch_caps = 50\n", "unknown key 'epoch_caps' in [run]"),
    ("lamda = 0.1\n", "unknown key 'lamda' in [dataset]"),
    ("[grdi]\n", "unknown section [grdi]"),
    ("[DEFAULT]\nseed = 3\n", "unknown section [DEFAULT]"),
    ("[grid]\ni_min = -1080\n", "grid window [-1080, 20] must lie within [-1074, 1023]"),
    ("[grid]\ni_max = 1030\n", "grid window [-20, 1030] must lie within [-1074, 1023]"),
], ids=["key", "dataset-key", "section", "default-section", "i-min", "i-max"])
def test_cli_rejects_settings_that_nothing_reads(tmp_path, capsys, extra, error):
    # `extra` without a section header lands in [dataset]
    body = ("[sweep]\neps = 0.05\nK = 1\nH = 1\nb = 1\n\n"
            f"[dataset]\nkind = libsvm\npath = {DATA / 'synth50.libsvm'}\n{extra}")
    assert main(["run", str(write_config(tmp_path, body)),
                 "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"config error: {error}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, key", [
    ("libsvm", "d = 5"), ("libsvm", "mu = 1.0"), ("libsvm", "L = 4.0"),
    ("libsvm", "n = 16"), ("libsvm", "noise = 0.1"), ("libsvm", "seed = 3"),
    ("quadratic", f"path = {DATA / 'synth50.libsvm'}"), ("quadratic", "lambda = 0.1"),
    ("quadratic", "dimension = 10"), ("quadratic", "fstar_tolerance = 1e-6"),
])
def test_cli_rejects_dataset_keys_of_the_other_kind(tmp_path, capsys, kind, key):
    path = f"path = {DATA / 'synth50.libsvm'}\n" if kind == "libsvm" else ""
    body = ("[sweep]\neps = 0.05\nK = 1\nH = 1\nb = 1\n\n"
            f"[dataset]\nkind = {kind}\n{path}{key}\n")
    assert main(["run", str(write_config(tmp_path, body)),
                 "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    name = key.split(" =")[0].lower()
    assert out == "" and err == (f"config error: key {name!r} in [dataset] does not "
                                 f"apply to kind {kind}\n")
    assert not (tmp_path / "out").exists()


def test_cli_lambda_errors_match_the_config_reader(tmp_path, capsys):
    config = write_config(tmp_path, f"""
[dataset]
kind = libsvm
path = {DATA / 'synth50.libsvm'}
lambda = abc

[sweep]
eps = 0.05
K = 1
H = 1
b = 1
""")
    assert main(["run", str(config)]) == 1
    from_config = capsys.readouterr().err
    assert main(["fstar", str(DATA / "synth50.libsvm"), "--lambda", "abc"]) == 1
    assert capsys.readouterr().err == from_config == \
        "config error: lambda must be a number or auto, got 'abc'\n"


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_cli_fstar_rejects_a_non_finite_feature_value(tmp_path, capsys, token):
    # the value would parse into the CSR and fail the reference solve
    path = tmp_path / "bad.libsvm"
    path.write_text(f"1 1:{token}\n", encoding="utf-8")
    assert main(["fstar", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: line 1: non-finite value in token '1:{token}'\n"


def test_cli_fstar_reports_a_reference_solve_past_a_non_finite_value(monkeypatch, capsys):
    _nan_off_zero(monkeypatch)
    assert main(["fstar", str(DATA / "synth50.libsvm")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: bad value in [dataset]: reference solve did not reach")


def test_cli_fstar_reports_a_dataset_path_that_is_a_directory(tmp_path, capsys):
    assert main(["fstar", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    # run and verify-lemmas read the dataset through the same path
    config = write_config(tmp_path, f"""
[dataset]
kind = libsvm
path = {tmp_path}

[sweep]
eps = 0.05
K = 1
H = 1
b = 1
""")
    for command in ("run", "verify-lemmas"):
        assert main([command, str(config), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr() == ("", err)


def test_cli_fstar_reports_a_dataset_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.libsvm"
    path.write_bytes(b"1 1:0.5\n-1 2:0.25 # caf\xe9\n")
    assert main(["fstar", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"config error: dataset {str(path)!r} is not UTF-8 text: 'utf-8' codec "
                   f"can't decode byte 0xe9 in position 23: invalid continuation byte\n")
    # a missing file keeps its message
    missing = str(tmp_path / "missing.libsvm")
    assert main(["fstar", missing]) == 1
    assert capsys.readouterr().err == \
        f"config error: [Errno 2] No such file or directory: {missing!r}\n"


QUADRATIC_CONFIG = "[dataset]\nkind = quadratic\n\n[sweep]\neps = 0.05\nK = 1\nH = 1\nb = 1\n"


@pytest.mark.parametrize("body, error", [
    (QUADRATIC_CONFIG + "[output]\nsvg = maybe\n", "bad value in [output]: Not a boolean: maybe"),
    (QUADRATIC_CONFIG + "[run]\nseed = x\n",
     "bad value in [run]: invalid literal for int() with base 10: 'x'"),
    ("[dataset]\nkind = quadratic\n", "missing [sweep] section"),
], ids=["svg", "seed", "no-sweep"])
def test_config_reader_rejects_a_bad_value_or_a_missing_sweep(tmp_path, body, error):
    with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
        load_experiment_config(write_config(tmp_path, body))


@pytest.mark.parametrize("command", ["run", "verify-lemmas"])
@pytest.mark.parametrize("extra, args, error", [
    ("[run]\nseed = -1\n", [], "[run] seed must be an integer >= 0, got -1"),
    ("[lemmas]\nseed = -1\n", [], "lemmas.seed must be an integer >= 0, got -1"),
    ("[output]\ndir =\n", [], "[output] dir must not be empty"),
    ("", ["--out", ""], "[output] dir must not be empty"),
], ids=["run-seed", "lemmas-seed", "empty-dir", "empty-out"])
def test_cli_rejects_a_negative_seed_and_an_empty_output_dir(tmp_path, capsys, monkeypatch,
                                                             command, extra, args, error):
    # the config is rejected as it is read, so no directory is made, not
    # even the current one's results/
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, QUADRATIC_CONFIG + extra)
    before = sorted(tmp_path.iterdir())
    assert main([command, str(config), *args]) == 1
    assert capsys.readouterr() == ("", f"config error: {error}\n")
    assert sorted(tmp_path.iterdir()) == before


def test_cli_run_prints_the_directory_it_wrote(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, QUADRATIC_CONFIG + "[output]\ndir = configured\nsvg = no\n")
    for args, out in (([], "configured"), (["--out", "override"], "override")):
        assert main(["run", str(config), *args]) == 0
        assert capsys.readouterr() == (f"wrote 1 rows to {out}/results.csv\n", "")
        assert (tmp_path / out / "results.csv").is_file()


def test_cli_rejects_a_thread_count_that_is_not_an_integer(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LOCALSGD_THREADS", "two")
    config = write_config(tmp_path, QUADRATIC_CONFIG)
    before = sorted(tmp_path.iterdir())
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == (
        "", "config error: LOCALSGD_THREADS must be an integer, got 'two'\n")
    assert sorted(tmp_path.iterdir()) == before


def test_cli_reports_a_config_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[dataset]\nkind = quadratic ; caf\xe9\n")
    before = sorted(tmp_path.iterdir())
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", (
        f"config error: config file {str(path)!r} is not UTF-8 text: 'utf-8' codec "
        f"can't decode byte 0xe9 in position 32: invalid continuation byte\n"))
    assert sorted(tmp_path.iterdir()) == before


# synth50 without regularization (mu = 0), its optimum pinned so that no solve runs
UNREGULARIZED_CONFIG = (f"[dataset]\nkind = libsvm\npath = {DATA / 'synth50.libsvm'}\n"
                        "lambda = 0\nfstar = 0.3\n\n[sweep]\neps = 0.3\nK = 1\nH = 1\nb = 1\n\n"
                        "[run]\nepoch_cap = 2\n")


@pytest.mark.parametrize("command, body, args, error, read", [
    ("run", "seed = 1\n" + QUADRATIC_CONFIG, [], "File contains no section headers. ", True),
    ("run", QUADRATIC_CONFIG + "[run]\nseed\n", [], "Source contains parsing errors: ", True),
    ("run", QUADRATIC_CONFIG + "[dataset]\nd = 3\n", [], "section 'dataset' already exists",
     True),
    ("run", QUADRATIC_CONFIG + "K = 2\n", [], "option 'k' in section 'sweep' already exists",
     True),
    ("verify-lemmas", UNREGULARIZED_CONFIG, [], "mu must be finite and positive, got 0.0", False),
    ("run", QUADRATIC_CONFIG, ["--out", ""], "[output] dir must not be empty", False),
], ids=["key-before-section", "no-equals", "repeated-section", "repeated-key", "zero-mu",
        "empty-out"])
def test_cli_error_is_one_line_and_leaves_no_path(tmp_path, capsys, monkeypatch, command, body,
                                                  args, error, read):
    # every config the CLI rejects: exit 1, nothing on stdout, one
    # `config error:` line on stderr and no path made; a file that
    # configparser rejects (`read`) is the config reader's own ConfigError
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, body)
    before = sorted(tmp_path.iterdir())
    assert main([command, str(config), *args]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
    assert error in err and err.endswith("\n")
    assert sorted(tmp_path.iterdir()) == before
    if read:
        with pytest.raises(ConfigError) as raised:
            load_experiment_config(config)
        assert err == f"config error: {raised.value}\n"


def test_cli_runs_the_sweep_of_a_config_that_verify_lemmas_rejects(tmp_path, capsys,
                                                                   monkeypatch):
    # only the lemma checks' theorem schedules need mu > 0
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, UNREGULARIZED_CONFIG + "\n[output]\nsvg = no\n")
    assert main(["run", str(config)]) == 0
    assert capsys.readouterr() == ("wrote 1 rows to results/results.csv\n", "")


def test_a_percent_sign_in_a_config_value_is_literal(tmp_path, capsys, monkeypatch):
    # the reader does no interpolation, so a `%` needs no escape
    monkeypatch.chdir(tmp_path)
    config = write_config(tmp_path, QUADRATIC_CONFIG + "[output]\ndir = out%20\nsvg = no\n")
    assert main(["run", str(config)]) == 0
    assert capsys.readouterr() == ("wrote 1 rows to out%20/results.csv\n", "")
    assert (tmp_path / "out%20" / "results.csv").is_file()


@pytest.mark.parametrize("command", ["run", "verify-lemmas"])
def test_cli_out_under_a_regular_file_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                        command):
    # the output directory is made after the problem is built and before
    # anything runs
    def never(*args, **kwargs):
        raise AssertionError("ran before the output directory was made")
    monkeypatch.setattr(harness, "lemma_suite", never)
    monkeypatch.setattr(harness, "_sweep_job", never)
    config = write_config(tmp_path, QUADRATIC_CONFIG)
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    out = blocker / "out"
    before = sorted(tmp_path.iterdir())
    assert main([command, str(config), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", (f"config error: cannot create output directory: "
                                        f"[Errno 20] Not a directory: {str(out)!r}\n"))
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command", ["run", "verify-lemmas"])
def test_cli_unreadable_dataset_leaves_no_output_directory(tmp_path, capsys, command):
    missing = str(tmp_path / "missing.libsvm")
    config = write_config(tmp_path, QUADRATIC_CONFIG.replace(
        "kind = quadratic", f"kind = libsvm\npath = {missing}"))
    before = sorted(tmp_path.iterdir())
    assert main([command, str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == (
        "", f"config error: [Errno 2] No such file or directory: {missing!r}\n")
    assert sorted(tmp_path.iterdir()) == before


def test_cli_defaults_are_the_dataclass_defaults(capsys):
    grid = ["--K", "1,4", "--H", "2", "--eps", "0.01"]
    assert main(["theory", *grid]) == 0
    default = capsys.readouterr().out
    assert main(["theory", *grid, "--rho", repr(ExperimentConfig.rho)]) == 0
    assert capsys.readouterr().out == default
    path = str(DATA / "synth50.libsvm")
    assert main(["fstar", path]) == 0
    _, reference = build_problem(DatasetSpec(kind="libsvm", path=path))
    assert capsys.readouterr().out.splitlines()[-1] == f"fstar={reference.f_star!r}"


@pytest.mark.parametrize("dataset", [
    f"kind = libsvm\npath = {DATA / 'synth50.libsvm'}\nlambda = -1\n",
    f"kind = libsvm\npath = {DATA / 'synth50.libsvm'}\nlambda = 0\n",  # no fstar
    f"kind = libsvm\npath = {DATA / 'synth50.libsvm'}\nlambda = nan\n",
    f"kind = libsvm\npath = {DATA / 'synth50.libsvm'}\nfstar_tolerance = 0\n",
    f"kind = libsvm\npath = {DATA / 'synth50.libsvm'}\nfstar_tolerance = 1e-300\n",
    "kind = quadratic\nmu = 5\nL = 1\n",
    "kind = quadratic\nd = 0\n",
], ids=["negative-lambda", "zero-lambda", "nan-lambda", "zero-tolerance",
        "unreachable-tolerance", "mu-above-L", "zero-d"])
def test_cli_bad_dataset_value_is_a_config_error(tmp_path, capsys, dataset):
    config = write_config(tmp_path, f"""
[dataset]
{dataset}
[sweep]
eps = 0.05
K = 1
H = 1
b = 1

[output]
dir = {tmp_path / 'out'}
""")
    assert main(["run", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("config error: bad value in [dataset]") and "Traceback" not in err


def test_cli_verify_lemmas(tmp_path, cli_env):
    config_path = write_config(tmp_path, f"""
[dataset]
kind = quadratic
d = 6
mu = 1.0
L = 4.0
n = 32
noise = 0.5
seed = 7

[sweep]
eps = 0.05
K = 1
H = 1
b = 1

[lemmas]
runs = 120
trials = 400
K = 2
H = 3
T = 24
b = 1
tau = 1
seed = 0

[output]
dir = {tmp_path / 'lem_out'}
""")
    proc = subprocess.run(
        [sys.executable, "-m", "localsgd", "verify-lemmas", str(config_path)],
        capture_output=True, text=True, env=cli_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[PASS]") == 5
    assert (tmp_path / "lem_out" / "lemma_checks.csv").exists()
