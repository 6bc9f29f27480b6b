import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from localsgd import make_quadratic, speedup
from localsgd.harness import (
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    build_problem,
    compute_reference_fstar,
    grid_search_stepsize,
    load_experiment_config,
    measure_iterations,
    reference_for,
    run_experiment,
    verify_lemmas,
)

DATA = Path(__file__).parent / "data"


def quad_spec(**overrides):
    spec = DatasetSpec(kind="quadratic", d=6, mu=1.0, L=4.0, n=32, noise=0.5, seed=7)
    for key, value in overrides.items():
        setattr(spec, key, value)
    return spec


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
    assert cfg.eps_list == [0.1, 0.01]
    assert cfg.rho == 30.0
    assert cfg.dataset.d == 5

    with pytest.raises(ConfigError, match="dataset"):
        load_experiment_config(write_config(tmp_path, "[sweep]\neps = 1\nK = 1\nH = 1\nb = 1\n"))
    with pytest.raises(ConfigError, match="kind"):
        load_experiment_config(write_config(tmp_path, "[dataset]\nkind = bogus\n\n[sweep]\neps = 1\nK = 1\nH = 1\nb = 1\n"))
    with pytest.raises(ConfigError, match="sweep.K"):
        load_experiment_config(write_config(tmp_path, "[dataset]\nkind = quadratic\n\n[sweep]\neps = 1\nH = 1\nb = 1\n"))
    with pytest.raises(ConfigError, match="path"):
        load_experiment_config(write_config(tmp_path, "[dataset]\nkind = libsvm\n\n[sweep]\neps = 1\nK = 1\nH = 1\nb = 1\n"))
    with pytest.raises(ConfigError):
        load_experiment_config(tmp_path / "missing.ini")


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="eps"):
        small_config(tmp_path, eps_list=[-0.1])
    with pytest.raises(ConfigError, match="nonempty"):
        small_config(tmp_path, K_list=[])
    with pytest.raises(ConfigError, match="rho"):
        small_config(tmp_path, rho=0.5)


def test_reference_for_quadratic_is_analytic():
    obj, ref, _ = make_quadratic(d=1, mu=2.0, L=2.0, n=1, noise=0.0, seed=0)
    got = reference_for(obj)
    assert got.provenance == "analytic"
    assert got.x_star[0] == pytest.approx(obj.b_mean[0] / 2.0)
    assert got.f_star == pytest.approx(ref.f_star)


def test_compute_reference_fstar_on_fixture(synth50):
    reference = compute_reference_fstar(synth50, tolerance=1e-8)
    assert reference.provenance == "numeric"
    from localsgd import LogisticObjective

    obj = LogisticObjective(synth50)
    grad_norm = np.linalg.norm(obj.gradient(reference.x_star))
    assert grad_norm <= 1e-8
    # the optimum improves on the start and on a few random points
    assert reference.f_star < obj.value(np.zeros(obj.d))
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert reference.f_star <= obj.value(rng.standard_normal(obj.d))


def test_compute_reference_fstar_nonconvergence(synth50):
    with pytest.raises(RuntimeError, match="did not reach"):
        compute_reference_fstar(synth50, tolerance=1e-14, max_iters=30)


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


def test_run_experiment_results_are_byte_stable(tmp_path):
    # results.csv of this sweep as recorded before the scalar and ensemble
    # engines were merged into one loop; it must stay byte for byte
    config = small_config(tmp_path, svg=False)
    run_experiment(config)
    produced = (Path(config.out_dir) / "results.csv").read_bytes()
    assert produced == (DATA / "quadratic_sweep_results.csv").read_bytes()


def test_run_experiment_unreachable_rows(tmp_path):
    config = small_config(tmp_path, eps_list=[1e-9], epoch_cap=1,
                          K_list=[1], H_list=[1])
    rows, code = run_experiment(config)
    assert code == 2
    assert rows[0].iterations is None
    with open(Path(config.out_dir) / "results.csv") as fh:
        body = list(csv.reader(fh))[1:]
    assert body[0][4] == "unreachable"


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
    config = small_config(tmp_path)
    config.lemmas = {"runs": 120, "trials": 400, "K": 2, "H": 3, "T": 24,
                     "b": 1, "tau": 1, "seed": 0}
    reports = verify_lemmas(config)
    assert len(reports) == 5
    assert all(r.passed for r in reports)
    lines = (Path(config.out_dir) / "lemma_checks.csv").read_text().splitlines()
    assert lines[0] == "check,trials,statistic,bound,margin,stderr,passed"
    assert len(lines) == 6
    # explicit output override wins over the config's directory
    verify_lemmas(config, out_dir=str(tmp_path / "elsewhere"))
    assert (tmp_path / "elsewhere" / "lemma_checks.csv").exists()


def test_cli_round_trip(tmp_path):
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
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "cli_out" / "results.csv").exists()
    assert not (tmp_path / "cli_out" / "speedup.svg").exists()

    theory = subprocess.run(
        [sys.executable, "-m", "localsgd", "theory", "--K", "1,2",
         "--H", "1,4", "--eps", "0.001", "--rho", "25"],
        capture_output=True, text=True,
    )
    assert theory.returncode == 0
    lines = theory.stdout.strip().splitlines()
    assert lines[0] == "K,H,eps,rho,speedup_model"
    assert len(lines) == 5

    # zero target accuracy is the closed-form regime
    at_zero = subprocess.run(
        [sys.executable, "-m", "localsgd", "theory", "--K", "4", "--H", "2",
         "--eps", "0", "--rho", "25"],
        capture_output=True, text=True,
    )
    assert at_zero.returncode == 0
    value = float(at_zero.stdout.strip().splitlines()[1].split(",")[-1])
    assert value == pytest.approx(4.0 / (1.0 + 2.0 * 25.0 * 3 / 2), rel=1e-12)

    bad = subprocess.run(
        [sys.executable, "-m", "localsgd", "run", str(tmp_path / "nope.ini")],
        capture_output=True, text=True,
    )
    assert bad.returncode == 1

    fstar = subprocess.run(
        [sys.executable, "-m", "localsgd", "fstar", str(DATA / "synth50.libsvm"),
         "--tolerance", "1e-6"],
        capture_output=True, text=True,
    )
    assert fstar.returncode == 0
    assert "fstar=" in fstar.stdout


def test_cli_verify_lemmas(tmp_path):
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
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("[PASS]") == 5
    assert (tmp_path / "lem_out" / "lemma_checks.csv").exists()
