"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria touching the w8a dataset skip with instructions when the file has
not been fetched (scripts/fetch_w8a.py); everything else runs on the
bundled fixtures.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from localsgd import (
    SCHEMES,
    DelayModel,
    LogisticObjective,
    ProblemConstants,
    RecordFlags,
    RunConfig,
    RunningAverage,
    ShiftedQuadraticAverage,
    lemma_suite,
    parse_libsvm,
    regular_sync_schedule,
    run_async_local_sgd,
    run_local_sgd,
    run_local_sgd_ensemble,
    run_minibatch_sgd,
    speedup,
    sum_of_weights,
    theorem1_bound,
    theorem_steps,
)
from localsgd.data import LibsvmFormatError
from localsgd.harness import reference_for

DATA = Path(__file__).parent / "data"


def report(criterion, passed, detail=""):
    marker = "PASS" if passed else "FAIL"
    print(f"[{marker}] {criterion}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


# 1. w8a reference value --------------------------------------------------


def test_criterion_1_w8a_reference_value(w8a_dataset):
    start = time.monotonic()
    reference = reference_for(LogisticObjective(w8a_dataset), tolerance=1e-6)
    elapsed = time.monotonic() - start
    err = abs(reference.f_star - 0.126433176216545)
    report(
        "criterion 1: w8a reference optimum within 1e-5",
        err <= 1e-5 and elapsed < 120.0,
        f"fstar={reference.f_star!r}, err={err:.2e}, {elapsed:.1f}s",
    )


# 2. H=1 equivalence ------------------------------------------------------


def test_criterion_2_every_step_sync_equals_minibatch(synth50):
    objective = LogisticObjective(synth50)
    mu, L = objective.curvature()
    worst = 0.0
    for K, b in ((2, 1), (4, 1), (4, 4)):
        T = 150
        config = RunConfig(
            K=K, T=T, b=b, sync=regular_sync_schedule(T, 1),
            steps=theorem_steps((mu, L), 1),
            seed=11, x0=np.zeros(objective.d), record=RecordFlags(),
        )
        trace = run_local_sgd(config, objective)
        baseline = run_minibatch_sgd(config, objective)
        worst = max(worst, float(np.max(np.abs(trace.xbar - baseline))))
    report("criterion 2: H=1 local SGD equals coupled mini-batch SGD",
           worst <= 1e-12, f"worst per-coordinate gap {worst:.2e}")


# 3. async degeneration ---------------------------------------------------


def test_criterion_3_async_degenerations(quad10):
    objective, _, const = quad10
    T, K, H = 80, 4, 5
    config = RunConfig(
        K=K, T=T, b=1, sync=regular_sync_schedule(T, H),
        steps=theorem_steps((const.mu, const.L), H),
        seed=31, x0=np.zeros(objective.d),
    )
    sync_trace = run_local_sgd(config, objective)
    async_trace, _ = run_async_local_sgd(
        config, [config.sync] * K, DelayModel("zero"), objective
    )
    gap_async = float(np.max(np.abs(async_trace.xbar - sync_trace.xbar)))
    gap_final = float(np.max(np.abs(async_trace.final_iterates - sync_trace.final_iterates)))

    serial_cfg = RunConfig(**{**config.__dict__, "K": 1, "seed": 17})
    serial = run_local_sgd(serial_cfg, objective)
    async_serial, _ = run_async_local_sgd(
        serial_cfg, [serial_cfg.sync], DelayModel("fixed", tau=3), objective
    )
    serial_exact = np.array_equal(async_serial.xbar, serial.xbar) and np.array_equal(
        async_serial.final_iterates, serial.final_iterates
    )
    report(
        "criterion 3: zero-delay async reproduces sync; K=1 async is serial SGD",
        gap_async <= 1e-12 and gap_final <= 1e-12 and serial_exact,
        f"trace gap {gap_async:.2e}, K=1 exact: {serial_exact}",
    )


# 4. lemma suite ----------------------------------------------------------


def _lemma_suite(objective, reference, label, seed):
    reports = lemma_suite(objective, reference, seed=seed)
    for rep in reports:
        print(f"    {label}: {rep}")
    return reports


def test_criterion_4_lemma_suite(quad10, logistic50):
    start = time.monotonic()
    quad_obj, quad_ref, _ = quad10
    reports = _lemma_suite(quad_obj, quad_ref, "quadratic d=10", seed=0)
    log_ref = reference_for(logistic50, tolerance=1e-10)
    reports += _lemma_suite(logistic50, log_ref, "logistic 50-point", seed=1)
    elapsed = time.monotonic() - start
    report(
        "criterion 4: all five inequality checks pass on both fixtures",
        all(r.passed for r in reports) and elapsed < 600.0,
        f"{sum(r.passed for r in reports)}/10 passed in {elapsed:.0f}s",
    )


# 5. bound validity -------------------------------------------------------


def test_criterion_5_bound_validity(quad10):
    """Monte-Carlo output-average gap against theorem 1 on quad10.

    On a quadratic with one shared Hessian the virtual average does not
    depend on H (test_quadratic_virtual_average_does_not_depend_on_sync_period),
    so the H sweep here measures no drift: the bound's drift term grows
    with H while the measured gap does not.
    """
    objective, reference, const = quad10
    r0 = float(reference.x_star @ reference.x_star)
    seeds = list(range(100))
    worst = None
    for K in (1, 2, 4, 8):
        for T in (1000, 10000):
            for H in sorted({1, 4, math.isqrt(T // K)}):
                steps = theorem_steps((const.mu, const.L), H)
                config = RunConfig(
                    K=K, T=T, b=1, sync=regular_sync_schedule(T, H),
                    steps=steps, seed=0,
                    x0=np.zeros(objective.d),
                    record=RecordFlags(virtual=False, f_values=False),
                )
                result = run_local_sgd_ensemble(config, objective, seeds,
                                                track_second_moment=True)
                gaps = result.f_output - reference.f_star
                mean = float(gaps.mean())
                stderr = float(gaps.std(ddof=1) / math.sqrt(len(seeds)))
                measured = ProblemConstants(
                    L=const.L, mu=const.mu, sigma_sq=const.sigma_sq,
                    G_sq=result.max_second_moment,
                )
                bound = theorem1_bound(measured, K, T, H, 1, steps.a, r0)
                entry = (bound - (mean + 3 * stderr), (K, T, H), mean, bound)
                if worst is None or entry < worst:
                    worst = entry
    margin, cell, mean, bound = worst
    report(
        "criterion 5: Monte-Carlo output-average gap below the bound on all cells",
        margin > 0,
        f"tightest cell (K,T,H)={cell}: mean {mean:.3e} vs bound {bound:.3e}",
    )


# 6. linear speedup in iterations -----------------------------------------


def _criterion_6_t_star(quad10, K, H, seed):
    """Steps until quad10 is 3e-4-accurate, at most 30000, evaluating every step."""
    objective, reference, const = quad10
    eps, cap = 3e-4, 30000
    config = RunConfig(
        K=K, T=cap, b=1, sync=regular_sync_schedule(cap, H),
        steps=theorem_steps((const.mu, const.L), H),
        seed=seed, x0=np.zeros(objective.d),
        record=RecordFlags(virtual=False, deviations=False, f_every=1),
    )
    trace = run_local_sgd(config, objective, stop_when=(eps, reference.f_star))
    return trace.t_star


def _criterion_6_ratio(quad10, seed):
    """t*(K=1, H=1) / t*(K=8, H=isqrt(t*(K=1)/8)) of one seed, with its parts."""
    t_one = _criterion_6_t_star(quad10, 1, 1, seed)
    assert t_one is not None
    H8 = max(1, math.isqrt(t_one // 8))
    t_eight = _criterion_6_t_star(quad10, 8, H8, seed)
    assert t_eight is not None
    return t_one / t_eight, t_one, H8, t_eight


def test_criterion_6_linear_speedup(quad10):
    """Eight workers reach eps in at most a quarter of one worker's steps.

    On quad10 the virtual average does not depend on H, so the chosen H
    measures no drift and this is the mini-batch speedup of K*b samples.
    """
    _, t_one, H8, t_eight = _criterion_6_ratio(quad10, 0)
    report(
        "criterion 6: 8 workers reach accuracy in at most a quarter of the steps",
        t_eight <= t_one / 4.0,
        f"T*(K=1)={t_one}, T*(K=8,H={H8})={t_eight}, ratio {t_one / t_eight:.1f}x",
    )


def test_criterion_6_linear_speedup_over_a_seed_panel(quad10):
    """Criterion 6's ratio over seeds 0-29: its median, not one seed's draw.

    [x_(10), x_(21)] of the 30 sorted ratios covers the median of the ratio with
    probability sum_{k=10}^{20} C(30, k) / 2^30 = 95.7%, whatever their
    distribution.  The pass rule is criterion 6's bar, x_(10) >= 4.
    """
    ratios = sorted(_criterion_6_ratio(quad10, seed)[0] for seed in range(30))
    low, high = ratios[9], ratios[20]
    report(
        "criterion 6 over seeds 0-29: the median ratio is at least 4 with 95.7% confidence",
        low >= 4.0,
        f"median {np.median(ratios):.2f}, interval [{low:.2f}, {high:.2f}], "
        f"{sum(r < 4.0 for r in ratios)} of 30 seeds below 4",
    )


# 7. speedup model --------------------------------------------------------


def test_criterion_7_speedup_model():
    ok = True
    for H in (1, 2, 8, 32):
        for eps in (0.0, 0.005, 0.5):
            for rho in (1.0, 25.0, 100.0):
                ok &= speedup(1, H, eps, rho) == 1.0
    for K in (2, 4, 8, 16):
        for rho in (1.0, 25.0):
            values = [speedup(K, H, 0.0, rho) for H in (1, 2, 4, 8, 16)]
            ok &= all(b > a for a, b in zip(values, values[1:]))
    worst = 0.0
    for K in (1, 2, 4, 8, 16, 32):
        for H in (1, 2, 4, 8, 16):
            for rho in (1.0, 25.0, 77.0):
                closed = K / (1.0 + 2.0 * rho * (K - 1) / H)
                worst = max(worst, abs(speedup(K, H, 0.0, rho) - closed))
    ok &= worst <= 1e-12
    report("criterion 7: speedup model structure (S(1)=1, H-monotone, closed form)",
           ok, f"max closed-form deviation {worst:.1e}")


# 8. averaging equivalence ------------------------------------------------


def test_criterion_8_averaging_equivalence():
    rng = np.random.default_rng(123)
    xs = rng.standard_normal((1000, 6))
    t_idx = np.arange(1000, dtype=np.float64)
    weights = {
        "last": None,
        "uniform": np.ones(1000),
        "linear": t_idx + 1.0,
        "quadratic": (t_idx + 1.0) ** 2,
    }
    worst_rel = 0.0
    for kind in SCHEMES:
        running = RunningAverage(kind)
        for t, x in enumerate(xs):
            running.update(x, t)
        if kind == "last":
            direct = xs[-1]
        else:
            w = weights[kind]
            direct = (w[:, None] * xs).sum(axis=0) / w.sum()
        rel = np.linalg.norm(running.value - direct) / np.linalg.norm(direct)
        worst_rel = max(worst_rel, rel)
    shifted = ShiftedQuadraticAverage(65.0)
    for t, x in enumerate(xs):
        shifted.update(x, t)
    w = (65.0 + t_idx) ** 2
    direct = (w[:, None] * xs).sum(axis=0) / w.sum()
    worst_rel = max(worst_rel, np.linalg.norm(shifted.value - direct) / np.linalg.norm(direct))

    worst_sum = 0.0
    for a in (1.0, 2.0, 33.0, 65.0, 409.0):
        for T in (1, 2, 7, 50, 400, 2048):
            direct = float(np.sum((a + np.arange(T)) ** 2))
            worst_sum = max(worst_sum, abs(sum_of_weights(a, T) - direct) / direct)
    report(
        "criterion 8: running averages and weight sums match direct summation",
        worst_rel <= 1e-9 and worst_sum <= 1e-12,
        f"recursion rel err {worst_rel:.1e}, S_T rel err {worst_sum:.1e}",
    )


# 9. parser ---------------------------------------------------------------


def test_criterion_9_parser_fixture_half(synth50):
    f0 = LogisticObjective(synth50).value(np.zeros(synth50.d))
    ln2_ok = abs(f0 - math.log(2.0)) <= 1e-9

    errors_ok = True
    try:
        parse_libsvm(["-1 5:2 5:3"])
        errors_ok = False
    except LibsvmFormatError as exc:
        errors_ok &= exc.line_number == 1 and "non-increasing" in str(exc)
    try:
        parse_libsvm(["+1 1:1", "oops 2:1"])
        errors_ok = False
    except LibsvmFormatError as exc:
        errors_ok &= exc.line_number == 2
    try:
        parse_libsvm(["+1 7:1"], declared_dimension=3)
        errors_ok = False
    except LibsvmFormatError as exc:
        errors_ok &= "exceeds" in str(exc)
    report(
        "criterion 9 (fixture half): f(0)=ln 2 and malformed lines error with line numbers",
        ln2_ok and errors_ok,
        f"f(0)-ln2 = {f0 - math.log(2.0):.1e}",
    )


def test_criterion_9_w8a_half(w8a_dataset):
    f0 = LogisticObjective(w8a_dataset).value(np.zeros(w8a_dataset.d))
    report(
        "criterion 9 (w8a half): parses to n=49749, d=300 with f(0)=ln 2",
        w8a_dataset.n == 49749 and w8a_dataset.d == 300
        and abs(f0 - math.log(2.0)) <= 1e-9,
        f"n={w8a_dataset.n}, d={w8a_dataset.d}",
    )


# 10. CLI determinism ------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path, cli_env):
    config = tmp_path / "exp.ini"
    config.write_text(f"""
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
K = 1, 2
H = 1, 2
b = 1

[run]
seed = 5
epoch_cap = 40

[output]
dir = {tmp_path / 'out'}
svg = true
""", encoding="utf-8")

    outputs = []
    for attempt in ("first", "second"):
        proc = subprocess.run(
            [sys.executable, "-m", "localsgd", "run", str(config),
             "--out", str(tmp_path / attempt)],
            capture_output=True, text=True, env=cli_env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / attempt / "results.csv").read_bytes())
    report(
        "criterion 10: repeated `localsgd run` writes byte-identical results.csv",
        outputs[0] == outputs[1],
        f"{len(outputs[0])} bytes",
    )
