"""Command-line entry points, each a thin call into the harness.

    localsgd run <config> [--out DIR]       run the configured sweep
    localsgd verify-lemmas <config> [--out DIR]
                                            run the inequality checks
    localsgd theory --K .. --H .. --eps .. --rho ..
                                            print the speedup model as CSV,
                                            the rows of speedup_theory.csv
    localsgd fstar <dataset> [--lambda ..]  reference optimum of a LIBSVM
                                            dataset, from build_problem

`--out` sets the config's [output] dir, checked as that key is.  Exit
codes: 0 success, 1 configuration error (a `ConfigError`, the one error
the harness raises at its boundary, printed as one `config error:` line),
2 when a sweep contains unreachable-accuracy rows (or an inequality
check failed).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import (
    THEORY_HEADER,
    ConfigError,
    DatasetSpec,
    ExperimentConfig,
    _parse_list,
    build_problem,
    load_experiment_config,
    parse_lambda,
    run_experiment,
    theory_rows,
    verify_lemmas,
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="localsgd",
        description="Simulate local SGD, verify its convergence bounds, "
                    "and reproduce speedup experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep from a config file")
    p_run.add_argument("config", help="path to the INI experiment config")
    p_run.add_argument("--out", default=None, help="override the output directory")

    p_ver = sub.add_parser("verify-lemmas", help="run the inequality checks")
    p_ver.add_argument("config", help="path to the INI config (dataset + [lemmas])")
    p_ver.add_argument("--out", default=None, help="override the output directory")

    p_theory = sub.add_parser("theory", help="print the speedup model as CSV")
    p_theory.add_argument("--K", required=True, help="comma-separated worker counts")
    p_theory.add_argument("--H", required=True, help="comma-separated sync intervals")
    p_theory.add_argument("--eps", required=True, help="comma-separated accuracies")
    p_theory.add_argument("--rho", type=float, default=ExperimentConfig.rho,
                          help="communication-to-computation ratio")

    p_fstar = sub.add_parser("fstar", help="compute the reference optimum")
    p_fstar.add_argument("dataset", help="path to a LIBSVM file")
    p_fstar.add_argument("--lambda", dest="lam",
                         help="ridge coefficient, a number or auto (default 1/n)")
    p_fstar.add_argument("--tolerance", type=float, default=DatasetSpec.fstar_tolerance,
                         help="gradient norm stopping tolerance")
    return parser


def _config(args):
    """The config file's settings, with `--out`, when given, as its [output] dir."""
    config = load_experiment_config(args.config)
    return config if args.out is None else replace(config, out_dir=args.out)


def cmd_run(args):
    config = _config(args)
    rows, code = run_experiment(config)
    unreachable = sum(1 for row in rows if row.iterations is None)
    print(f"wrote {len(rows)} rows to {config.out_dir}/results.csv"
          + (f" ({unreachable} unreachable)" if unreachable else ""))
    return code


def cmd_verify_lemmas(args):
    config = _config(args)
    reports = verify_lemmas(config)
    for report in reports:
        print(report)
    return 0 if all(r.passed for r in reports) else 2


def cmd_theory(args):
    grid = (_parse_list(args.eps, float, "--eps"), _parse_list(args.K, int, "--K"),
            _parse_list(args.H, int, "--H"))
    for flag, values in zip(("--eps", "--K", "--H"), grid):
        if not values:
            raise ConfigError(f"list {flag!r} must be nonempty")
    try:
        # every row is computed, so every value checked, before any is printed
        rows = theory_rows(*grid, args.rho)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"bad theory argument: {exc}")
    for row in [THEORY_HEADER] + rows:
        print(",".join(row))
    return 0


def cmd_fstar(args):
    lam = DatasetSpec.lam if args.lam is None else parse_lambda(args.lam)
    objective, reference = build_problem(DatasetSpec(
        kind="libsvm", path=args.dataset, lam=lam, fstar_tolerance=args.tolerance))
    print(f"n={objective.n} d={objective.d} lambda={objective.lam!r}")
    print(f"fstar={reference.f_star!r}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "verify-lemmas": cmd_verify_lemmas,
        "theory": cmd_theory,
        "fstar": cmd_fstar,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
