#!/usr/bin/env python3
"""Monte-Carlo verification of the inequalities behind the bounds.

Each inequality that powers the convergence analysis is checked as an
executable statement on the quadratic fixture: run many seeded
simulations, measure the left-hand side, compare against the closed-form
right-hand side at three standard errors.
"""

from localsgd import lemma_suite, make_quadratic
from localsgd.lemmas import LEMMA_DEFAULTS

objective, reference, _ = make_quadratic(d=10, mu=1.0, L=4.0, n=64, noise=1.0, seed=7)

print(f"running five checks ({LEMMA_DEFAULTS['runs']} seeds / "
      f"{LEMMA_DEFAULTS['trials']} resamples each)...\n")
reports = lemma_suite(objective, reference)
for report in reports:
    print(report)

print("\nall passed" if all(r.passed for r in reports) else "\nSOME CHECKS FAILED")
