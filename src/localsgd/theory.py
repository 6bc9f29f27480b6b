"""Closed-form convergence bounds and the communication-cost speedup model.

All functions are pure evaluators of the expressions the simulations are
checked against: the synchronous suboptimality bound for the weighted
output average, its asymptotic simplification, the delayed-visibility
variant, the rough iterations-to-accuracy model T(eps, H, K), and the
resulting speedup S(K) once communication rounds are priced at rho
gradient-computation times per exchanged vector.
"""

from __future__ import annotations

from math import isfinite, sqrt

from .averaging import sum_of_weights
from .schedules import TheoremDecayStep, validate_shift


def _check_positive(**kwargs):
    for name, value in kwargs.items():
        if not (isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value}")


def theorem1_bound(constants, K, T, H, b, a, r0) -> float:
    """Suboptimality bound for the output average of a synchronous run.

        mu a^3 r0 / (2 S_T)
        + 4 T (T + 2a) (sigma^2 / b) / (mu K S_T)
        + 256 T G^2 H^2 L / (mu^2 S_T)

    with S_T the sum of the quadratic weights and r0 the squared distance
    of the start point to the minimizer.  Requires the stepsize shift
    a > max(16 kappa, H).  A mini-batch of size b scales the variance term
    by 1/b.
    """
    _check_positive(K=K, T=T, H=H, b=b)
    if r0 < 0:
        raise ValueError("r0 must be nonnegative")
    return _suboptimality_bound(constants, K, T, b, a, r0, 256.0, H)


def theorem2_bound(constants, K, T, H, tau, b, a, r0) -> float:
    """Suboptimality bound under write staleness up to tau steps.

    Identical to the synchronous bound except the drift term becomes
    768 T G^2 (H + tau)^2 L / (mu^2 S_T) and the shift must satisfy
    a > max(16 kappa, H + tau).
    """
    _check_positive(K=K, T=T, H=H, b=b)
    if r0 < 0 or tau < 0:
        raise ValueError("r0 and tau must be nonnegative")
    return _suboptimality_bound(constants, K, T, b, a, r0, 768.0, H + tau)


def _suboptimality_bound(constants, K, T, b, a, r0, drift_constant, window):
    """Bias + variance + drift, the drift being
    drift_constant T G^2 window^2 L / (mu^2 S_T); requires
    a > max(16 kappa, window).
    """
    validate_shift(TheoremDecayStep(mu=constants.mu, a=a), (constants.mu, constants.L),
                   window)
    S_T = sum_of_weights(a, T)
    mu = constants.mu
    bias = mu * a**3 * r0 / (2.0 * S_T)
    variance = 4.0 * T * (T + 2.0 * a) * (constants.sigma_sq / b) / (mu * K * S_T)
    drift = drift_constant * T * constants.G_sq * window**2 * constants.L / (mu**2 * S_T)
    return bias + variance + drift


def corollary_bound(constants, K, T, H, b) -> float:
    """Asymptotic form of the synchronous bound, all O-constants set to 1.

        (1/(mu K T b) + (kappa + H)/(mu K T^2 b)) sigma^2
        + (kappa H^2 / (mu T^2) + (kappa^3 + H^3)/(mu T^3)) G^2

    obtained at shift a = max(16 kappa, H) and with mu ||x0 - x*|| bounded
    by 2G.  This is a qualitative model; the exact bound above is the
    normative one.
    """
    _check_positive(K=K, T=T, H=H, b=b)
    mu = constants.mu
    kappa = constants.kappa
    sigma_sq = constants.sigma_sq / b
    variance = sigma_sq / (mu * K * T) + (kappa + H) * sigma_sq / (mu * K * T**2)
    drift = (
        kappa * H**2 * constants.G_sq / (mu * T**2)
        + (kappa**3 + H**3) * constants.G_sq / (mu * T**3)
    )
    return variance + drift


def _accuracy_factor(eps, H, K) -> float:
    """A(K) = 1/2 + 1/2 sqrt(1 + eps (1 + H + H^2 K)), the accuracy factor of the model."""
    return 0.5 + 0.5 * sqrt(1.0 + eps * (1.0 + H + H**2 * K))


def iterations_estimate(eps, H, K) -> float:
    """Rough model of the steps needed to reach accuracy eps:

        T(eps, H, K) = A(K) / (K eps)

    with A the accuracy factor.  A planning device, not a guarantee.
    """
    _check_positive(eps=eps, H=H, K=K)
    return _accuracy_factor(eps, H, K) / (K * eps)


def step_cost(K, H, rho) -> float:
    """Wall-clock of one step in gradient-computation times: 1 + 2 rho (K - 1) / H.

    Each of the T/H communication rounds exchanges 2(K-1) vectors at rho
    gradient-times per vector.
    """
    return 1.0 + 2.0 * rho * (K - 1) / H


def check_cost_ratio(rho) -> None:
    """Reject a cost ratio rho (gradient times per exchanged vector) unless finite and >= 1."""
    if not (isfinite(rho) and rho >= 1):
        raise ValueError(f"cost ratio rho must be finite and >= 1, got {rho}")


def speedup(K, H, eps, rho) -> float:
    """Modeled speedup over single-worker SGD under communication cost rho.

        S(K) = K A(1) / [ A(K) * (1 + 2 rho (K - 1) / H) ],
        A(k) = 1/2 + 1/2 sqrt(1 + eps (1 + H + H^2 k))

    The accuracy factor A is normalized against its single-worker value so
    that one worker always scores exactly 1; at eps = 0 both factors are 1
    and the expression reduces to K / (1 + 2 rho (K - 1) / H).  The second
    factor is `step_cost`.
    """
    _check_positive(K=K, H=H)
    check_cost_ratio(rho)
    if not (isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    return K * _accuracy_factor(eps, H, 1) / (_accuracy_factor(eps, H, K) * step_cost(K, H, rho))
