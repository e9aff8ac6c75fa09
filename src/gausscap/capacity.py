"""Closed-form capacities of one-mode Gaussian measurement channels.

Three parameter regimes (L, C, R) arise from the position of the
stationary squeezing (1/2)*sqrt(beta_q/beta_p) relative to the admissible
interval [1/(4 alpha_p), alpha_q].  In regime C the optimal-ensemble
structure is proven; in L and R it is conditional on the Gaussian-maximizer
hypothesis and results are flagged as hypothetical.
"""

import math
from enum import Enum

from .core import (
    NonPositive,
    NumericsError,
    OutOfInterval,
    _energy_value,
    _record,
    make_covariance,
    output_entropy_term,
)
from .optimize import golden_section_max


class Regime(str, Enum):
    L = "L"
    C = "C"
    R = "R"


class GaussianEnsembleSpec(_record("GaussianEnsembleSpec", "delta gamma_q gamma_p")):
    """Gaussian ensemble of squeezed coherent states.

    Members have quadrature variances (delta, 1/(4 delta)); displacements are
    centered Gaussian with covariance diag(gamma_q, gamma_p).
    """

    __slots__ = ()

    @property
    def average_covariance(self):
        return make_covariance(self.gamma_q + self.delta,
                               self.gamma_p + 0.25 / self.delta)


class CapacityResult(_record("CapacityResult", "capacity_nats optimal_alpha regime ensemble "
                             "hypothetical optimizer_check_nats cross_check_gap",
                             defaults=(None, None))):
    """optimizer_check_nats is the cross-check by direct maximization over the
    energy shell, cross_check_gap its distance from capacity_nats (None if skipped)."""

    __slots__ = ()


# Largest cross-check gap accepted where the closed form is proven (regime C).
CROSS_CHECK_TOL = 1e-9


def critical_squeezing(beta):
    """Stationary point of the ensemble objective: (1/2)sqrt(beta_q/beta_p)."""
    if beta.noise_type != 1:
        return 0.0
    return 0.5 * math.sqrt(beta.beta_q / beta.beta_p)


def squeezing_interval(alpha):
    """Admissible member squeezing range [1/(4 alpha_p), alpha_q]."""
    return 0.25 / alpha.alpha_p, alpha.alpha_q


def classify_regime(alpha, beta):
    """Regime tag; boundary ties go to C (both formulas agree there)."""
    lo, hi = squeezing_interval(alpha)
    crit = critical_squeezing(beta)
    if crit < lo:
        return Regime.L
    if crit > hi:
        return Regime.R
    return Regime.C


def ensemble_objective(delta, alpha, beta):
    """Average member output entropy term at squeezing delta (constant-free)."""
    lo, hi = squeezing_interval(alpha)
    slack = 1e-12 * max(1.0, hi)
    if not (lo - slack <= delta <= hi + slack):
        raise OutOfInterval(f"delta = {delta} outside [{lo}, {hi}]")
    if beta.noise_type == 1:
        return 0.5 * math.log((delta + beta.beta_q) * (0.25 / delta + beta.beta_p))
    return 0.5 * math.log(delta + beta.beta_q)


def optimal_squeezing(alpha, beta):
    """Minimizer of the ensemble objective: stationary point clamped to range."""
    lo, hi = squeezing_interval(alpha)
    return min(max(critical_squeezing(beta), lo), hi)


def e_closure(alpha, beta):
    """Convex-closure output entropy term under the Gaussian-maximizer ansatz.

    Equals the ensemble objective at the optimal squeezing; hypothetical in
    regimes L and R (see classify_regime).
    """
    d = optimal_squeezing(alpha, beta)
    if beta.noise_type == 1:
        return 0.5 * math.log((d + beta.beta_q) * (0.25 / d + beta.beta_p))
    return 0.5 * math.log(d + beta.beta_q)


def capacity_alpha(alpha, beta):
    """Capacity at fixed average-state covariance (entropy minus closure)."""
    return output_entropy_term(alpha, beta) - e_closure(alpha, beta)


def threshold_energy(beta_1, beta_2):
    """Energy threshold (beta_1 - beta_2 + sqrt(beta_1/beta_2))/2."""
    if beta_2 <= 0:
        raise OutOfInterval("threshold_energy requires beta_2 > 0")
    return 0.5 * (beta_1 - beta_2 + math.sqrt(beta_1 / beta_2))


def upper_bound(beta_q, E):
    """General capacity upper bound ln(2(E+beta_q)/(1+2 beta_q)); tight at beta_q=0."""
    if not (math.isfinite(beta_q) and beta_q >= 0):
        raise NonPositive(f"beta_q must be finite and >= 0, got {beta_q}")
    e = _energy_value(E)
    return math.log(2.0 * (e + beta_q) / (1.0 + 2.0 * beta_q))


def _noisy_position_ratio(E, beta_q):
    """(sqrt(1+8E bq+4bq^2)-1)/(2 bq), rationalized: no cancellation, 2E at bq=0."""
    return (4.0 * E + 2.0 * beta_q) / (
        math.sqrt(1.0 + 8.0 * E * beta_q + 4.0 * beta_q ** 2) + 1.0)


def _ensemble_for(alpha, beta):
    d = optimal_squeezing(alpha, beta)
    gq = max(alpha.alpha_q - d, 0.0)
    gp = max(alpha.alpha_p - 0.25 / d, 0.0)
    return GaussianEnsembleSpec(d, gq, gp)


def _shell_maximum(beta, E, xtol=1e-11):
    """Direct maximization of capacity_alpha over alpha_q + alpha_p = 2E."""
    # Both shell ends lie on alpha_q*alpha_p = 1/4.  Taking the lower end and
    # the partner quadrature from that product, not from E - sqrt(E^2 - 1/4)
    # or 2E - ap, avoids a cancellation that lands below the uncertainty
    # boundary for large E.
    hi = E + math.sqrt(max(E * E - 0.25, 0.0))
    lo = 0.25 / hi
    if hi - lo < 1e-14:
        a = make_covariance(E, E)
        return a.alpha_p, capacity_alpha(a, beta)

    def value(ap):
        return capacity_alpha(make_covariance(max(2.0 * E - ap, 0.25 / ap), ap), beta)

    # Coarse scan guards against the piecewise structure across regimes,
    # golden-section refines the winning bracket.
    n = 257
    step = (hi - lo) / (n - 1)
    best_i, best_v = 0, -math.inf
    for i in range(n):
        v = value(lo + i * step)
        if v > best_v:
            best_i, best_v = i, v
    a = max(lo, lo + (best_i - 1) * step)
    b = min(hi, lo + (best_i + 1) * step)
    return golden_section_max(value, a, b, xtol=xtol)


def capacity_energy(beta, E, cross_check=True):
    """Energy-constrained capacity with the optimizing covariance and ensemble.

    Selects the closed-form branch by the threshold conditions and, unless
    disabled, cross-checks it against a direct maximization over the energy
    shell alpha_q + alpha_p = 2E.  In regime C a gap above CROSS_CHECK_TOL
    raises NumericsError; in L and R, where the closed form rests on the
    Gaussian-maximizer hypothesis, the gap is only recorded.
    """
    e = _energy_value(E)
    bq = beta.beta_q

    if beta.noise_type != 1:
        # Position measurement: only the L branch exists (ratio -> 2E at bq=0).
        ratio = _noisy_position_ratio(e, bq)
        cap = math.log(ratio)
        ap = 0.5 * ratio
        aq = 2.0 * e - ap
        regime = Regime.L
    else:
        bp = beta.beta_p
        thr_l = threshold_energy(bp, bq)
        thr_r = threshold_energy(bq, bp)
        if e >= max(thr_l, thr_r):
            regime = Regime.C
            aq = e + 0.5 * (bp - bq)
            ap = e + 0.5 * (bq - bp)
            cap = math.log((e + 0.5 * (bq + bp)) / (math.sqrt(bq * bp) + 0.5))
        elif bq <= bp:
            regime = Regime.L
            ratio = _noisy_position_ratio(e, bq)
            cap = math.log(ratio)
            ap = 0.5 * ratio
            aq = 2.0 * e - ap
        else:
            regime = Regime.R
            ratio = _noisy_position_ratio(e, bp)
            cap = math.log(ratio)
            aq = 0.5 * ratio
            ap = 2.0 * e - aq

    alpha = make_covariance(aq, ap)
    check = gap = None
    if cross_check:
        _, check = _shell_maximum(beta, e)
        gap = abs(check - cap)
        if regime is Regime.C and not gap <= CROSS_CHECK_TOL:
            raise NumericsError(
                f"regime C capacity {cap} and shell maximum {check} differ by "
                f"{gap:.3e} > {CROSS_CHECK_TOL}"
            )
    return CapacityResult(
        capacity_nats=cap,
        optimal_alpha=alpha,
        regime=regime,
        ensemble=_ensemble_for(alpha, beta),
        hypothetical=regime is not Regime.C,
        optimizer_check_nats=check,
        cross_check_gap=gap,
    )
