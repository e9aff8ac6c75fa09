"""Closed-form capacities of one-mode Gaussian measurement channels.

Three parameter regimes (L, C, R) arise from the position of the
stationary squeezing (1/2)*sqrt(beta_q/beta_p) relative to the admissible
interval [1/(4 alpha_p), alpha_q].  In regime C the optimal-ensemble
structure is proven; in L and R it is conditional on the Gaussian-maximizer
hypothesis and results are flagged as hypothetical.
"""

import math
import sys
from enum import Enum

from .core import (
    NonPositive,
    NumericsError,
    OutOfInterval,
    _energy_value,
    _entropy_term,
    _record,
    make_covariance,
)


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


class CapacityResult(_record("CapacityResult", "capacity_nats optimal_alpha regime ensemble "
                             "hypothetical optimizer_check_nats cross_check_gap",
                             defaults=(None, None))):
    """optimizer_check_nats is the cross-check by direct maximization over the
    energy shell, cross_check_gap its distance from capacity_nats (None if skipped)."""

    __slots__ = ()


# Largest cross-check gap accepted where the closed form is proven (regime C).
CROSS_CHECK_TOL = 1e-9
# Bracket width at which the shell maximum's golden-section search stops.
SHELL_XTOL = 1e-11


def critical_squeezing(beta):
    """Stationary point of the ensemble objective: (1/2)sqrt(beta_q/beta_p)."""
    if beta.noise_type != 1:
        return 0.0
    ratio = beta.beta_q / beta.beta_p
    if sys.float_info.min <= ratio < math.inf:
        return 0.5 * math.sqrt(ratio)
    return 0.5 * math.sqrt(beta.beta_q) / math.sqrt(beta.beta_p)  # the ratio over/underflowed


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
    return _entropy_term(delta, 0.25 / delta, beta)


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
    return _entropy_term(d, 0.25 / d, beta)


def capacity_alpha(alpha, beta):
    """Capacity at fixed average-state covariance (entropy minus closure)."""
    return _entropy_term(alpha.alpha_q, alpha.alpha_p, beta) - e_closure(alpha, beta)


def threshold_energy(beta_1, beta_2):
    """Energy threshold (beta_1 - beta_2 + sqrt(beta_1/beta_2))/2; needs finite
    beta_1 >= 0 and beta_2 > 0, or raises OutOfInterval."""
    if not (0 <= beta_1 < math.inf and 0 < beta_2 < math.inf):
        raise OutOfInterval("threshold_energy requires finite beta_1 >= 0 and beta_2 > 0")
    return 0.5 * (beta_1 - beta_2 + math.sqrt(beta_1) / math.sqrt(beta_2))


def upper_bound(beta_q, E):
    """General capacity upper bound ln(2(E+beta_q)/(1+2 beta_q)); tight at beta_q=0."""
    if not (math.isfinite(beta_q) and beta_q >= 0):
        raise NonPositive(f"beta_q must be finite and >= 0, got {beta_q}")
    e = _energy_value(E)
    excess = (e - 0.5) / (beta_q + 0.5)  # the ratio minus 1
    if excess < math.inf:
        return math.log1p(excess)
    # beta_q < 1/2 and E > 9e307: log1p is ln here, and half the excess is a float.
    return math.log(0.5 * (e - 0.5) / (beta_q + 0.5)) + math.log(2.0)


def _noisy_position_ratio(E, beta_q):
    """(r/2, r - 1) for r = (sqrt(1+8E bq+4bq^2)-1)/(2 bq), rationalized; r = 2E at bq=0.

    g = sqrt(1 + 8E bq + 4bq^2)/4 is a hypot of terms that stay floats, and so
    are the scaled numerators and r/2 <= E, for every E and bq up to 1.8e308.
    """
    g = math.hypot(0.25, 0.5 * beta_q, math.sqrt(0.5 * E) * math.sqrt(beta_q))
    return ((0.25 * E + 0.125 * beta_q) / (0.5 * g + 0.125),
            (0.5 * E - 0.25) / (0.5 * g + 0.25 * beta_q + 0.125))


def _ensemble_for(alpha, beta):
    d = optimal_squeezing(alpha, beta)
    gq = max(alpha.alpha_q - d, 0.0)
    gp = max(alpha.alpha_p - 0.25 / d, 0.0)
    return GaussianEnsembleSpec(d, gq, gp)


def _golden_section_max(f, a, b):
    """Maximize a unimodal f on [a, b]; returns the best (f(x), x) evaluated.

    Stops once b - a <= SHELL_XTOL.  Every step shrinks the bracket, a NaN
    value too, as long as the float spacing on [a, b] is below SHELL_XTOL.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > SHELL_XTOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max((fc, c), (fd, d))  # every step kept the better inner point


def _shell_maximum(beta, E):
    """(w, capacity_alpha) of the best covariance found on alpha_q + alpha_p = 2E."""
    # One coordinate w in [-L, L] runs over the shell: the smaller entry is
    # s = e^(ln E - |w|), alpha_q for w < 0 and alpha_p for w > 0, the other
    # E + (E - s), so s keeps its relative precision however small next to E.
    # The ends lie on alpha_q*alpha_p = 1/4, which no cancellation takes below
    # 1/4.  From E = 9e307 on, the shell keeps to where E + (E - s) is a float.
    top = sys.float_info.max
    hi = min(E + math.sqrt(max(E - 0.5, 0.0)) * math.sqrt(E + 0.5), top)
    lo = max(0.25 / hi, E - (top - E))
    ln_e = math.log(E)

    def at(w):
        s = math.exp(ln_e - abs(w))
        s = lo if s < lo else hi if s > hi else s  # clamped against exp's rounding
        other = max(E + (E - s), 0.25 / s)
        return capacity_alpha(make_covariance(s, other) if w < 0 else make_covariance(other, s),
                              beta)

    if E - lo < 1e-14:
        return 0.0, at(0.0)
    half = ln_e - math.log(lo)  # L < 1421, where the float spacing is below SHELL_XTOL
    # A scan of 257 points, w = 0 the middle, guards against the regimes' kinks.
    step = half / 128
    best_v, best_w = -math.inf, 0.0
    for i in range(-128, 129):
        v = at(i * step)
        if v > best_v:
            best_v, best_w = v, i * step
    v, w = _golden_section_max(at, max(-half, best_w - step), min(half, best_w + step))
    return (w, v) if v > best_v else (best_w, best_v)


def capacity_energy(beta, E, cross_check=True):
    """Energy-constrained capacity with the optimizing covariance and ensemble.

    Regime C where its covariance E -+ (beta_q - beta_p)/2 reaches the
    stationary squeezing on both axes, noisy position (L, or R mirrored)
    otherwise.  Unless disabled, a direct maximization over the energy shell
    alpha_q + alpha_p = 2E cross-checks the closed form: in regime C a gap
    above CROSS_CHECK_TOL raises NumericsError; in L and R, which rest on the
    Gaussian-maximizer hypothesis, the gap is only recorded.
    """
    e = _energy_value(E)
    bq, bp = beta.beta_q, beta.beta_p
    sq, sp = math.sqrt(bq), math.sqrt(bp)
    # Regime C's covariance, correctly rounded by fsum: no cancellation at the
    # threshold, inf past the float range.  Types 2 and 3 have none (-inf).
    aq = ap = -math.inf
    if beta.noise_type == 1:
        aq = 2.0 * math.fsum((0.5 * e, 0.25 * bp, -0.25 * bq))
        ap = 2.0 * math.fsum((0.5 * e, 0.25 * bq, -0.25 * bp))
    crit = critical_squeezing(beta)
    if aq >= crit and ap >= 0.25 / crit:  # both reach the stationary squeezing
        regime = Regime.C
        if not max(aq, ap) < math.inf:
            raise NumericsError(f"the optimal covariance E + |beta_q - beta_p|/2 at E = {e} "
                                f"exceeds the float range")
        # ln (E + (bq + bp)/2) / (sqrt(bq bp) + 1/2) as log1p of the ratio minus 1,
        # halved, with d = sqrt(bq) - sqrt(bp) taken from bq - bp.
        d = (bq - bp) / (sq + sp)
        cap = math.log1p((0.5 * e - 0.25 + 0.25 * d * d) / (0.5 * sq * sp + 0.25))
    else:
        # Noisy position L, or its mirror R if bp < bq; bp = inf for types 2, 3.
        mirror = bq > bp
        regime = Regime.R if mirror else Regime.L
        low, excess = _noisy_position_ratio(e, bp if mirror else bq)
        high = e + (e - low)
        if not high < math.inf:
            raise NumericsError(f"the optimal covariance E + (E - r/2) at E = {e} exceeds the "
                                f"float range")
        # r - 1 is no float once r/2 passes 9e307; log1p is ln there, ln r = ln(r/2) + ln 2.
        cap = math.log1p(excess) if excess < math.inf else math.log(low) + math.log(2.0)
        aq, ap = (low, high) if mirror else (high, low)

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
    return CapacityResult(capacity_nats=cap, optimal_alpha=alpha, regime=regime,
                          ensemble=_ensemble_for(alpha, beta), hypothetical=regime is not Regime.C,
                          optimizer_check_nats=check, cross_check_gap=gap)
