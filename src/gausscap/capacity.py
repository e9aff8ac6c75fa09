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
    """Energy threshold (beta_1 - beta_2 + sqrt(beta_1/beta_2))/2."""
    if beta_2 <= 0:
        raise OutOfInterval("threshold_energy requires beta_2 > 0")
    return 0.5 * (beta_1 - beta_2 + math.sqrt(beta_1 / beta_2))


def upper_bound(beta_q, E):
    """General capacity upper bound ln(2(E+beta_q)/(1+2 beta_q)); tight at beta_q=0."""
    if not (math.isfinite(beta_q) and beta_q >= 0):
        raise NonPositive(f"beta_q must be finite and >= 0, got {beta_q}")
    e = _energy_value(E)
    ratio = 2.0 * (e + beta_q) / (1.0 + 2.0 * beta_q)
    if ratio < math.inf:
        return math.log(ratio)
    # 2(E + beta_q) overflowed: an eighth of the ratio stays below 9e307.
    return math.log((0.0625 * e + 0.0625 * beta_q) / (0.25 + 0.5 * beta_q)) + math.log(8.0)


def _noisy_position_ratio(E, beta_q):
    """(r, r - 1) for r = (sqrt(1+8E bq+4bq^2)-1)/(2 bq), rationalized; r = 2E at bq=0."""
    try:  # beta_q * beta_q would round differently on about 1 input in 1e5
        root = math.sqrt(1.0 + 8.0 * E * beta_q + 4.0 * beta_q ** 2)
    except OverflowError:
        root = math.inf
    if root == math.inf:  # the 1s are below roundoff beside 2bq: r = sqrt((2E + bq) / bq)
        ratio = math.sqrt(1.0 + 2.0 * E / beta_q)
        if ratio < math.inf:
            return ratio, (2.0 * E - 1.0) / beta_q / (ratio + 1.0)
    else:
        ratio = (4.0 * E + 2.0 * beta_q) / (root + 1.0)
        if ratio < math.inf:
            return ratio, (4.0 * E - 2.0) / (root + 2.0 * beta_q + 1.0)
    # 8E overflowed and bq < 2E/1.8e308, 0 included: the forms above over 4.
    quarter = math.sqrt(0.0625 + 0.5 * (E * beta_q) + 0.25 * beta_q ** 2)
    return (E + 0.5 * beta_q) / (quarter + 0.25), (E - 0.5) / (quarter + 0.5 * beta_q + 0.25)


def _ensemble_for(alpha, beta):
    d = optimal_squeezing(alpha, beta)
    gq = max(alpha.alpha_q - d, 0.0)
    gp = max(alpha.alpha_p - 0.25 / d, 0.0)
    return GaussianEnsembleSpec(d, gq, gp)


def _golden_section_max(f, a, b, xtol):
    """Maximize a unimodal f on [a, b] (a <= b); returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(300):
        if b - a <= xtol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    if x == math.inf:  # a + b overflowed
        x = a + 0.5 * (b - a)
    return x, f(x)


def _shell_maximum(beta, E, xtol=1e-11):
    """Direct maximization of capacity_alpha over alpha_q + alpha_p = 2E."""
    # Both shell ends lie on alpha_q*alpha_p = 1/4.  Taking the lower end and
    # the partner quadrature from that product, not from E - sqrt(E^2 - 1/4)
    # or 2E - ap, avoids a cancellation that lands below the uncertainty
    # boundary for large E.
    # From E = 2^26 the end is 2E to the bit; E*E overflows from E = 1.3e154.
    hi = 2.0 * E if E >= 2.0 ** 26 else E + math.sqrt(max(E * E - 0.25, 0.0))
    lo = 0.25 / hi
    if hi == math.inf:  # from E = 9e307: the part of the shell where alpha_q is a float
        lo, hi = E - (sys.float_info.max - E), sys.float_info.max
    if hi - lo < 1e-14:
        a = make_covariance(E, E)
        return a.alpha_p, capacity_alpha(a, beta)

    def value(ap):
        aq = max(2.0 * E - ap, 0.25 / ap)
        if aq == math.inf:  # 2E overflowed, ap >= 2E - 1.8e308
            aq = E + (E - ap)
        return capacity_alpha(make_covariance(aq, ap), beta)

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
    return _golden_section_max(value, a, b, xtol)


def capacity_energy(beta, E, cross_check=True):
    """Energy-constrained capacity with the optimizing covariance and ensemble.

    Selects the closed-form branch by the threshold conditions and, unless
    disabled, cross-checks it against a direct maximization over the energy
    shell alpha_q + alpha_p = 2E.  In regime C a gap above CROSS_CHECK_TOL
    raises NumericsError; in L and R, where the closed form rests on the
    Gaussian-maximizer hypothesis, the gap is only recorded.
    """
    e = _energy_value(E)
    bq, bp = beta.beta_q, beta.beta_p

    if beta.noise_type == 1 and e >= max(threshold_energy(bp, bq), threshold_energy(bq, bp)):
        regime = Regime.C
        aq = e + 0.5 * (bp - bq)
        ap = e + 0.5 * (bq - bp)
        root = math.sqrt(bq * bp)
        top = e + 0.5 * (bq + bp)
        if root == math.inf:
            # bq * bp overflowed, and the ratio can be 1 to the last bit: log1p
            # of ratio - 1 = (e - 1/2 + d^2 / 2) / (sqrt(bq bp) + 1/2), with
            # d = sqrt bq - sqrt bp taken from bq - bp, numerator and
            # denominator halved to stay below 9e307.
            sq, sp = math.sqrt(bq), math.sqrt(bp)
            d = (bq - bp) / (sq + sp)
            cap = math.log1p((0.5 * (e - 0.5) + 0.25 * d * d) / (0.5 * sq * sp + 0.25))
        elif top < math.inf:
            cap = math.log(top / (root + 0.5))
        else:  # the numerator overflowed: halved, the ratio's terms stay below 9e307
            cap = math.log((0.5 * e + 0.25 * bq + 0.25 * bp) / (0.5 * root + 0.25))
        if not max(aq, ap) < math.inf:
            raise NumericsError(f"the optimal covariance E + |beta_q - beta_p|/2 at E = {e} "
                                f"exceeds the float range")
    else:
        # Noisy position L, or its mirror R if bp < bq; bp = inf for types 2, 3.
        mirror = bq > bp
        regime = Regime.R if mirror else Regime.L
        ratio, excess = _noisy_position_ratio(e, bp if mirror else bq)
        low, high = 0.5 * ratio, 2.0 * e - 0.5 * ratio
        if not high < math.inf:
            raise NumericsError(f"the optimal covariance 2E - r/2 at E = {e} exceeds the "
                                f"float range")
        cap = math.log1p(excess)
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
    return CapacityResult(
        capacity_nats=cap,
        optimal_alpha=alpha,
        regime=regime,
        ensemble=_ensemble_for(alpha, beta),
        hypothetical=regime is not Regime.C,
        optimizer_check_nats=check,
        cross_check_gap=gap,
    )
