"""Domain types and Gaussian output primitives for one bosonic mode.

Conventions: hbar = 1, vacuum quadrature variance 1/2, natural logarithms
(nats) everywhere.  Momentum noise beta_p may be +inf (homodyne-like
measurements); the infinite case is dispatched structurally through the
noise type tag, never by evaluating a finite-noise formula at a sentinel.

Records are immutable named tuples; a record that validates does so in
``__new__``, and ``_replace`` goes through it too.
"""

import math
from collections import namedtuple

# Relative slack accepted on the uncertainty boundary alpha_q*alpha_p = 1/4.
BOUNDARY_RTOL = 1e-12


class GausscapError(Exception):
    """Base class for all library errors."""


class ValidationError(GausscapError):
    """Invalid domain input."""


class HeisenbergViolation(ValidationError):
    pass


class NonPositive(ValidationError):
    pass


class InvalidSharp(ValidationError):
    """beta_q = 0 requires beta_p = +inf."""


class EnergyBelowVacuum(ValidationError):
    pass


class OutOfInterval(ValidationError):
    pass


class InvalidForSharp(ValidationError):
    """Operation undefined for the sharp position measurement."""


class NumericsError(GausscapError):
    """Numerical procedure failed (exit-worthy, not a usage error)."""


class TruncationInsufficient(NumericsError):
    pass


class NegativeDensity(NumericsError):
    pass


class NormalizationFailure(NumericsError):
    pass


def _is_count(value, least):
    """Whether value is an integer >= least; bools and floats are not counts."""
    return not isinstance(value, bool) and hasattr(value, "__index__") and value >= least


def _record(name, fields, defaults=()):
    """Named-tuple base whose _make, and so _replace, builds through cls(...)."""
    base = namedtuple(name, fields, defaults=defaults)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class OneModeCovariance(_record("OneModeCovariance", "alpha_q alpha_p")):
    """Diagonal covariance diag(alpha_q, alpha_p) of a centered Gaussian state."""

    __slots__ = ()

    def __new__(cls, alpha_q, alpha_p):
        aq, ap = alpha_q, alpha_p
        if not (math.isfinite(aq) and math.isfinite(ap)):
            raise NonPositive("covariance entries must be finite")
        if aq <= 0 or ap <= 0:
            raise NonPositive(f"covariance entries must be positive, got ({aq}, {ap})")
        if aq * ap < 0.25 * (1.0 - BOUNDARY_RTOL):
            raise HeisenbergViolation(
                f"alpha_q*alpha_p = {aq * ap} < 1/4 is not an admissible state"
            )
        return super().__new__(cls, aq, ap)


def make_covariance(alpha_q, alpha_p):
    """Validated covariance of a centered one-mode Gaussian state."""
    return OneModeCovariance(float(alpha_q), float(alpha_p))


class MeasurementNoise(_record("MeasurementNoise", "beta_q beta_p")):
    """POVM noise diag(beta_q, beta_p); beta_p = +inf for homodyne-like types.

    Type tags: 1 both finite, 2 noisy position (beta_p = +inf), 3 sharp
    position (beta_q = 0, beta_p = +inf).
    """

    __slots__ = ()

    def __new__(cls, beta_q, beta_p):
        bq, bp = beta_q, beta_p
        if not math.isfinite(bq) or bq < 0:
            raise NonPositive(f"beta_q must be finite and >= 0, got {bq}")
        if bp <= 0 or math.isnan(bp):
            raise NonPositive(f"beta_p must be > 0 (possibly +inf), got {bp}")
        if bq == 0 and math.isfinite(bp):
            raise InvalidSharp("beta_q = 0 is only admissible with beta_p = +inf")
        if math.isfinite(bp) and bq * bp < 0.25 * (1.0 - BOUNDARY_RTOL):
            raise HeisenbergViolation(
                f"beta_q*beta_p = {bq * bp} < 1/4 is not an admissible noise"
            )
        return super().__new__(cls, bq, bp)

    @property
    def noise_type(self):
        if math.isfinite(self.beta_p):
            return 1
        return 3 if self.beta_q == 0 else 2


def make_noise(beta_q, beta_p):
    """Validated measurement noise with derivable type tag."""
    return MeasurementNoise(float(beta_q), float(beta_p))


def _energy_value(E):
    """The mean energy bound E for H = (q^2 + p^2)/2 as a float, at least 1/2 (vacuum).

    E a relative BOUNDARY_RTOL below 1/2 is accepted as the vacuum energy 1/2.
    """
    e = float(E)
    if not math.isfinite(e) or e < 0.5 * (1.0 - BOUNDARY_RTOL):
        raise EnergyBelowVacuum(f"E must be >= 1/2 (vacuum energy), got {e}")
    return max(e, 0.5)


class OutputGaussian(_record("OutputGaussian", "var_q var_p")):
    """Variances of the measurement outcome distribution for a Gaussian input."""

    __slots__ = ()


def output_density(alpha, beta):
    """Outcome Gaussian of the measurement: noise adds to the state covariance."""
    return OutputGaussian(alpha.alpha_q + beta.beta_q, alpha.alpha_p + beta.beta_p)


def output_entropy_term(alpha, beta):
    """Output differential entropy of a Gaussian state, up to a fixed constant.

    Returns (1/2) ln[(alpha_q+beta_q)(alpha_p+beta_p)] for two-outcome noise,
    (1/2) ln(alpha_q+beta_q) for the position-only types.  The additive
    constant set by the reference measure cancels in every information
    quantity and is never materialized.
    """
    return _entropy_term(alpha.alpha_q, alpha.alpha_p, beta)


def _log_sum(a, b):
    """ln(a + b), from the halves where a + b overflows."""
    total = a + b
    return math.log(total) if total < math.inf else math.log(0.5 * a + 0.5 * b) + math.log(2.0)


def _entropy_term(aq, ap, beta):
    """The output entropy term at variances (aq, ap), unvalidated."""
    if beta.noise_type != 1:
        return 0.5 * _log_sum(aq, beta.beta_q)
    vq, vp = aq + beta.beta_q, ap + beta.beta_p  # vq * vp overflows from about E = 1e154
    if vq * vp < math.inf:
        return 0.5 * math.log(vq * vp)
    return 0.5 * (_log_sum(aq, beta.beta_q) + _log_sum(ap, beta.beta_p))
