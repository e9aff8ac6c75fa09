"""Ensemble-observable duality for one-mode Gaussian measurements.

A measurement of a Gaussian average state rho_alpha induces a dual Gaussian
ensemble: displaced copies of rho_alpha' with displacement covariance
gamma', where alpha' + gamma' = alpha.  The mutual information of the dual
ensemble under the sharp position measurement reproduces the L-regime
capacity formula.
"""

import math

from .core import InvalidForSharp, _record


class KappaMatrix(_record("KappaMatrix", "kappa_q kappa_p")):
    """Diagonal of sqrt(1 - 1/(4 a_q a_p)) * alpha; zero iff alpha is pure."""

    __slots__ = ()


class DualEnsemble(_record("DualEnsemble", "alpha_prime_q alpha_prime_p gamma_prime_q "
                           "gamma_prime_p")):
    """Dual Gaussian ensemble parameters (alpha', gamma') of a measurement."""

    __slots__ = ()


def kappa_matrix(alpha):
    aq, ap = alpha.alpha_q, alpha.alpha_p
    factor = math.sqrt(max(1.0 - 0.25 / (aq * ap), 0.0))
    return KappaMatrix(factor * aq, factor * ap)


def _contracted(kappa, a, b):
    """kappa^2 / (a + b); kappa (kappa / (a + b)) from halves where kappa^2 is
    no normal float or a + b overflows."""
    if 1.5e-154 < kappa < 1e154 and a + b < math.inf:
        return kappa ** 2 / (a + b)
    return kappa * (0.5 * kappa / (0.5 * a + 0.5 * b))


def _dual_variance(a, a_other, b):
    """a (b + c)/(a + b), c = 1/(4 a_other), as c + (1 - c/a) a b/(a + b): both terms
    are nonnegative, and a b/(a + b) = m/(1 + m/M), m = min(a, b), M = max(a, b), is a float."""
    c = 0.25 / a_other
    m, big = min(a, b), max(a, b)
    return c + (a - c) / a * (m / (1.0 + m / big))


def dual_ensemble(alpha, beta):
    """Dual ensemble via gamma' = kappa (alpha + beta)^{-1} kappa, alpha' = alpha - gamma'.

    alpha'_q is evaluated as alpha_q (beta_q + 1/(4 alpha_p)) / (alpha_q + beta_q),
    likewise for p (see _dual_variance), which avoids the cancellation in
    alpha - gamma' for strongly mixed alpha.  For the position-only
    measurement (beta_p = +inf) the momentum entries pass through unchanged.
    Sharp position (type 3) is excluded: the dual transform is not defined
    for it here.
    """
    if beta.noise_type == 3:
        raise InvalidForSharp("duality degenerates for the sharp position measurement")
    aq, ap = alpha.alpha_q, alpha.alpha_p
    k = kappa_matrix(alpha)
    gq = _contracted(k.kappa_q, aq, beta.beta_q)
    apq = _dual_variance(aq, ap, beta.beta_q)
    if beta.noise_type == 2:
        gp, app = 0.0, ap
    else:
        gp = _contracted(k.kappa_p, ap, beta.beta_p)
        app = _dual_variance(ap, aq, beta.beta_p)
    return DualEnsemble(apq, app, gq, gp)


def accessible_info_sharp_position(dual, beta):
    """Mutual information of the dual ensemble under sharp position readout.

    Equals (1/2) ln[(alpha'_q + gamma'_q)/alpha'_q], taken as log1p(gamma'_q/alpha'_q)
    or, where that ratio overflows, a difference of logs; in regime L this is the
    capacity at fixed alpha.  beta is not read: alpha' and gamma' already
    depend on it.  The argument stays for existing callers.
    """
    ratio = dual.gamma_prime_q / dual.alpha_prime_q
    if ratio < math.inf:
        return 0.5 * math.log1p(ratio)
    return 0.5 * (math.log(dual.gamma_prime_q) - math.log(dual.alpha_prime_q))
