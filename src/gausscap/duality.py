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
                           "gamma_prime_p parent_alpha")):
    """Dual Gaussian ensemble parameters (alpha', gamma') of a measurement."""

    __slots__ = ()


def kappa_matrix(alpha):
    aq, ap = alpha.alpha_q, alpha.alpha_p
    factor = math.sqrt(max(1.0 - 0.25 / (aq * ap), 0.0))
    return KappaMatrix(factor * aq, factor * ap)


def dual_ensemble(alpha, beta):
    """Dual ensemble via gamma' = kappa (alpha + beta)^{-1} kappa, alpha' = alpha - gamma'.

    alpha'_q is evaluated as alpha_q (beta_q + 1/(4 alpha_p)) / (alpha_q + beta_q),
    likewise for p, which avoids the cancellation in alpha - gamma' for
    strongly mixed alpha.  For the position-only measurement (beta_p = +inf)
    the momentum entries pass through unchanged.  Sharp position (type 3) is
    excluded: the dual transform is not defined for it here.
    """
    if beta.noise_type == 3:
        raise InvalidForSharp("duality degenerates for the sharp position measurement")
    aq, ap = alpha.alpha_q, alpha.alpha_p
    k = kappa_matrix(alpha)
    gq = k.kappa_q ** 2 / (aq + beta.beta_q)
    apq = aq * (beta.beta_q + 0.25 / ap) / (aq + beta.beta_q)
    if beta.noise_type == 2:
        gp, app = 0.0, ap
    else:
        gp = k.kappa_p ** 2 / (ap + beta.beta_p)
        app = ap * (beta.beta_p + 0.25 / aq) / (ap + beta.beta_p)
    return DualEnsemble(apq, app, gq, gp, alpha)


def accessible_info_sharp_position(dual, beta):
    """Mutual information of the dual ensemble under sharp position readout.

    Equals (1/2) ln[(alpha'_q + gamma'_q)/alpha'_q]; in regime L this is the
    capacity at fixed alpha.  The dual ensemble already carries beta; the
    argument is kept so existing callers need not change.
    """
    return 0.5 * math.log(dual.parent_alpha.alpha_q / dual.alpha_prime_q)
