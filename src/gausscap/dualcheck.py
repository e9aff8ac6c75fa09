"""Operator-level verification of the measurement-ensemble duality.

The dual member state at outcome (x, y) is rho^{1/2} m(x,y) rho^{1/2}
normalized, with m the POVM density.  For Gaussian inputs this must equal
the displaced Gaussian with covariance alpha' at the contracted outcome
coordinates; the check reports the worst trace-norm gap over sampled
outcomes on truncated Fock matrices.  The factors are exact columns of
fock.squeezed_thermal, rho = S tau S+: rho^{1/2} = S tau^{1/2} S+, and
D rho_beta D+ = A A+, D' rho' D'+ = B B+ with A and B the
displaced_amplitudes of the columns S tau^{1/2}.
"""

import numpy as np

from .core import InvalidForSharp, TruncationInsufficient, make_covariance
from .duality import dual_ensemble, kappa_matrix
from .fock import DEFAULT_N, DEFAULT_TRUNCATION_TOL, EIG_TOL, displaced_amplitudes
from .fock import squeezed_thermal


def _columns(cq, cp, dim):
    """Columns S tau^{1/2} of covariance (cq, cp), weights below EIG_TOL dropped.

    Raises on a thermal deficit over DEFAULT_TRUNCATION_TOL.
    """
    s, diag = squeezed_thermal(make_covariance(cq, cp), dim)
    if not 1.0 - diag.sum() <= DEFAULT_TRUNCATION_TOL:
        raise TruncationInsufficient(f"thermal deficit {1.0 - diag.sum():.3e} at N={dim - 1}")
    keep = diag > EIG_TOL * diag[0]
    return s[:, keep] * np.sqrt(diag[keep])


def _trace_norm(mat):
    """Trace norm of a Hermitian matrix: the sum of its absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(mat)).sum())


def dual_operator_check(alpha, beta, n_max=DEFAULT_N, sample_radius=2.0,
                        samples_per_axis=5):
    """Max trace-norm deviation between operator-built and closed-form dual states.

    Raises TruncationInsufficient when rho's trace misses 1 by more than
    DEFAULT_TRUNCATION_TOL, as the normalized built states would hide that
    loss; the truncations of rho_beta and rho' show in the gap, and only their
    thermal weights are held to that bound.
    """
    if beta.noise_type != 1:
        raise InvalidForSharp("operator duality check needs a finite-noise POVM")
    dual = dual_ensemble(alpha, beta)
    squeeze, diag = squeezed_thermal(alpha, n_max + 1)
    root = squeeze * np.sqrt(diag)
    deficit = 1.0 - np.vdot(root, root)
    if not deficit <= DEFAULT_TRUNCATION_TOL:
        raise TruncationInsufficient(f"trace deficit {deficit:.3e} of rho at N={n_max}")
    sqrt_bar = root @ squeeze.T
    noise = _columns(beta.beta_q, beta.beta_p, n_max + 1)
    prime = _columns(dual.alpha_prime_q, dual.alpha_prime_p, n_max + 1)

    # Outcome contraction (x, y) -> (x', y'): kappa (alpha + beta)^{-1}, diagonal.
    kappa_q, kappa_p = kappa_matrix(alpha)
    cx = kappa_q / (alpha.alpha_q + beta.beta_q)
    cy = kappa_p / (alpha.alpha_p + beta.beta_p)

    axis = np.linspace(-sample_radius, sample_radius, samples_per_axis)
    rows = zip(displaced_amplitudes(noise, axis, axis),
               displaced_amplitudes(prime, cx * axis, cy * axis))
    worst = 0.0
    for a_row, b_row in rows:
        for j in range(axis.shape[0]):
            s = sqrt_bar @ a_row[:, :, j]
            built = s @ s.conj().T / np.vdot(s, s).real
            b = b_row[:, :, j]
            worst = max(worst, _trace_norm(built - b @ b.conj().T))
    return worst
