"""Operator-level verification of the measurement-ensemble duality.

The dual member state at outcome (x, y) is rho^{1/2} m(x,y) rho^{1/2}
normalized, with m the POVM density.  For Gaussian inputs this must equal
the displaced Gaussian with covariance alpha' at the contracted outcome
coordinates; the check reports the worst trace-norm gap over sampled
outcomes on truncated Fock matrices.  Both displaced states come from the
square-root columns of the truncated Gaussian states: D rho_beta D+ = A A+
and D' rho' D'+ = B B+, with A and B from fock.displaced_amplitudes, one
(dim, rank) matrix per outcome.
"""

import numpy as np

from .core import InvalidForSharp, make_covariance
from .duality import dual_ensemble
from .fock import DEFAULT_N, displaced_amplitudes, gaussian_state_fock, square_root_columns


def _psd_sqrt(mat):
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _trace_norm(mat):
    """Trace norm of a Hermitian matrix: the sum of its absolute eigenvalues."""
    return float(np.abs(np.linalg.eigvalsh(mat)).sum())


def dual_operator_check(alpha, beta, n_max=DEFAULT_N, sample_radius=2.0,
                        samples_per_axis=5):
    """Max trace-norm deviation between operator-built and closed-form dual states."""
    if beta.noise_type != 1:
        raise InvalidForSharp("operator duality check needs a finite-noise POVM")
    dual = dual_ensemble(alpha, beta)
    sqrt_bar = _psd_sqrt(gaussian_state_fock(alpha, n_max).matrix)
    # Square-root columns of rho_beta and rho'.
    noise, prime = (
        square_root_columns(gaussian_state_fock(make_covariance(cq, cp), n_max).matrix)
        for cq, cp in ((beta.beta_q, beta.beta_p), (dual.alpha_prime_q, dual.alpha_prime_p)))

    # Outcome contraction (x, y) -> (x', y'): kappa (alpha + beta)^{-1}, diagonal.
    kq_scale = np.sqrt(max(1.0 - 0.25 / (alpha.alpha_q * alpha.alpha_p), 0.0))
    cx = kq_scale * alpha.alpha_q / (alpha.alpha_q + beta.beta_q)
    cy = kq_scale * alpha.alpha_p / (alpha.alpha_p + beta.beta_p)

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
