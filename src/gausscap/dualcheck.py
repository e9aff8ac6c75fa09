"""Operator-level verification of the measurement-ensemble duality.

The dual member state at outcome (x, y) is rho^{1/2} m(x,y) rho^{1/2}
normalized, with m the POVM density.  For Gaussian inputs this must equal
the displaced Gaussian with covariance alpha' at the contracted outcome
coordinates; the check reports an upper bound on the worst trace-norm gap
over sampled outcomes on truncated Fock matrices.  Every state comes from
fock._kicked_vectors: rho^{1/2}, a multiple of the Gaussian state of
covariance alpha + kappa, projected, and D rho_beta D+, D' rho' D'+
projected after displacement.  The bound is sqrt(dim) times the gap's
Hilbert-Schmidt norm, as ||M||_1 <= sqrt(rank M) ||M||_2, so no eigensolver
runs.
"""

import math

import numpy as np

from .core import InvalidForSharp
from .duality import dual_ensemble, kappa_matrix
from .fock import DEFAULT_N, _gaussian_matrix, _kicked_vectors, gaussian_state_fock


def dual_operator_check(alpha, beta, n_max=DEFAULT_N):
    """Upper bound on the max trace-norm gap between operator-built and
    closed-form dual states over a 5 x 5 grid of outcomes on [-2, 2]^2:
    sqrt(n_max + 1) times the largest gap's Hilbert-Schmidt norm, at most
    sqrt(n_max + 1) times the trace norm.

    Raises TruncationInsufficient when rho's trace misses 1, as
    gaussian_state_fock does, since the normalized built states would hide
    that loss; rho_beta and rho' enter exactly, projected after displacement.
    rho^{1/2} = S tau^{1/2} S+, and tau^{1/2} of the thermal state tau of
    ratio x is a multiple of the thermal state of ratio sqrt(x): the state
    of symplectic eigenvalue nu + sqrt(nu^2 - 1/4), nu = sqrt(a_q a_p), and
    the same squeeze, of covariance alpha + kappa.  The normalized dual
    states drop the multiple.
    """
    if beta.noise_type != 1:
        raise InvalidForSharp("operator duality check needs a finite-noise POVM")
    gaussian_state_fock(alpha, n_max)  # rho's own trace rule
    dual = dual_ensemble(alpha, beta)
    kappa_q, kappa_p = kappa_matrix(alpha)
    sqrt_bar = _gaussian_matrix(alpha.alpha_q + kappa_q, alpha.alpha_p + kappa_p, n_max + 1)

    # Outcome contraction (x, y) -> (x', y'): kappa (alpha + beta)^{-1}, diagonal.
    cx = kappa_q / (alpha.alpha_q + beta.beta_q)
    cy = kappa_p / (alpha.alpha_p + beta.beta_p)

    axis = np.linspace(-2.0, 2.0, 5)
    buf = np.empty((n_max + 2, len(axis), n_max + 1), complex)
    gaps = np.empty((len(axis), n_max + 1, n_max + 1), complex)
    worst_sq = 0.0
    for x in axis:
        for rows, gap in zip(_kicked_vectors(beta.beta_q, beta.beta_p, x, axis, buf), gaps):
            s = (sqrt_bar @ rows.T.view(float)).view(complex)
            np.divide(_gram(s), np.vdot(s, s).real, out=gap)
        prime = _kicked_vectors(dual.alpha_prime_q, dual.alpha_prime_p, cx * x, cy * axis, buf)
        for rows, gap in zip(prime, gaps):
            gap -= _gram(rows.T)
            flat = gap.view(float).ravel()
            worst_sq = max(worst_sq, float(flat @ flat))
    return math.sqrt((n_max + 1) * worst_sq)


def _gram(x):
    """x x+ as two float64 products on real views, below OpenBLAS's threading
    cut-off where the complex product crosses it: Re = X X^T and
    Im = Y X^T, X and Y the real views of x and -i x."""
    real = x.view(float)
    return real @ real.T + 1j * ((-1j * x).view(float) @ real.T)
