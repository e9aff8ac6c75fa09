"""Operator-level verification of the measurement-ensemble duality.

The dual member state at outcome (x, y) is rho^{1/2} m(x,y) rho^{1/2}
normalized, with m the POVM density.  For Gaussian inputs this must equal
the displaced Gaussian with covariance alpha' at the contracted outcome
coordinates; the check reports an upper bound on the worst trace-norm gap
over sampled outcomes on truncated Fock matrices, with rho^{1/2} =
S tau^{1/2} S+ from fock._gaussian_factor and D rho_beta D+, D' rho' D'+
exact (_kicked_vectors).  The bound is sqrt(dim) times the gap's
Hilbert-Schmidt norm, as ||M||_1 <= sqrt(rank M) ||M||_2, so no eigensolver
runs.
"""

import math

import numpy as np

from .core import InvalidForSharp
from .duality import dual_ensemble, kappa_matrix
from .fock import DEFAULT_N, _displaced_squeezed, _gauss_rule, _gaussian_factor, _noise_split


def _kicked_vectors(cq, cp, x, ys, buf):
    """Vectors c_j with sum_j |c_j><c_j| = P D(x,y) rho D(x,y)+ P, per y of ys.

    rho of covariance (cq, cp) is S(r)|0> kicked in momentum with variance
    kick (fock._noise_split): c_j = sqrt(w_j) D(x, y + v_j) S(r)|0>.
    <m|c><c|n> is exp(-(1 + tanh r)(y + v)^2/2) times a polynomial of degree
    < 2 dim in v, so the dim-node Gauss-Hermite rule for its product with the
    kick density is exact; no kick is one node, v = 0.  The rows, shape
    (len(ys), nodes, dim), are a view of buf, shape (dim + 1, len(ys), dim).
    """
    r, kick = _noise_split(cq, cp)
    if kick > 0.0:
        t, log_w = _gauss_rule(buf.shape[2])
        b = 1.0 + math.tanh(r)
        a = 0.5 / kick + 0.5 * b
        v = t / math.sqrt(a) - (0.5 * b / a) * ys[:, None]
        root_w = (np.exp(0.5 * (log_w + t * t - v * v / (2.0 * kick)))
                  / (2.0 * math.pi * kick * a) ** 0.25)
    else:
        v, root_w = np.zeros((len(ys), 1)), np.ones((len(ys), 1))
    rows = _displaced_squeezed(buf[:, :, :v.shape[1]], x, ys[:, None] + v, r)
    rows *= root_w[..., None]
    return rows


def dual_operator_check(alpha, beta, n_max=DEFAULT_N):
    """Upper bound on the max trace-norm gap between operator-built and
    closed-form dual states over a 5 x 5 grid of outcomes on [-2, 2]^2:
    sqrt(n_max + 1) times the largest gap's Hilbert-Schmidt norm, at most
    sqrt(n_max + 1) times the trace norm.

    Raises TruncationInsufficient when rho's trace misses 1, as
    fock._gaussian_factor does, since the normalized built states would hide
    that loss; rho_beta and rho' enter exactly, projected after displacement.
    """
    if beta.noise_type != 1:
        raise InvalidForSharp("operator duality check needs a finite-noise POVM")
    dual = dual_ensemble(alpha, beta)
    squeeze, root = _gaussian_factor(alpha, n_max)
    sqrt_bar = root @ squeeze.T

    # Outcome contraction (x, y) -> (x', y'): kappa (alpha + beta)^{-1}, diagonal.
    kappa_q, kappa_p = kappa_matrix(alpha)
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
