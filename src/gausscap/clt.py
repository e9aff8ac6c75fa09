"""Quantum central-limit convergence of symmetrized states, via characteristic functions.

Mixing n = 2^m copies of a state through the Hadamard-pattern orthogonal
symplectic transform leaves each non-trivial marginal with characteristic
function phi(z/sqrt(n))^(n/2) phi(-z/sqrt(n))^(n/2).  Every characteristic
function has phi(-z) = conj(phi(z)), so that is |phi(z/sqrt(n))|^n, one
evaluation of phi per n; it converges to the Gaussian with the state's
covariance.  Gaussian inputs are exact fixed points of the scaling.
"""

import math

import numpy as np

from .core import NonPositive, _is_count


def gaussian_charfn(alpha):
    """Characteristic function of the centered Gaussian state with covariance alpha."""

    def phi(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.exp(-0.5 * (alpha.alpha_p * x ** 2 + alpha.alpha_q * y ** 2))

    return phi


def clt_marginal_charfn(phi, n, x, y):
    """Characteristic function |phi(z/sqrt(n))|^n of a marginal after the n-copy transform."""
    if not _is_count(n, 2) or n & (n - 1):
        raise NonPositive(f"n must be an integer power of two >= 2, got {n!r}")
    s = math.sqrt(n)
    return np.abs(phi(np.asarray(x) / s, np.asarray(y) / s)) ** n


def clt_convergence_report(phi, alpha, n_list, half_width=4.0, nodes=41):
    """Sup-grid deviation from the limiting Gaussian for each n.

    Returns a list of (n, sup |marginal - gaussian|) over the square grid
    |x|, |y| <= half_width.  The sequence is reported as computed; no
    monotonicity is enforced.
    """
    if not (0 < half_width < math.inf) or not _is_count(nodes, 1):
        raise NonPositive(
            f"need finite half_width > 0 and an integer nodes >= 1, got {half_width} and {nodes}")
    axis = np.linspace(-half_width, half_width, nodes)
    xg, yg = np.meshgrid(axis, axis, indexing="ij")
    target = gaussian_charfn(alpha)(xg, yg)
    report = []
    for n in n_list:
        dev = np.abs(clt_marginal_charfn(phi, n, xg, yg) - target)
        report.append((n, float(dev.max())))
    return report
