"""Dense references for the tests: the one dense displacement matrix in the
tree and a padded matrix exponential of the squeeze.

The associated-Laguerre closed form of <m|D(zeta)|n>, with an outer loop
over the offset d and an inner three-term recurrence in the degree n.
"""

import functools
import math

import numpy as np
from scipy.linalg import expm

# Levels of the padded squeeze; its leading dim x dim block is <m|S(r)|n> to
# rounding while dim cosh(2r) stays well below PAD (within 2e-14 of a
# 900-level one for dim <= 61 and |r| <= 0.81).
PAD = 300


def destroy(dim):
    """The annihilator a on |0>..|dim-1>."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


@functools.lru_cache(maxsize=None)
def padded_squeeze(r):
    """exp(r (a+^2 - a^2)/2) on PAD levels, the squeeze that scales q by e^r."""
    a = destroy(PAD)
    return expm(0.5 * r * (a.T @ a.T - a @ a))


def double_loop_displacement(zeta, dim):
    """Displacement matrices exp(zeta a+ - conj(zeta) a), shape (len(zeta), dim, dim).

    <n+d|D|n> = sqrt(n!/(n+d)!) zeta^d e^{-|zeta|^2/2} L_n^{(d)}(|zeta|^2) and
    <n|D|n+d> the same with (-conj zeta)^d.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    t = np.abs(zeta) ** 2
    emt = np.exp(-0.5 * t)
    lg = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    out = np.empty((len(zeta), dim, dim), dtype=complex)
    for d in range(dim):
        lag_prev, lag = np.zeros_like(t), np.ones_like(t)
        for n in range(dim - d):
            if n > 0:
                lag, lag_prev = ((2.0 * n - 1.0 + d - t) * lag - (n - 1.0 + d) * lag_prev) / n, lag
            val = (np.exp(0.5 * (lg[n] - lg[n + d])) * emt) * lag
            out[:, n + d, n] = val * zeta ** d
            out[:, n, n + d] = val * (-np.conj(zeta)) ** d
    return out


def displacement_matrix(x, y, dim):
    """Dense D(x,y) = exp(i(y q - x p)) on |0>..|dim-1>."""
    return double_loop_displacement([(x + 1j * y) / math.sqrt(2.0)], dim)[0]
