"""Truncated Fock-basis operators: ladder matrices, displacement, Gaussian states.

Matrices act on the span of |0>..|N> (dimension N+1).  Displacement matrix
elements use the associated-Laguerre closed form, evaluated by the stable
three-term recurrence in the degree: one Python loop over the degree,
vectorized over the diagonal offset and the points.  Accuracy degrades
once the displacement magnitude approaches the truncation edge; elements
are reliable for |zeta|^2 well below N/2 (zeta = (x+iy)/sqrt(2)).  Displacement
matrices serve the operator-level checks (dualcheck, quantum_charfn);
outcome densities are evaluated in the position representation by grids.
Squeezes come from one cached eigendecomposition of the squeeze generator
per dimension, so the module needs numpy only.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import TruncationInsufficient

DEFAULT_N = 60
DEFAULT_TRUNCATION_TOL = 1e-8


@dataclass(frozen=True)
class FockOperator:
    """Dense operator on the truncated Fock basis."""

    matrix: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]

    @property
    def n_max(self):
        return self.matrix.shape[0] - 1


def state_array(state):
    """The ndarray of a FockOperator, density matrix or state vector."""
    if isinstance(state, FockOperator):
        return state.matrix
    return np.asarray(state)


def destroy(dim):
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def position_operator(dim):
    a = destroy(dim)
    return (a + a.T) / math.sqrt(2.0)


def momentum_operator(dim):
    a = destroy(dim)
    return -1j * (a - a.T) / math.sqrt(2.0)


@functools.lru_cache(maxsize=16)
def _squeeze_eigenbasis(dim):
    """Eigenpairs (lam, V) of the Hermitian i*G, G = (a+^2 - a^2)/2; read-only."""
    a = destroy(dim)
    gen = 0.5 * (a.T @ a.T - a @ a)
    lam, vecs = np.linalg.eigh(1j * gen)
    lam.flags.writeable = False
    vecs.flags.writeable = False
    return lam, vecs


def squeeze_matrix(r, dim):
    """exp(r(a+^2 - a^2)/2); scales the position quadrature by e^r.

    G is real, so exp(rG) = Re(V diag(e^{-i r lam}) V+) with (lam, V) the
    eigenpairs of i*G, which do not depend on r.
    """
    lam, vecs = _squeeze_eigenbasis(dim)
    return ((vecs * np.exp(-1j * r * lam)) @ vecs.conj().T).real


def thermal_diagonal(n_bar, dim):
    """Geometric photon-number weights of a thermal state."""
    if n_bar <= 0:
        diag = np.zeros(dim)
        diag[0] = 1.0
        return diag
    ratio = n_bar / (n_bar + 1.0)
    return ratio ** np.arange(dim) / (n_bar + 1.0)


def gaussian_state_fock(alpha, n_max=DEFAULT_N, tol=DEFAULT_TRUNCATION_TOL):
    """Squeezed thermal state with covariance diag(alpha_q, alpha_p).

    Thermal occupation n_bar = sqrt(a_q a_p) - 1/2 conjugated by the squeeze
    with r = (1/4) ln(a_q/a_p).  Raises TruncationInsufficient when the
    retained thermal weight falls short of 1 by more than tol.
    """
    dim = n_max + 1
    n_bar = math.sqrt(alpha.alpha_q * alpha.alpha_p) - 0.5
    diag = thermal_diagonal(n_bar, dim)
    deficit = abs(1.0 - diag.sum())
    if deficit > tol:
        raise TruncationInsufficient(
            f"thermal trace deficit {deficit:.3e} > {tol} at N={n_max} (n_bar={n_bar:.3f})"
        )
    r = 0.25 * math.log(alpha.alpha_q / alpha.alpha_p)
    if r == 0.0:
        return FockOperator(np.diag(diag).astype(complex))
    s = squeeze_matrix(r, dim)
    rho = (s * diag) @ s.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return FockOperator(rho)


def displacement_batch(zeta, dim):
    """Displacement matrices exp(zeta a+ - conj(zeta) a) for an array of zeta.

    Returns shape (len(zeta), dim, dim).  Elements for m = n + d, d >= 0:
    sqrt(n!/m!) zeta^d e^{-|zeta|^2/2} L_n^{(d)}(|zeta|^2), with the
    upper triangle from D(zeta)+ = D(-zeta).  One loop over the degree n
    carries L_n^{(d)} for every offset d and every point as a (points, dim-n)
    array and writes column n below the diagonal and row n above it.
    """
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    g = zeta.shape[0]
    t = (np.abs(zeta) ** 2)[:, None]
    emt = np.exp(-0.5 * t)
    lg = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    d = np.arange(dim)
    zd = zeta[:, None] ** d
    zdc = (-np.conj(zeta))[:, None] ** d
    out = np.empty((g, dim, dim), dtype=complex)
    lag, lag_prev = np.ones((g, dim)), np.zeros((g, dim))
    for n in range(dim):
        k = dim - n
        if n > 0:
            lag, lag_prev = ((2.0 * n - 1.0 + d[:k] - t) * lag[:, :k]
                             - (n - 1.0 + d[:k]) * lag_prev[:, :k]) / n, lag
        val = (np.exp(0.5 * (lg[n] - lg[n:])) * emt) * lag
        out[:, n:, n] = val * zd[:, :k]
        out[:, n, n + 1:] = val[:, 1:] * zdc[:, 1:k]
    return out


def displacement_fock(x, y, n_max=DEFAULT_N):
    """Unitary displacement D(x,y) = exp(i(y q - x p)) on the truncated basis."""
    zeta = (x + 1j * y) / math.sqrt(2.0)
    return FockOperator(displacement_batch([zeta], n_max + 1)[0])


def displaced_squeezed_vector(x, y, r, dim, fock_amplitudes=None):
    """State vector D(x,y) S(r) |psi0>, psi0 defaulting to vacuum.

    fock_amplitudes optionally gives the pre-squeeze expansion of psi0 in
    the number basis (normalized internally).
    """
    amps = np.asarray([1.0] if fock_amplitudes is None else fock_amplitudes, dtype=complex)
    base = np.zeros(dim, dtype=complex)
    base[: amps.shape[0]] = amps
    base /= np.linalg.norm(base)
    if r != 0.0:
        base = squeeze_matrix(r, dim) @ base
    zeta = (x + 1j * y) / math.sqrt(2.0)
    return displacement_batch([zeta], dim)[0] @ base


def state_moments(rho):
    """Means and variances of (q, p) for a density matrix or state vector."""
    mat = state_array(rho)
    dim = mat.shape[0]
    q = position_operator(dim)
    p = momentum_operator(dim)
    if mat.ndim == 2:
        mq = np.trace(mat @ q).real
        mp = np.trace(mat @ p).real
        vq = np.trace(mat @ (q @ q)).real - mq ** 2
        vp = np.trace(mat @ (p @ p)).real - mp ** 2
    else:
        v = mat
        mq = np.vdot(v, q @ v).real
        mp = np.vdot(v, p @ v).real
        vq = np.vdot(v, q @ (q @ v)).real - mq ** 2
        vp = np.vdot(v, p @ (p @ v)).real - mp ** 2
    return mq, mp, vq, vp


def quantum_charfn(rho):
    """Characteristic function phi(x, y) = Tr[rho D(x,y)] as a vectorized callable."""
    mat = state_array(rho)
    dim = mat.shape[0]

    def phi(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        shape = np.broadcast(x, y).shape
        zeta = ((x + 1j * y) / math.sqrt(2.0)).ravel()
        d = displacement_batch(zeta, dim)
        vals = np.einsum("gij,ji->g", d, mat)
        return vals.reshape(shape) if shape else vals[0]

    return phi
