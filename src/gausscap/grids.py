"""Quadrature grids, POVM outcome densities, entropies and mutual information.

Outcome densities are taken relative to Lebesgue measure; the reference
measure constant therefore drops from every difference of entropies.  The
workhorse is OutputSampler.  It evaluates every density in the position
representation, on one Gauss-Legendre grid of inner positions with the
oscillator eigenfunctions tabulated on it: type 1 from the overlaps of the
states with the displaced noise eigenvectors, one Fourier matmul per outcome
row; type 2 as the Gaussian smearing of the states' position distributions.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import InvalidForSharp, NormalizationFailure, make_covariance
from .fock import DEFAULT_N, gaussian_state_fock, state_array, state_moments

# Eigenvalues below this fraction of the largest are dropped from states and noise.
_EIG_TOL = 1e-13


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Legendre window, half_width in output standard deviations."""

    half_width: float = 8.0
    nodes_per_axis: int = 200


@dataclass(frozen=True)
class DiscreteEnsemble:
    """Finite ensemble of Fock-basis states with positive weights summing to 1."""

    weights: np.ndarray
    states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("ensemble weights must be positive")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights sum to {w.sum()}, expected 1")
        if len(self.states) != w.shape[0]:
            raise ValueError("weights and states length mismatch")

    def __len__(self):
        return len(self.states)


def _hermite_functions(q, dim):
    """Oscillator eigenfunctions psi_n(q), n < dim, shape (dim, len(q))."""
    q = np.asarray(q, dtype=float)
    psi = np.empty((dim, q.shape[0]))
    psi[0] = math.pi ** -0.25 * np.exp(-0.5 * q * q)
    if dim > 1:
        psi[1] = math.sqrt(2.0) * q * psi[0]
    for n in range(2, dim):
        psi[n] = (math.sqrt(2.0 / n) * q * psi[n - 1]
                  - math.sqrt((n - 1.0) / n) * psi[n - 2])
    return psi


@functools.lru_cache(maxsize=32)
def _leggauss(n):
    """Gauss-Legendre nodes and weights on [-1, 1]; read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _inner_grid(dim, reach):
    """Inner positions q, weights and psi_n(q), n < dim, on [-q_max, q_max].

    q_max = sqrt(2 dim) + 6 covers the Fock support.  The integrands are a
    product of two truncated Fock-space functions, each with wavenumbers up
    to sqrt(2 dim), times a factor with wavenumbers up to reach.
    Gauss-Legendre resolves them once the node count exceeds q_max times the
    total wavenumber over 2; 32 nodes more take the error to rounding.  The
    count is capped at 6000 nodes.
    """
    q_max = math.sqrt(2.0 * dim) + 6.0
    n = int(0.5 * q_max * (reach + 2.0 * math.sqrt(2.0 * dim))) + 32
    x, w = _leggauss(min(n, 6000))
    q = q_max * x
    return q, q_max * w, _hermite_functions(q, dim)


def _state_components(states):
    """(P, V): column k of V is an eigenvector of state i with weight P[i, k].

    A state vector is one normalized column with weight 1.
    """
    comps = []
    for s in states:
        mat = state_array(s)
        if mat.ndim == 1:
            comps.append((np.ones(1), (mat / np.linalg.norm(mat))[:, None]))
            continue
        vals, vecs = np.linalg.eigh(mat)
        keep = vals > _EIG_TOL * max(vals.max(), 1.0)
        comps.append((vals[keep], vecs[:, keep]))
    vecs = np.hstack([v for _, v in comps])
    probs = np.zeros((len(comps), vecs.shape[1]))
    col = 0
    for i, (p, _) in enumerate(comps):
        probs[i, col:col + p.shape[0]] = p
        col += p.shape[0]
    return probs, vecs


class OutputSampler:
    """Evaluates POVM outcome densities of Fock states for a fixed noise.

    Type 1 (finite beta): two-dimensional outcomes, density
    Tr[rho D(x,y) rho_beta D(x,y)+]/(2 pi) = sum_r <f_r|D+ rho D|f_r>/(2 pi),
    with f_r the columns of factor: the eigenvectors of rho_beta scaled by
    sqrt(eigenvalue).  Type 2 (beta_p = +inf): one-dimensional,
    Tr[rho exp(-(q-x)^2/(2 beta_q))]/sqrt(2 pi beta_q), the Gaussian smearing
    of the position distribution of rho.  Both are integrals over the inner
    grid of _inner_grid, sized for the outcome points at hand.
    """

    def __init__(self, beta, dim=DEFAULT_N + 1):
        if beta.noise_type == 3:
            raise InvalidForSharp("no POVM matrix family for the sharp measurement")
        self.beta = beta
        self.dim = dim
        self.outcome_dim = 2 if beta.noise_type == 1 else 1
        if beta.noise_type == 1:
            rho_b = gaussian_state_fock(
                make_covariance(beta.beta_q, beta.beta_p), dim - 1
            )
            # rho_beta is real: its covariance is diagonal.
            vals, vecs = np.linalg.eigh(rho_b.matrix.real)
            keep = vals > _EIG_TOL * vals.max()
            self.factor = vecs[:, keep] * np.sqrt(vals[keep])

    def densities(self, states, points):
        """Density rows for each state at the given outcome points.

        points: array (G, 2) for type 1 or (G,) for type 2.  Returns
        (n_states, G) real array.  Type 1 builds its amplitudes one outcome
        row at a time.
        """
        return self._evaluate(states, *self._amplitudes(points))

    def bind(self, points):
        """densities(states, points) for fixed points, as a function of states.

        The amplitudes of every outcome row are built once, here.
        """
        psi, rows, index = self._amplitudes(points)
        rows = [np.concatenate(list(rows), axis=-1)]
        return lambda states: self._evaluate(states, psi, rows, index)

    def _amplitudes(self, points):
        """Point-dependent factors on the tensor of the distinct x and y values.

        Returns (psi, rows, index): the Hermite functions of the inner grid,
        an iterable of factors whose last axis runs over outcome points, and
        the position of each given point in the row-major tensor.  Type 1
        rows are the amplitudes A[n, r, y] = <n|D(x,y)|f_r> of one x each,
        up to a phase per point; type 2 has one row, the smearing kernel
        (Q, n_x) with the quadrature weights folded in.
        """
        points = np.asarray(points, dtype=float)
        if self.outcome_dim == 1:
            xs, index = np.unique(points.ravel(), return_inverse=True)
            bq = self.beta.beta_q
            # The kernel's Fourier transform exp(-k^2 bq/2) is e^-32 at this k.
            q, w, psi = _inner_grid(self.dim, 8.0 / math.sqrt(bq))
            kernel = np.exp(-((q[:, None] - xs[None, :]) ** 2) / (2.0 * bq))
            kernel *= (w / math.sqrt(2.0 * math.pi * bq))[:, None]
            return psi, [kernel], index
        xs, ix = np.unique(points[:, 0], return_inverse=True)
        ys, iy = np.unique(points[:, 1], return_inverse=True)
        q, w, psi = _inner_grid(self.dim, float(np.abs(ys).max()))
        return psi, self._rows(q, psi * w, xs, ys), ix * ys.shape[0] + iy

    def _rows(self, q, psi_w, xs, ys):
        """Type-1 amplitudes of each outcome row x, shape (dim, rank, n_y).

        <q|D(x,y)|f> = e^{-ixy/2} e^{iyq} f(q-x), so up to that phase
        <n|D(x,y)|f_r> = int psi_n(q) f_r(q-x) e^{iyq} dq: a real
        (dim rank, Q) matrix times the fixed Fourier kernel (Q, n_y).
        """
        fourier = np.hstack([np.cos(np.outer(q, ys)), np.sin(np.outer(q, ys))])
        ny = ys.shape[0]
        for x in xs:
            shifted = self.factor.T @ _hermite_functions(q - x, self.dim)
            c = (psi_w[:, None, :] * shifted[None, :, :]).reshape(-1, q.shape[0])
            re_im = c @ fourier
            yield (re_im[:, :ny] + 1j * re_im[:, ny:]).reshape(self.dim, -1, ny)

    def _evaluate(self, states, psi, rows, index):
        """Densities of the states at the points whose factors _amplitudes gave."""
        probs, vecs = _state_components(states)
        if self.outcome_dim == 1:
            position = probs @ (np.abs(psi.T @ vecs) ** 2).T  # (n_states, Q)
            out = np.concatenate([position @ kernel for kernel in rows], axis=1)
        else:
            blocks = []
            for a in rows:
                dim, rank, g = a.shape
                overlap = np.abs(vecs.conj().T @ a.reshape(dim, rank * g)) ** 2
                blocks.append((probs @ overlap).reshape(-1, rank, g).sum(axis=1))
            out = np.concatenate(blocks, axis=1) / (2.0 * math.pi)
        return out[:, index]


def povm_density(rho, beta, x, y=0.0):
    """Outcome density of a single state at one point (convenience wrapper)."""
    sampler = OutputSampler(beta, state_array(rho).shape[0])
    if sampler.outcome_dim == 2:
        pts = np.array([[x, y]])
    else:
        pts = np.array([x])
    return float(sampler.densities([rho], pts)[0, 0])


def _gauss_legendre_axis(center, sigma, half_width, nodes):
    x, w = _leggauss(nodes)
    scale = half_width * sigma
    return center + scale * x, scale * w


def _grid_nodes(means, sigmas, grid):
    """Tensor nodes/weights over windows center +- half_width*sigma per axis."""
    n = grid.nodes_per_axis
    axes = [_gauss_legendre_axis(m, s, grid.half_width, n) for m, s in zip(means, sigmas)]
    if len(axes) == 1:
        return axes[0][0], axes[0][1]
    xg, yg = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
    wg = np.outer(axes[0][1], axes[1][1])
    pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
    return pts, wg.ravel()


def _output_window(moments, beta):
    """Means and standard deviations of the output Gaussian for state moments."""
    mq, mp, vq, vp = moments
    if beta.noise_type == 1:
        means = (mq, mp)
        sigmas = (math.sqrt(vq + beta.beta_q), math.sqrt(vp + beta.beta_p))
    else:
        means = (mq,)
        sigmas = (math.sqrt(vq + beta.beta_q),)
    return means, sigmas


def _entropy_from_density(p, w):
    mask = p > 0
    return -float(np.dot(w[mask], p[mask] * np.log(p[mask])))


def numeric_output_entropy(rho, beta, grid=QuadratureGrid(), mass_tol=1e-6):
    """Lebesgue differential entropy of the outcome density, in nats.

    The grid window is centered on the state's output Gaussian.
    """
    means, sigmas = _output_window(state_moments(rho), beta)
    pts, w = _grid_nodes(means, sigmas, grid)
    sampler = OutputSampler(beta, state_array(rho).shape[0])
    p = sampler.densities([rho], pts)[0]
    mass = float(np.dot(w, p))
    if abs(mass - 1.0) > mass_tol:
        raise NormalizationFailure(
            f"density mass {mass} deviates from 1 beyond {mass_tol}"
        )
    return _entropy_from_density(p, w)


def _average_moments(weights, states):
    """Means and variances of (q, p) for the weighted mixture of the states."""
    stats = [state_moments(s) for s in states]
    w = np.asarray(weights, dtype=float)
    mq = sum(wi * s[0] for wi, s in zip(w, stats))
    mp = sum(wi * s[1] for wi, s in zip(w, stats))
    eq2 = sum(wi * (s[2] + s[0] ** 2) for wi, s in zip(w, stats))
    ep2 = sum(wi * (s[3] + s[1] ** 2) for wi, s in zip(w, stats))
    return mq, mp, eq2 - mq ** 2, ep2 - mp ** 2


def _information(weights, dens, qweights):
    """(h(sum_i w_i p_i) - sum_i w_i h(p_i), mass of the average density).

    dens holds one density row p_i per member on quadrature weights qweights.
    """
    avg = weights @ dens
    h_avg = _entropy_from_density(avg, qweights)
    h_members = sum(
        wi * _entropy_from_density(dens[i], qweights) for i, wi in enumerate(weights)
    )
    return h_avg - h_members, float(np.dot(qweights, avg))


def mutual_information(ens, beta, grid=QuadratureGrid(), mass_tol=1e-6):
    """I = h(average output) - sum_i w_i h(member output), on a shared grid.

    The Lebesgue-reference constants cancel exactly between the two terms.
    """
    moments = _average_moments(ens.weights, ens.states)
    means, sigmas = _output_window(moments, beta)
    dim = max(state_array(s).shape[0] for s in ens.states)
    pts, w = _grid_nodes(means, sigmas, grid)
    dens = OutputSampler(beta, dim).densities(ens.states, pts)
    mi, mass = _information(np.asarray(ens.weights, dtype=float), dens, w)
    if abs(mass - 1.0) > mass_tol:
        raise NormalizationFailure(
            f"average density mass {mass} deviates from 1 beyond {mass_tol}"
        )
    return mi


def discretize_gaussian_ensemble(spec, beta=None, nodes=15, n_max=DEFAULT_N):
    """Gauss-Hermite discretization of a Gaussian squeezed-coherent ensemble.

    Displacements follow the ensemble's Gaussian with covariance
    diag(gamma_q, gamma_p); axes with zero variance collapse to a point.
    Returns a DiscreteEnsemble of pure displaced squeezed states.
    """
    from .fock import displaced_squeezed_vector

    r = 0.5 * math.log(2.0 * spec.delta)
    dim = n_max + 1

    def axis(var):
        if var <= 0:
            return np.zeros(1), np.ones(1)
        x, w = np.polynomial.hermite_e.hermegauss(nodes)
        return x * math.sqrt(var), w / w.sum()

    xs, wx = axis(spec.gamma_q)
    ys, wy = axis(spec.gamma_p)
    weights, states = [], []
    for xi, wxi in zip(xs, wx):
        for yi, wyi in zip(ys, wy):
            weights.append(wxi * wyi)
            states.append(displaced_squeezed_vector(xi, yi, r, dim))
    return DiscreteEnsemble(np.asarray(weights), tuple(states))
