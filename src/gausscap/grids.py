"""Quadrature grids, POVM outcome densities, entropies and mutual information.

Outcome densities are taken relative to Lebesgue measure; the reference
measure constant therefore drops from every difference of entropies.  The
workhorse is OutputSampler.  It evaluates every density in the position
representation, on one Gauss-Legendre grid of inner positions with the
oscillator eigenfunctions tabulated on it: type 1 from the amplitudes of the
displaced noise eigenvectors, one Fourier matmul per outcome row
(fock.displaced_amplitudes, shared with the operator checks); type 2 as the
Gaussian smearing of the states' position distributions.  Type-1 amplitudes
are taken in whichever basis has fewer vectors: the states' own
eigen-components, reduced over the noise rank one block at a time, or the
Fock levels, overlapped with the components afterwards (bind, whose states
are not known in advance, and ensembles with at least as many components
as levels).  Entropies and
mutual information stream the densities on the tensor quadrature grid one
outcome row at a time into one reducer (_information), so no
(states x outcome points) array is held.  Discretized Gaussian ensembles are
exact projections of their members onto the truncated basis
(fock.displaced_squeezed_vector).
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidForSharp,
    NonPositive,
    NormalizationFailure,
    TruncationInsufficient,
    make_covariance,
)
from .fock import (
    DEFAULT_N,
    EIG_TOL,
    _inner_grid,
    _leggauss,
    displaced_amplitudes,
    displaced_squeezed_vector,
    gaussian_state_fock,
    square_root_columns,
    state_array,
    state_moments,
)


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Legendre window, half_width in output standard deviations."""

    half_width: float = 8.0
    nodes_per_axis: int = 200

    def __post_init__(self):
        if not (0 < self.half_width < math.inf) or self.nodes_per_axis < 1:
            raise NonPositive(
                f"need finite half_width > 0 and nodes_per_axis >= 1, got "
                f"{self.half_width} and {self.nodes_per_axis}"
            )


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


def _state_components(states, dim):
    """(P, V): column k of V is an eigenvector of state i with weight P[i, k].

    A state vector is one normalized column with weight 1.  Columns are
    zero-padded to dim rows, which is exact in the Fock basis.  A state whose
    norm (trace) is not positive and finite raises TruncationInsufficient.
    """
    comps = []
    for s in states:
        mat = state_array(s)
        norm = np.linalg.norm(mat) if mat.ndim == 1 else np.trace(mat).real
        if not 0.0 < norm < math.inf:
            raise TruncationInsufficient(f"state norm {norm} is not positive and finite")
        if mat.ndim == 1:
            comps.append((np.ones(1), (mat / norm)[:, None]))
            continue
        vals, vecs = np.linalg.eigh(mat)
        keep = vals > EIG_TOL * max(vals.max(), 1.0)
        comps.append((vals[keep], vecs[:, keep]))
    cols = sum(p.shape[0] for p, _ in comps)
    vecs = np.zeros((dim, cols), dtype=np.result_type(*(v for _, v in comps)))
    probs = np.zeros((len(comps), cols))
    col = 0
    for i, (p, v) in enumerate(comps):
        vecs[:v.shape[0], col:col + p.shape[0]] = v
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
    grid of fock._inner_grid, sized for the outcome points at hand.  On a
    tensor grid of outcomes, stream yields the densities one outcome row at a
    time; densities and bind give them at arbitrary points.
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
            self.factor = square_root_columns(rho_b.matrix.real)

    def densities(self, states, points):
        """Density rows for each state at the given outcome points.

        points: array (G, 2) for type 1 or (G,) for type 2.  Returns
        (n_states, G) real array.
        """
        axes, index = self._tensor(points)
        return np.concatenate(list(self.stream(states, axes)), axis=1)[:, index]

    def bind(self, points):
        """densities(states, points) for fixed points, as a function of states.

        The point-dependent factors are built once, here, in the Fock basis:
        the states are not known yet.
        """
        axes, index = self._tensor(points)
        if self.outcome_dim == 1:
            psi, kernel = self._smearing(*axes)
            return lambda states: (_position_density(
                *_state_components(states, self.dim), psi) @ kernel)[:, index]
        amps = np.concatenate(list(displaced_amplitudes(self.factor, *axes)), axis=-1)
        return lambda states: _fock_density(*_state_components(states, self.dim), amps)[:, index]

    def stream(self, states, axes):
        """Densities of the states on the tensor grid of axes, one outcome row at a time.

        axes: (xs, ys) for type 1, (xs,) for type 2.  Type 1 yields one
        (n_states, len(ys)) block per x of xs; type 2 yields one
        (n_states, len(xs)) block.  Type 1 takes the basis with fewer bras:
        the states' eigen-components when there are fewer of them than Fock
        levels, the Fock basis otherwise.
        """
        probs, vecs = _state_components(states, self.dim)
        if self.outcome_dim == 1:
            psi, kernel = self._smearing(*axes)
            yield _position_density(probs, vecs, psi) @ kernel
            return
        if vecs.shape[1] >= self.dim:
            for amps in displaced_amplitudes(self.factor, *axes):
                yield _fock_density(probs, vecs, amps)
            return
        for blocks in displaced_amplitudes(self.factor, *axes, vecs):
            # sum_r |<v_k|D|f_r>|^2 per component k, one block of components at a time
            noise = np.concatenate([(a.real ** 2 + a.imag ** 2).sum(axis=1) for a in blocks])
            yield probs @ noise / (2.0 * math.pi)

    def _tensor(self, points):
        """(axes, index): the distinct values per outcome axis and each point's tensor position.

        The position counts row-major over the tensor grid of the axes.
        """
        points = np.asarray(points, dtype=float)
        if self.outcome_dim == 1:
            xs, index = np.unique(points.ravel(), return_inverse=True)
            return (xs,), index
        xs, ix = np.unique(points[:, 0], return_inverse=True)
        ys, iy = np.unique(points[:, 1], return_inverse=True)
        return (xs, ys), ix * ys.shape[0] + iy

    def _smearing(self, xs):
        """Type-2 factors (psi, kernel): the inner grid's Hermite functions and smearing kernel.

        The kernel (Q, n_x) has the quadrature weights folded in.
        """
        bq = self.beta.beta_q
        # The kernel's Fourier transform exp(-k^2 bq/2) is e^-32 at this k.
        q, w, psi = _inner_grid(self.dim, 8.0 / math.sqrt(bq))
        kernel = np.exp(-((q[:, None] - xs[None, :]) ** 2) / (2.0 * bq))
        kernel *= (w / math.sqrt(2.0 * math.pi * bq))[:, None]
        return psi, kernel


def _position_density(probs, vecs, psi):
    """(n_states, Q): position densities of the states at the inner nodes of psi."""
    return probs @ (np.abs(psi.T @ vecs) ** 2).T


def _fock_density(probs, vecs, amps):
    """Type-1 densities of the states from the amplitudes amps[n, r, y] = <n|D|f_r>."""
    dim, rank, g = amps.shape
    overlap = np.abs(vecs.conj().T @ amps.reshape(dim, rank * g)) ** 2
    return (probs @ overlap).reshape(-1, rank, g).sum(axis=1) / (2.0 * math.pi)


def povm_density(rho, beta, x, y=0.0):
    """Outcome density of a single state at one point (convenience wrapper)."""
    sampler = OutputSampler(beta, state_array(rho).shape[0])
    if sampler.outcome_dim == 2:
        pts = np.array([[x, y]])
    else:
        pts = np.array([x])
    return float(sampler.densities([rho], pts)[0, 0])


def _grid_axes(means, sigmas, grid):
    """Gauss-Legendre (nodes, weights) per axis over center +- half_width*sigma."""
    x, w = _leggauss(grid.nodes_per_axis)
    return [(m + grid.half_width * s * x, grid.half_width * s * w)
            for m, s in zip(means, sigmas)]


def _grid_nodes(means, sigmas, grid):
    """Nodes/weights of the tensor of _grid_axes, flattened row-major (x outer)."""
    axes = _grid_axes(means, sigmas, grid)
    if len(axes) == 1:
        return axes[0]
    (xs, wx), (ys, wy) = axes
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([xg.ravel(), yg.ravel()], axis=1), np.outer(wx, wy).ravel()


def _grid_blocks(sampler, states, axes):
    """(densities, quadrature weights) of the states per outcome row of the axes' tensor."""
    nodes, weights = zip(*axes)
    row_weights = [weights[0]] if len(axes) == 1 else (wx * weights[1] for wx in weights[0])
    return zip(sampler.stream(states, nodes), row_weights)


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


def _information(weights, blocks):
    """(h(avg), h(avg) - sum_i w_i h(p_i), mass of avg), avg = sum_i w_i p_i.

    blocks yields (p, qweights) pairs: densities p (members, points) on part
    of the outcome grid and the quadrature weights of those points.  An
    entropy -sum qweights p log p takes the densities > 0 only.
    """
    h_avg = h_members = mass = 0.0
    for p, qweights in blocks:
        rows = np.vstack([weights @ p, p])
        positive = rows > 0
        ent = -(np.where(positive, rows * np.log(np.where(positive, rows, 1.0)), 0.0) @ qweights)
        h_avg += ent[0]
        h_members += weights @ ent[1:]
        mass += rows[0] @ qweights
    return float(h_avg), float(h_avg - h_members), float(mass)


def numeric_output_entropy(rho, beta, grid=QuadratureGrid(), mass_tol=1e-6):
    """Lebesgue differential entropy of the outcome density, in nats.

    The grid window is centered on the state's output Gaussian.
    """
    axes = _grid_axes(*_output_window(state_moments(rho), beta), grid)
    sampler = OutputSampler(beta, state_array(rho).shape[0])
    h, _, mass = _information(np.ones(1), _grid_blocks(sampler, [rho], axes))
    if not abs(mass - 1.0) <= mass_tol:  # a NaN mass fails too
        raise NormalizationFailure(
            f"density mass {mass} deviates from 1 beyond {mass_tol}"
        )
    return h


def _average_moments(weights, states):
    """Means and variances of (q, p) for the weighted mixture of the states."""
    stats = [state_moments(s) for s in states]
    w = np.asarray(weights, dtype=float)
    mq = sum(wi * s[0] for wi, s in zip(w, stats))
    mp = sum(wi * s[1] for wi, s in zip(w, stats))
    eq2 = sum(wi * (s[2] + s[0] ** 2) for wi, s in zip(w, stats))
    ep2 = sum(wi * (s[3] + s[1] ** 2) for wi, s in zip(w, stats))
    return mq, mp, eq2 - mq ** 2, ep2 - mp ** 2


def mutual_information(ens, beta, grid=QuadratureGrid(), mass_tol=1e-6):
    """I = h(average output) - sum_i w_i h(member output), on a shared grid.

    The Lebesgue-reference constants cancel exactly between the two terms.
    Members of different dimensions are zero-padded to the largest.
    """
    axes = _grid_axes(*_output_window(_average_moments(ens.weights, ens.states), beta), grid)
    sampler = OutputSampler(beta, max(state_array(s).shape[0] for s in ens.states))
    weights = np.asarray(ens.weights, dtype=float)
    _, mi, mass = _information(weights, _grid_blocks(sampler, ens.states, axes))
    if not abs(mass - 1.0) <= mass_tol:  # a NaN mass fails too
        raise NormalizationFailure(
            f"average density mass {mass} deviates from 1 beyond {mass_tol}"
        )
    return mi


def discretize_gaussian_ensemble(spec, beta=None, nodes=15, n_max=DEFAULT_N):
    """Gauss-Hermite discretization of a Gaussian squeezed-coherent ensemble.

    Displacements follow the ensemble's Gaussian with covariance
    diag(gamma_q, gamma_p); axes with zero variance collapse to a point.
    Returns a DiscreteEnsemble of pure displaced squeezed states, each the
    exact projection onto |0>..|n_max>.
    """
    r = 0.5 * math.log(2.0 * spec.delta)

    def axis(var):
        if var <= 0:
            return np.zeros(1), np.ones(1)
        x, w = np.polynomial.hermite_e.hermegauss(nodes)
        return x * math.sqrt(var), w / w.sum()

    xs, wx = axis(spec.gamma_q)
    ys, wy = axis(spec.gamma_p)
    states = displaced_squeezed_vector(xs[:, None], ys[None, :], r, n_max + 1)
    return DiscreteEnsemble(np.outer(wx, wy).ravel(), tuple(states.reshape(-1, n_max + 1)))
