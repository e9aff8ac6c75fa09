"""Quadrature grids, POVM outcome densities, entropies and mutual information.

Outcome densities are taken relative to Lebesgue measure; the reference
measure constant therefore drops from every difference of entropies.  The
workhorse is OutputSampler, which factorizes the POVM density through the
spectral decomposition of the noise operator and evaluates many states on
many outcome points with one batched displacement pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidForSharp,
    NegativeDensity,
    NormalizationFailure,
)
from .fock import (
    DEFAULT_N,
    FockOperator,
    displacement_batch,
    gaussian_state_fock,
    state_moments,
)


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor Gauss-Legendre window, half_width in output standard deviations."""

    half_width: float = 8.0
    nodes_per_axis: int = 200
    scheme: str = "tensor-gauss-legendre"

    def __post_init__(self):
        if self.scheme not in ("tensor-gauss-legendre", "adaptive"):
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")


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


def _state_components(state, tol=1e-13):
    """Decompose into (probabilities, column vectors); vectors pass through."""
    if isinstance(state, FockOperator):
        mat = state.matrix
    else:
        mat = np.asarray(state)
    if mat.ndim == 1:
        v = mat / np.linalg.norm(mat)
        return np.ones(1), v[:, None]
    vals, vecs = np.linalg.eigh(mat)
    keep = vals > tol * max(vals.max(), 1.0)
    return vals[keep], vecs[:, keep]


class OutputSampler:
    """Evaluates POVM outcome densities of Fock states for a fixed noise.

    Type 1 (finite beta): two-dimensional outcomes, density
    Tr[rho D(x,y) rho_beta D(x,y)+]/(2 pi), factorized through the spectral
    decomposition of rho_beta.  Type 2 (beta_p = +inf): one-dimensional,
    Tr[rho exp(-(q-x)^2/(2 beta_q))]/sqrt(2 pi beta_q), computed exactly as
    the Gaussian smearing of the position-diagonal of rho (Hermite
    functions plus inner quadrature).
    """

    def __init__(self, beta, dim=DEFAULT_N + 1, eig_tol=1e-13):
        if beta.noise_type == 3:
            raise InvalidForSharp("no POVM matrix family for the sharp measurement")
        self.beta = beta
        self.dim = dim
        self.outcome_dim = 2 if beta.noise_type == 1 else 1
        if beta.noise_type == 1:
            from .core import make_covariance

            rho_b = gaussian_state_fock(
                make_covariance(beta.beta_q, beta.beta_p), dim - 1
            )
            vals, vecs = np.linalg.eigh(rho_b.matrix)
            keep = vals > eig_tol * vals.max()
            # Columns scaled by sqrt(eigenvalue):
            # density = (1/2pi) sum_k |<u| D |col_k>|^2
            self.factor = vecs[:, keep] * np.sqrt(vals[keep])
        else:
            # Inner position grid covering the Fock support, resolved below
            # the noise width.
            q_max = math.sqrt(2.0 * dim) + 6.0
            width = min(math.sqrt(beta.beta_q), 1.0)
            n_q = max(400, int(5.0 * q_max / width))
            x, w = np.polynomial.legendre.leggauss(min(n_q, 6000))
            self.q_nodes = q_max * x
            self.q_weights = q_max * w
            self.psi = _hermite_functions(self.q_nodes, dim)

    def _position_diagonals(self, comps):
        """<q|rho|q> on the inner grid for each decomposed state."""
        rows = []
        for probs, vecs in comps:
            amp = self.psi.T @ vecs  # (Q, k)
            rows.append((np.abs(amp) ** 2) @ probs)
        return rows

    def densities(self, states, points, chunk=1500):
        """Density rows for each state at the given outcome points.

        points: array (G, 2) for type 1 or (G,) for type 2.  Returns
        (n_states, G) real array.
        """
        points = np.asarray(points, dtype=float)
        comps = [_state_components(s) for s in states]
        if self.outcome_dim == 1:
            kernel = self._smearing_kernel(points.ravel())
            out = np.stack([kernel @ f for f in self._position_diagonals(comps)])
        else:
            zeta = (points[:, 0] + 1j * points[:, 1]) / math.sqrt(2.0)
            g = zeta.shape[0]
            out = np.zeros((len(states), g))
            for start in range(0, g, chunk):
                sl = slice(start, min(start + chunk, g))
                d = displacement_batch(zeta[sl], self.dim)
                a = d @ self.factor  # (Gc, dim, r) displaced noise eigenvectors
                self._accumulate(out[:, sl], a, comps)
            out /= 2.0 * math.pi
        return self._finalize(out)

    def bind(self, points):
        """Precompute the point-dependent tensors for repeated evaluation."""
        return _BoundSampler(self, np.asarray(points, dtype=float))

    def _smearing_kernel(self, xs):
        kernel = np.exp(
            -((xs[:, None] - self.q_nodes[None, :]) ** 2)
            / (2.0 * self.beta.beta_q)
        ) / math.sqrt(2.0 * math.pi * self.beta.beta_q)
        return kernel * self.q_weights[None, :]

    @staticmethod
    def _accumulate(block, a, comps):
        for i, (probs, vecs) in enumerate(comps):
            m = np.tensordot(vecs.conj().T, a, axes=([1], [1]))
            block[i] = np.einsum("k,kgr->g", probs, np.abs(m) ** 2)

    @staticmethod
    def _finalize(out):
        if out.min() < -1e-10:
            raise NegativeDensity(
                f"density fell to {out.min():.3e}; raise the truncation"
            )
        return np.clip(out, 0.0, None)


class _BoundSampler:
    """OutputSampler with the outcome points fixed and their tensors cached."""

    def __init__(self, parent, points):
        self.parent = parent
        if parent.outcome_dim == 1:
            self.kernel = parent._smearing_kernel(points.ravel())
        else:
            zeta = (points[:, 0] + 1j * points[:, 1]) / math.sqrt(2.0)
            d = displacement_batch(zeta, parent.dim)
            self.displaced = d @ parent.factor  # (G, dim, r)

    def densities(self, states):
        comps = [_state_components(s) for s in states]
        par = self.parent
        if par.outcome_dim == 1:
            out = np.stack(
                [self.kernel @ f for f in par._position_diagonals(comps)]
            )
        else:
            out = np.zeros((len(states), self.displaced.shape[0]))
            par._accumulate(out, self.displaced, comps)
            out /= 2.0 * math.pi
        return par._finalize(out)


def povm_density(rho, beta, x, y=0.0, n_max=None):
    """Outcome density of a single state at one point (convenience wrapper)."""
    dim = rho.dim if isinstance(rho, FockOperator) else np.asarray(rho).shape[0]
    if n_max is not None:
        dim = n_max + 1
    sampler = OutputSampler(beta, dim)
    if sampler.outcome_dim == 2:
        pts = np.array([[x, y]])
    else:
        pts = np.array([x])
    return float(sampler.densities([rho], pts)[0, 0])


def _gauss_legendre_axis(center, sigma, half_width, nodes):
    x, w = np.polynomial.legendre.leggauss(nodes)
    scale = half_width * sigma
    return center + scale * x, scale * w


def _grid_nodes(means, sigmas, grid, nodes=None):
    """Tensor nodes/weights over windows center +- half_width*sigma per axis."""
    n = nodes or grid.nodes_per_axis
    axes = [_gauss_legendre_axis(m, s, grid.half_width, n) for m, s in zip(means, sigmas)]
    if len(axes) == 1:
        return axes[0][0], axes[0][1]
    xg, yg = np.meshgrid(axes[0][0], axes[1][0], indexing="ij")
    wg = np.outer(axes[0][1], axes[1][1])
    pts = np.stack([xg.ravel(), yg.ravel()], axis=1)
    return pts, wg.ravel()


def _output_window(state, beta):
    mq, mp, vq, vp = state_moments(state) if isinstance(state, FockOperator) else state
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


def numeric_output_entropy(rho, beta, grid=QuadratureGrid(), mass_tol=1e-6,
                           sampler=None):
    """Lebesgue differential entropy of the outcome density, in nats.

    The grid window is centered on the state's output Gaussian.  With the
    adaptive scheme the node count doubles until the entropy stabilizes.
    """
    means, sigmas = _output_window(rho, beta)
    dim = rho.dim if isinstance(rho, FockOperator) else np.asarray(rho).shape[0]
    smp = sampler or OutputSampler(beta, dim)

    def compute(nodes):
        pts, w = _grid_nodes(means, sigmas, grid, nodes)
        p = smp.densities([rho], pts)[0]
        mass = float(np.dot(w, p))
        return mass, _entropy_from_density(p, w)

    if grid.scheme == "adaptive":
        nodes = max(grid.nodes_per_axis, 32)
        mass, h = compute(nodes)
        for _ in range(4):
            nodes *= 2
            mass2, h2 = compute(nodes)
            if abs(h2 - h) < 1e-9:
                mass, h = mass2, h2
                break
            mass, h = mass2, h2
    else:
        mass, h = compute(None)
    if abs(mass - 1.0) > mass_tol:
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
    """
    moments = _average_moments(ens.weights, ens.states)
    means, sigmas = _output_window(moments, beta)
    dim = max(
        s.dim if isinstance(s, FockOperator) else np.asarray(s).shape[0]
        for s in ens.states
    )
    smp = OutputSampler(beta, dim)
    pts, w = _grid_nodes(means, sigmas, grid)
    dens = smp.densities(ens.states, pts)
    wts = np.asarray(ens.weights, dtype=float)
    avg = wts @ dens
    mass = float(np.dot(w, avg))
    if abs(mass - 1.0) > mass_tol:
        raise NormalizationFailure(
            f"average density mass {mass} deviates from 1 beyond {mass_tol}"
        )
    h_avg = _entropy_from_density(avg, w)
    h_members = sum(
        wi * _entropy_from_density(dens[i], w) for i, wi in enumerate(wts)
    )
    return h_avg - h_members


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
