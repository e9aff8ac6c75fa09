"""Quadrature grids, POVM outcome densities, entropies and mutual information.

Densities are relative to Lebesgue measure, whose constant drops from every
difference of entropies.  A type-1 measurement is the pure one with noise
state S(r)|0>, e^{2r} = 2 beta_q, followed by classical Gaussian noise of
variance delta = beta_p - 1/(4 beta_q) on the momentum outcome (Holevo,
Quantum Systems, Channels, Information, 2nd ed. 2019, ch. 12), smeared by a
banded kernel; types 2 and 3 are exact on a Gauss-Hermite rule.  Densities
come on tensor grids of outcomes only, (xs, ys) or (xs,): stream yields them
a block of vectors (BLOCK_NODES) and a sub-block of overlaps
(SUB_BLOCK_OVERLAPS) at a time.  bind keeps stream's vector blocks and
evaluates them in stream's blocks and sub-blocks, in one pass: its densities
equal stream's bit for bit, and no bound overlap product spans more than one
block.  One block's product can still cross OpenBLAS's threading cut-off at
larger searches (8 members at n_max = 40 on a 48-point axis).  States enter
as given, unnormalized, a density matrix as the columns of its pivoted
Cholesky factor (fock._cholesky_columns), with no eigensolver.  Entropies
and mutual information stream the densities into one reducer (_information).
"""

import math

import numpy as np

from .core import (
    BOUNDARY_RTOL,
    NonPositive,
    NormalizationFailure,
    NumericsError,
    TruncationInsufficient,
    _is_count,
    _record,
)
from .fock import (
    DEFAULT_N,
    _cholesky_columns,
    _hermite_functions,
    _displaced_squeezed,
    _gauss_rule,
    displaced_squeezed_vector,
    state_array,
    state_moments,
)

TAIL = 8.6  # exp(-TAIL^2 / 2) < 1e-16: Gaussian tails and spectra are cut there
# A 32-node Gauss-Legendre panel of half-width a integrates exp(ikv) to 1e-14 for |k| a <= 32.
PANEL_NODES = 32
SMEARING_NODES_MAX = 10000  # per type-1 outcome row; more raises NumericsError
# Vectors built per block, at least one x row: 0.2 MB at dim 61 for a 200-node
# row of pure noise, 0.7-1.0 MB for the 768-1,024 nodes of a panel-smeared row
# (896 nodes, 0.83 MB, on the seed-5 mixed entropy of perfbench's fock_oracle).
BLOCK_NODES = 256
# Overlaps <u_j|v_k> per sub-block (256 KB complex): 72 vector rows with 225 members.
SUB_BLOCK_OVERLAPS = 16384
# Noise that a Gauss-Hermite rule of at most this many nodes per outcome resolves
# is smeared so; on a 200-node row, 10 cost what the panels cost (delta = 1e-3).
HERMITE_NODES_MAX = 10
MASS_TOL = 1e-6  # largest |1 - grid mass| of the average density; lost trace counts too


class QuadratureGrid(_record("QuadratureGrid", "half_width nodes_per_axis")):
    """Tensor Gauss-Legendre window, half_width in output standard deviations."""

    __slots__ = ()

    def __new__(cls, half_width=8.0, nodes_per_axis=200):
        if not (0 < half_width < math.inf) or not _is_count(nodes_per_axis, 1):
            raise NonPositive(
                f"need finite half_width > 0 and an integer nodes_per_axis >= 1, got "
                f"{half_width} and {nodes_per_axis}"
            )
        return super().__new__(cls, half_width, nodes_per_axis)


class DiscreteEnsemble:
    """Finite ensemble of Fock-basis states with positive weights summing to 1.

    ``weights`` (a read-only 1-D float copy) and ``states`` are read-only;
    ``len`` counts the members.
    """

    __slots__ = ("_weights", "_states")

    def __init__(self, weights, states):
        w = np.array(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError(f"ensemble weights must be 1-D, got shape {w.shape}")
        if not np.all(w > 0):  # NaN fails
            raise ValueError("ensemble weights must be positive numbers")
        if abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights sum to {w.sum()}, expected 1")
        if len(states) != w.shape[0]:
            raise ValueError("weights and states length mismatch")
        w.flags.writeable = False
        self._weights, self._states = w, states

    def __repr__(self):
        return f"DiscreteEnsemble(weights={self._weights!r}, states={self._states!r})"

    weights = property(lambda self: self._weights)
    states = property(lambda self: self._states)

    def __len__(self):
        return len(self._states)


def _state_components(states, dim):
    """(P, B): column k of B is the conjugate of a column c_k of state i iff P[i, k] = 1.

    States are taken as given: a vector is its own column, a density matrix
    the columns of its pivoted Cholesky factor, sum_k c_k c_k+ = rho.  When
    every state has one column, P is the identity and is returned as None.
    Columns are zero-padded to dim rows, which is exact in the Fock basis.
    """
    comps = []
    for s in states:
        mat = state_array(s)
        if mat.shape[0] > dim:
            raise TruncationInsufficient(
                f"a state of dimension {mat.shape[0]} exceeds the sampler's dimension {dim}")
        trace = np.vdot(mat, mat).real if mat.ndim == 1 else np.trace(mat).real
        if not 0.0 < trace < math.inf:
            raise TruncationInsufficient(f"state trace {trace} is not positive and finite")
        comps.append(mat[:, None] if mat.ndim == 1 else _cholesky_columns(mat))
    counts = [v.shape[1] for v in comps]
    bras = np.zeros((dim, sum(counts)), dtype=np.result_type(*comps))
    for v, col in zip(comps, np.cumsum([0] + counts)):
        bras[:len(v), col:col + v.shape[1]] = v
    probs = None if max(counts) == 1 else np.repeat(np.eye(len(comps)), counts, axis=1)
    return probs, np.conjugate(bras, out=bras)


class OutputSampler:
    """Evaluates POVM outcome densities of Fock states for a fixed noise.

    Type 1 (finite beta) has outcomes (x, y), density
    Tr[rho D(x,y) rho_beta D(x,y)+]/(2 pi) = int p1(x,v) N(y - v; delta) dv;
    types 2 and 3 (beta_p = +inf) have outcomes x.  Each x has vectors u_j,
    one per inner node, and a banded kernel S shared by all x: the densities
    at x are S @ sum_k p_k |<u_j|v_k>|^2 over the states' v_k.
    """

    def __init__(self, beta, dim=DEFAULT_N + 1):
        self.beta = beta
        self.dim = dim
        self.outcome_dim = 2 if beta.noise_type == 1 else 1
        bq, bp = beta.beta_q, beta.beta_p
        if beta.noise_type != 1:
            self.rule = _gauss_rule(1 if bq == 0.0 else dim, hermite=True)  # log weights
            return
        self.r = 0.5 * math.log(2.0 * bq)
        # make_noise accepts bq*bp down to (1 - BOUNDARY_RTOL)/4, where delta < 0.
        delta = bp - 0.25 / bq
        self.delta = delta if delta > BOUNDARY_RTOL * bp else 0.0
        # p1(x, v) has wavenumbers in v up to twice the position extent of the
        # narrower of the Fock support and S(r)|0>.
        self.bandwidth = 2.0 * min(math.sqrt(2.0 * dim) + 6.0, TAIL * math.sqrt(bq))
        self.rule = _hermite_rule(self.bandwidth * math.sqrt(2.0 * self.delta))  # weights

    def bind(self, axes):
        """Densities on the tensor grid of axes, (xs, ys) or (xs,), as a function of states.

        Returns states -> (n_states, len(xs) * len(ys)) densities, x outer.
        The vector blocks that stream builds are kept here, in stream's memory
        layout, and every evaluation takes them in stream's chunks and
        sub-blocks in one _reduce pass: the densities equal stream's, bit for
        bit.
        """
        nodes, bands = self._smearing_kernel(axes)
        width = nodes.shape[-1]
        blocks = list(self._vector_blocks(axes[0], nodes.ravel(), keep=True))

        def densities(states):
            probs, bras = _state_components(states, self.dim)
            step = _chunk_rows(width, bras)
            return _reduce(probs, bras, [vectors[k:k + step] for vectors in blocks
                                         for k in range(0, len(vectors), step)], width, bands)

        return densities

    def stream(self, states, axes):
        """Densities of the states on the tensor grid of axes, (xs, ys) or (xs,).

        Yields (n_states, m) blocks of consecutive outcomes, x outer: whole
        smearing groups of about SUB_BLOCK_OVERLAPS overlaps, or under panel
        smearing one x.
        """
        probs, bras = _state_components(states, self.dim)
        nodes, bands = self._smearing_kernel(axes)
        width = nodes.shape[-1]
        step = _chunk_rows(width, bras)
        for vectors in self._vector_blocks(axes[0], nodes.ravel()):
            for k in range(0, len(vectors), step):
                yield _reduce(probs, bras, [vectors[k:k + step]], width, bands)
            del vectors

    def _smearing_kernel(self, axes):
        """(nodes, bands): the inner nodes of every x of the axes, in order when
        raveled, in rows of one smearing width; band (j, S) maps the nodes j,
        j+1, ... of each row to the next len(S) outcomes.

        Types 2 and 3: the Gauss-Hermite nodes, summed.  Type 1 with a rule
        (t_j, W_j): nodes[y, j] = y + sqrt(2 delta) t_j, weighted
        W_j / (sqrt(pi) 2 pi) (one node, y, at delta = 0).  Otherwise
        Gauss-Legendre panels over the ys widened by TAIL deviations,
        resolving the noise kernel plus the bandwidth; each run of ys in one
        span of TAIL/2 deviations takes S[y, v] = w_v N(y - v; delta) / 2 pi
        at the nodes v within TAIL deviations of it.
        """
        t, w = self.rule or (None, None)
        if self.outcome_dim == 1:
            return t, [(0, np.ones((1, len(t))))]
        ys = np.asarray(axes[1], dtype=float)
        if t is not None:
            return np.add.outer(ys, math.sqrt(2.0 * self.delta) * t), [
                (0, w[None, :] / (2.0 * math.pi ** 1.5))]
        sd = math.sqrt(self.delta)
        lo, hi = ys.min() - TAIL * sd, ys.max() + TAIL * sd
        panels = math.ceil((hi - lo) * (self.bandwidth + TAIL / sd) / (2.0 * PANEL_NODES))
        if panels * PANEL_NODES > SMEARING_NODES_MAX:
            raise NumericsError(f"classical noise {self.delta:.3e} over a window of {hi - lo:.3g} "
                                f"needs {panels * PANEL_NODES} > {SMEARING_NODES_MAX} nodes")
        t, w = _gauss_rule(PANEL_NODES)
        half = 0.5 * (hi - lo) / panels
        v = ((lo + half * (2.0 * np.arange(panels) + 1.0))[:, None] + half * t).ravel()
        w = np.tile(half * w, panels) / ((2.0 * math.pi) ** 1.5 * sd)
        bands = []
        for part in np.split(ys, np.flatnonzero(np.diff((ys - lo) // (0.5 * TAIL * sd))) + 1):
            j, k = np.searchsorted(v, (part.min() - TAIL * sd, part.max() + TAIL * sd))
            bands.append((j, np.exp(np.subtract.outer(part, v[j:k]) ** 2 / (-2.0 * self.delta))
                          * w[j:k]))
        return v, bands

    def _vector_blocks(self, xs, nodes, keep=False):
        """Fock coefficient rows u_j of consecutive xs, about BLOCK_NODES per block, x outer.

        The nodes are shared by every x.  Type 1: D(x,v) S(r)|0>
        per node v.  Types 2 and 3: with b = 1 + 2 beta_q, the density at
        x is exp(-x^2/b)/sqrt(pi b) sum_j W_j rho(q_j) e^{q_j^2} at
        q_j = x/b + t_j sqrt(2 beta_q/b), exact as rho(q) e^{q^2} is a
        polynomial; u_j holds the Hermite functions at q_j times sqrt(W_j).
        Every block is a column-major view, one Fock level per column, of
        its own array; type-1 blocks reuse one unless kept (keep).
        """
        xs = np.asarray(xs, dtype=float)[:, None]
        step = max(1, BLOCK_NODES // len(nodes))
        for k in range(0, len(xs), step):
            x = xs[k:k + step]
            if self.outcome_dim == 2:
                if keep or k == 0:
                    g = np.empty((self.dim + 1, min(step, len(xs)), len(nodes)), complex)
                yield _displaced_squeezed(g[:, :len(x)], x, nodes, self.r).reshape(-1, self.dim)
                continue
            b = 1.0 + 2.0 * self.beta.beta_q
            log_start = 0.5 * self.rule[1] - 0.5 * x * x / b - 0.25 * math.log(math.pi * b)
            q = x / b + nodes * math.sqrt(2.0 * self.beta.beta_q / b)
            yield _hermite_functions(q.ravel(), self.dim, log_start.ravel()).T


def _hermite_rule(omega):
    """The fewest Gauss-Hermite nodes, at most HERMITE_NODES_MAX, that integrate
    cos(k t) e^{-t^2} to 1e-15 for every k <= omega; None if there are none."""
    k = np.linspace(0.0, omega, 33)
    exact = math.sqrt(math.pi) * np.exp(-0.25 * k * k)
    for m in range(1, HERMITE_NODES_MAX + 1):
        t, log_w = _gauss_rule(m, hermite=True)
        w = np.exp(log_w)
        if np.abs(np.cos(np.outer(k, t)) @ w - exact).max() <= 1e-15:
            return t, w
    return None


def _sub_block_rows(bras):
    """Vector rows per sub-block: about SUB_BLOCK_OVERLAPS overlaps with the bras' columns."""
    return max(1, SUB_BLOCK_OVERLAPS // bras.shape[1])


def _chunk_rows(width, bras):
    """Vector rows per chunk that _reduce smears at once: whole smearing groups of
    width nodes, about one sub-block."""
    return max(width, _sub_block_rows(bras) // width * width)


def _reduce(probs, bras, chunks, width, bands):
    """(n_states, outcomes): sum_k probs[:, k] |<u_j|v_k>|^2 per node j, smeared.

    bras holds the conjugated v_k; probs None means one weight-1 column per
    state.  Otherwise real and imaginary parts are squared in place and
    summed by one matmul with probs repeated per part.  The chunks of u_j,
    whole groups of width nodes, give consecutive outcomes: overlaps run on
    sub-blocks of each chunk, and each band smears every group of a chunk
    in one matmul.  Matmul operands share a dtype, keeping it in BLAS: real
    u_j take the interleaved parts of the bras, as |u.conj(v)| = |<u|v>|.
    """
    split = np.iscomplexobj(bras) and not np.iscomplexobj(chunks[0])
    cols = bras.view(float) if split else bras.astype(chunks[0].dtype, copy=False)
    if probs is not None and (split or np.iscomplexobj(cols)):
        probs = np.repeat(probs, 2, axis=1)
    dens = np.empty((bras.shape[1] if probs is None else len(probs), sum(map(len, chunks))))
    rows = _sub_block_rows(bras)
    start = 0
    for vectors in chunks:
        for k in range(0, len(vectors), rows):
            amps = vectors[k:k + rows] @ cols
            out = dens[:, start + k:start + k + len(amps)]
            if probs is None:
                np.abs(amps.view(complex) if split else amps, out=out.T)
            else:
                amps = amps.view(float)  # real and imaginary parts interleaved
                amps *= amps
                np.matmul(probs, amps.T, out=out)
            del amps  # before the next sub-block's overlaps
        start += len(vectors)
    if probs is None:
        dens *= dens
    if width == 1:  # pure type-1 noise or the sharp measurement
        dens *= bands[0][1][0, 0]
        return dens
    smeared = np.empty((len(dens), start // width, sum(len(band) for _, band in bands)))
    start = 0
    for vectors in chunks:
        groups = dens[:, start:start + len(vectors)].reshape(-1, width)
        part = smeared[:, start // width:(start + len(vectors)) // width]
        at, start = 0, start + len(vectors)
        for j, band in bands:
            part[..., at:at + len(band)] = (groups[:, j:j + band.shape[1]] @ band.T
                                            ).reshape(len(dens), -1, len(band))
            at += len(band)
    return smeared.reshape(len(dens), -1)


def povm_density(rho, beta, x, y=0.0):
    """Outcome density of a single state at one point (convenience wrapper)."""
    sampler = OutputSampler(beta, state_array(rho).shape[0])
    return float(sampler.bind(([x], [y])[:sampler.outcome_dim])([rho])[0, 0])


def _grid_axes(means, sigmas, grid):
    """Gauss-Legendre (nodes, weights) per axis over center +- half_width*sigma."""
    x, w = _gauss_rule(grid.nodes_per_axis)
    return [(m + grid.half_width * s * x, grid.half_width * s * w)
            for m, s in zip(means, sigmas)]


def _grid_blocks(sampler, states, axes):
    """(densities, quadrature weights) of the states per block of the axes' tensor.

    Each block's weights wx[i] wy[j] come from the x rows i it spans only.
    """
    nodes, weights = zip(*axes)
    wx, wy = weights[0], weights[1] if len(axes) == 2 else np.ones(1)
    start = 0
    for p in sampler.stream(states, nodes):
        i, j = divmod(start, len(wy))
        stop = start + p.shape[1]
        yield p, np.outer(wx[i:(stop - 1) // len(wy) + 1], wy).ravel()[j:j + p.shape[1]]
        start = stop


def _output_window(moments, beta):
    """Means and standard deviations of the output Gaussian for state moments."""
    mq, mp, vq, vp = moments
    k = 2 if beta.noise_type == 1 else 1
    return (mq, mp)[:k], (math.sqrt(vq + beta.beta_q), math.sqrt(vp + beta.beta_p))[:k]


def _information(weights, blocks):
    """(h(avg), h(avg) - sum_i w_i h(p_i), mass of avg), avg = sum_i w_i p_i.

    blocks yields (p, qweights) pairs: densities p (members, points) on part
    of the outcome grid and the quadrature weights of those points.  An
    entropy -sum qweights p log p takes the densities > 0 only.  Sums over
    blocks are rounded once (math.fsum), not once per block.
    """
    h_avg, h_members, mass = [], [], []
    for p, qweights in blocks:
        rows = np.vstack([weights @ p, p])
        positive = rows > 0
        terms = np.zeros_like(rows)
        np.log(rows, out=terms, where=positive)
        np.multiply(rows, terms, out=terms, where=positive)
        ent = -(terms @ qweights)
        h_avg.append(ent[0])
        h_members.append(weights @ ent[1:])
        mass.append(rows[0] @ qweights)
    h = math.fsum(h_avg)
    return h, h - math.fsum(h_members), math.fsum(mass)


def _average_moments(weights, states):
    """Means and variances of (q, p) for the weighted mixture of the states."""
    stats = [state_moments(s) for s in states]
    w = np.asarray(weights, dtype=float)
    mq = sum(wi * s[0] for wi, s in zip(w, stats))
    mp = sum(wi * s[1] for wi, s in zip(w, stats))
    eq2 = sum(wi * (s[2] + s[0] ** 2) for wi, s in zip(w, stats))
    ep2 = sum(wi * (s[3] + s[1] ** 2) for wi, s in zip(w, stats))
    return mq, mp, eq2 - mq ** 2, ep2 - mp ** 2


def _grid_information(weights, states, beta, grid):
    """_information's (h(avg), MI) on the grid around the states' average output.

    Raises NormalizationFailure when the average density's mass misses 1 by > MASS_TOL.
    """
    axes = _grid_axes(*_output_window(_average_moments(weights, states), beta), grid)
    sampler = OutputSampler(beta, max(state_array(s).shape[0] for s in states))
    h, mi, mass = _information(weights, _grid_blocks(sampler, states, axes))
    if not abs(mass - 1.0) <= MASS_TOL:  # a NaN mass fails too
        raise NormalizationFailure(f"average density mass {mass} misses 1 by > {MASS_TOL}")
    return h, mi


def numeric_output_entropy(rho, beta, grid=QuadratureGrid()):
    """Lebesgue differential entropy of the outcome density, in nats.

    The grid window is centered on the state's output Gaussian.
    """
    return _grid_information(np.ones(1), [rho], beta, grid)[0]


def mutual_information(ens, beta, grid=QuadratureGrid()):
    """I = h(average output) - sum_i w_i h(member output), on a shared grid.

    The Lebesgue-reference constants cancel exactly between the two terms.
    Members of different dimensions are zero-padded to the largest.
    """
    return _grid_information(ens.weights, ens.states, beta, grid)[1]


def discretize_gaussian_ensemble(spec, nodes=15, n_max=DEFAULT_N):
    """Gauss-Hermite discretization of a Gaussian squeezed-coherent ensemble.

    Displacements follow the ensemble's Gaussian with covariance
    diag(gamma_q, gamma_p); axes with zero variance collapse to a point.
    Returns a DiscreteEnsemble of pure displaced squeezed states, each the
    exact projection onto |0>..|n_max>.  Members whose weight underflows to
    0 (from 390 nodes on one axis, or 200 per axis on two) are dropped and
    the rest renormalized.
    """
    r = 0.5 * math.log(2.0 * spec.delta)

    def axis(var):
        if var <= 0:
            return np.zeros(1), np.ones(1)
        t, log_w = _gauss_rule(nodes, hermite=True)
        w = np.exp(log_w)
        return t * math.sqrt(2.0 * var), w / w.sum()

    xs, wx = axis(spec.gamma_q)
    ys, wy = axis(spec.gamma_p)
    states = displaced_squeezed_vector(xs[:, None], ys[None, :], r, n_max + 1)
    weights, states = np.outer(wx, wy).ravel(), states.reshape(-1, n_max + 1)
    kept = weights > 0.0
    if not kept.all():
        weights, states = weights[kept] / weights[kept].sum(), states[kept]
    return DiscreteEnsemble(weights, tuple(states))
