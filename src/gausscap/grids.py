"""Quadrature grids, POVM outcome densities, entropies and mutual information.

Densities are relative to Lebesgue measure, whose constant drops from every
difference of entropies.  A type-1 measurement is the pure one with noise
state S(r)|0> followed by classical Gaussian noise of variance delta on the
momentum outcome (beta split by fock._noise_split), smeared by a
banded kernel on uniform trapezoidal nodes, or on a Gauss-Hermite rule around
each outcome when delta is small; types 2 and 3 are exact on a Gauss-Hermite
rule.  Densities come on tensor grids of outcomes only, (xs, ys) or (xs,):
stream yields them a chunk of about 2 SUB_BLOCK_MULADDS / dim overlaps at a
time, from blocks of about BLOCK_NODES vectors built as it goes.  bind builds
the blocks once and concatenates the same chunks from the same loop
(OutputSampler._reduced), so its densities are stream's, bit for bit.  Every
overlap product is float64 arithmetic on real views, at most
SUB_BLOCK_MULADDS multiply-adds, so OpenBLAS keeps it on one thread.
States enter as given, unnormalized, a density matrix as the columns of its
pivoted Cholesky factor (fock._cholesky_columns), with no eigensolver.
Entropies and mutual information stream the densities into one reducer
(_information) on the midpoint rule's outcome grid (_grid_axes), whose
every node has the one weight of its cell: the rule is exponentially
accurate for smooth densities that decay fast (Trefethen & Weideman, SIAM
Rev. 56 (2014) 385).
"""

import math

import numpy as np

from .core import (
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
    _noise_split,
    _trace,
    displaced_squeezed_vector,
    state_moments,
)

TAIL = 8.6  # exp(-TAIL^2 / 2) < 1e-16: Gaussian tails and spectra are cut there
SMEARING_NODES_MAX = 10000  # per type-1 outcome row; more raises NumericsError
# Vectors built per block, at least one x row: 0.2 MB at dim 61 for a 200-node
# row of pure noise, 0.15-0.26 MB for the 149-264 nodes of a trapezoid-smeared
# row (the mixed entropies of perfbench's fock_oracle, seeds 1-10).
BLOCK_NODES = 256
# Real multiply-adds per overlap product, below OpenBLAS's threading cut-off
# (about 1.0e6 for dgemm): 19 complex vectors times either part of 225
# complex members at dim 61.
SUB_BLOCK_MULADDS = 2 ** 19
# Noise that a Gauss-Hermite rule of at most this many nodes per outcome resolves
# is smeared so.  The trapezoid's node count grows with the output window, so
# its crossover with this rule depends on the input and is not retuned here.
HERMITE_NODES_MAX = 10
MASS_TOL = 1e-6  # largest |1 - grid mass| of the average density; lost trace counts too


class QuadratureGrid(_record("QuadratureGrid", "half_width nodes_per_axis")):
    """Tensor midpoint-rule window, half_width in output standard deviations:
    nodes_per_axis equal cells per axis, each node at the middle of its cell."""

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
            raise NonPositive(f"ensemble weights must be 1-D, got shape {w.shape}")
        if not np.all(w > 0):  # NaN fails
            raise NonPositive("ensemble weights must be positive numbers")
        if abs(w.sum() - 1.0) > 1e-9:
            raise NonPositive(f"ensemble weights sum to {w.sum()}, expected 1")
        if len(states) != w.shape[0]:
            raise NonPositive("weights and states length mismatch")
        w.flags.writeable = False
        self._weights, self._states = w, states

    def __repr__(self):
        return f"DiscreteEnsemble(weights={self._weights!r}, states={self._states!r})"

    weights = property(lambda self: self._weights)
    states = property(lambda self: self._states)

    def __len__(self):
        return len(self._states)


def _state_components(states, dim):
    """(starts, B): row k of B[0], plus i B[1] for complex states, is the conjugate
    of a column c_k; state i's columns are the rows from starts[i] to the next
    state's start.

    States are taken as given: a vector is its own column, a density matrix
    the columns of its pivoted Cholesky factor, sum_k c_k c_k+ = rho.
    Columns are zero-padded to dim entries, which is exact in the Fock basis.
    """
    comps = []
    for s in states:
        mat = np.asarray(s)
        if mat.shape[0] > dim:
            raise TruncationInsufficient(
                f"a state of dimension {mat.shape[0]} exceeds the sampler's dimension {dim}")
        _trace(mat)
        comps.append(mat[:, None] if mat.ndim == 1 else _cholesky_columns(mat))
    starts = np.cumsum([0] + [v.shape[1] for v in comps])
    bras = np.zeros((1 + any(map(np.iscomplexobj, comps)), starts[-1], dim))
    for v, col in zip(comps, starts):  # one state at a time: no complex copy of all columns
        part = bras[:, col:col + v.shape[1], :len(v)]
        part[0], part[1:] = v.T.real, -v.T.imag
    return starts[:-1], bras


class OutputSampler:
    """Evaluates POVM outcome densities of Fock states for a fixed noise.

    Type 1 (finite beta) has outcomes (x, y), density
    Tr[rho D(x,y) rho_beta D(x,y)+]/(2 pi) = int p1(x,v) N(y - v; delta) dv;
    types 2 and 3 (beta_p = +inf) have outcomes x.  Each x has vectors u_j,
    one per inner node, and a banded kernel S shared by all x: the densities
    at x are S @ sum_k |<u_j|v_k>|^2 over each state's columns v_k.
    """

    def __init__(self, beta, dim):
        self.beta = beta
        self.dim = dim
        self.outcome_dim = 2 if beta.noise_type == 1 else 1
        if beta.noise_type != 1:
            self.rule = _gauss_rule(1 if beta.beta_q == 0.0 else dim)  # (nodes, log weights)
            return
        self.r, self.delta = _noise_split(*beta)
        # p1(x, v) has wavenumbers in v up to twice the position extent of the
        # narrower of the Fock support and S(r)|0>.
        self.bandwidth = 2.0 * min(math.sqrt(2.0 * dim) + 6.0, TAIL * math.sqrt(beta.beta_q))
        self.rule = _hermite_rule(self.bandwidth * math.sqrt(2.0 * self.delta))  # or None

    def bind(self, axes):
        """Densities on the tensor grid of axes, (xs, ys) or (xs,), as a function of states.

        Returns states -> (n_states, len(xs) * len(ys)) densities, x outer:
        stream's chunks, concatenated, over the vector blocks built once here.
        """
        nodes, bands = self._smearing_kernel(axes)
        blocks = list(self._vector_blocks(axes[0], nodes.ravel(), keep=True))
        return lambda states: np.concatenate(list(self._reduced(states, blocks, nodes, bands)),
                                             axis=1)

    def stream(self, states, axes):
        """Densities of the states on the tensor grid of axes, (xs, ys) or (xs,).

        Yields (n_states, m) blocks of consecutive outcomes, x outer: whole
        smearing groups of about 2 SUB_BLOCK_MULADDS / dim overlaps, or under
        trapezoidal smearing one x.
        """
        nodes, bands = self._smearing_kernel(axes)
        yield from self._reduced(states, self._vector_blocks(axes[0], nodes.ravel()), nodes, bands)

    def _reduced(self, states, blocks, nodes, bands):
        """_reduce of the states per chunk of the vector blocks: whole smearing
        groups of width nodes, about 2 SUB_BLOCK_MULADDS / dim overlaps (17,189
        at dim 61), two to four sub-blocks, so stream and _information pay
        their per-chunk cost less often."""
        starts, bras = _state_components(states, self.dim)
        width = nodes.shape[-1]
        step = max(width, 2 * SUB_BLOCK_MULADDS // bras[0].size // width * width)
        for vectors in blocks:
            for k in range(0, len(vectors), step):
                yield _reduce(starts, bras, vectors[k:k + step], width, bands)
            del vectors

    def _smearing_kernel(self, axes):
        """(nodes, bands): the inner nodes of every x of the axes, in order when
        raveled, in rows of one smearing width; band (j, S) maps the nodes j,
        j+1, ... of each row to the next len(S) outcomes.

        Types 2 and 3: the Gauss-Hermite nodes, summed.  Type 1 with a rule
        (t_j, ln W_j): nodes[y, j] = y + sqrt(2 delta) t_j, weighted
        W_j / (sqrt(pi) 2 pi) (one node, y, at delta = 0).  Otherwise the
        trapezoidal rule over the ys widened by TAIL deviations, cut to
        |v| <= sqrt(2 dim) + 6 + TAIL / (2 sqrt(beta_q)), the momentum extent
        of the Fock support and S(r)|0> past which p1(x, v) is 0 (one node
        if nothing is left), at spacing h = 2 pi / (bandwidth + TAIL / sd):
        p1(x, v) N(y - v; delta) has wavenumbers in v up to that sum, and
        the rule's error is its spectrum at 2 pi / h and beyond, aliased
        (Trefethen & Weideman, SIAM Rev. 56 (2014) 385).  Each run of ys in
        one span of TAIL/2 deviations takes
        S[y, v] = h N(y - v; delta) / 2 pi at the nodes v within TAIL
        deviations of it.
        """
        t, log_w = self.rule or (None, None)
        if self.outcome_dim == 1:
            return t, [(0, np.ones((1, len(t))))]
        ys = np.asarray(axes[1], dtype=float)
        if t is not None:
            return np.add.outer(ys, math.sqrt(2.0 * self.delta) * t), [
                (0, np.exp(log_w)[None, :] / (2.0 * math.pi ** 1.5))]
        sd = math.sqrt(self.delta)
        reach = math.sqrt(2.0 * self.dim) + 6.0 + 0.5 * TAIL / math.sqrt(self.beta.beta_q)
        lo, hi = max(ys.min() - TAIL * sd, -reach), min(ys.max() + TAIL * sd, reach)
        h = 2.0 * math.pi / (self.bandwidth + TAIL / sd)
        n = max(math.ceil((hi - lo) / h), 0) + 1  # one node if the window is empty
        if n > SMEARING_NODES_MAX:
            raise NumericsError(f"classical noise {self.delta:.3e} over a window of {hi - lo:.3g} "
                                f"needs {n} > {SMEARING_NODES_MAX} nodes")
        v, w = lo + h * np.arange(n), h / ((2.0 * math.pi) ** 1.5 * sd)
        bands = []
        for part in np.split(ys, np.flatnonzero(np.diff((ys - lo) // (0.5 * TAIL * sd))) + 1):
            j, k = np.searchsorted(v, (part.min() - TAIL * sd, part.max() + TAIL * sd))
            bands.append((j, np.exp(np.subtract.outer(part, v[j:k]) ** 2 / (-2.0 * self.delta))
                          * w))
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
    """The fewest Gauss-Hermite nodes and log weights, at most HERMITE_NODES_MAX
    nodes, that integrate cos(k t) e^{-t^2} to 1e-15 for every k <= omega; None
    if there are none."""
    k = np.linspace(0.0, omega, 33)
    exact = math.sqrt(math.pi) * np.exp(-0.25 * k * k)
    for m in range(1, HERMITE_NODES_MAX + 1):
        t, log_w = _gauss_rule(m)
        if np.abs(np.cos(np.outer(k, t)) @ np.exp(log_w) - exact).max() <= 1e-15:
            return t, log_w
    return None


def _reduce(starts, bras, vectors, width, bands):
    """(n_states, outcomes): the sum of |<u_j|v_k>|^2 over each state's columns
    v_k per node j, smeared.

    bras holds the parts of the conjugated v_k as _state_components gives
    them, state i's from row starts[i] on.  Overlaps are float64 products,
    each below OpenBLAS's threading cut-off: each part of the bras times a
    sub-block's real view, real and imaginary parts interleaved if complex.
    The overlap is the product with the real part plus i times that with
    the imaginary part, its squared modulus the sum of its squared parts,
    and np.add.reduceat sums those over each state's rows.  The vectors
    u_j, one chunk, column-major as _vector_blocks gives them and whole
    groups of width nodes, give consecutive outcomes, and each band smears
    every group in one matmul.
    """
    dens = np.empty((len(starts), len(vectors)))
    b = 1 + np.iscomplexobj(vectors)  # real columns per vector
    rows = max(1, SUB_BLOCK_MULADDS // bras[0].size // b)  # per sub-block
    for k in range(0, len(vectors), rows):
        right = vectors[k:k + rows].T
        amps = bras @ (right.view(float) if b == 2 else right)
        if len(amps) == b == 2:  # <v|u> = Re(v+) u + i Im(v+) u, in complex views
            z = amps.view(complex)
            z[1] *= 1j
            z[0] += z[1]
            amps = amps[:1]
        amps *= amps
        sq = sum(part[:, j::b] for part in amps for j in range(b))
        # With one column per state sq is the densities; reduceat would cost
        # 20 to 40 times that copy here (one inner loop per output element).
        dens[:, k:k + right.shape[1]] = sq if len(sq) == len(starts) else np.add.reduceat(
            sq, starts)
        del amps, sq  # before the next sub-block's overlaps
    if width == 1:  # pure type-1 noise or the sharp measurement
        dens *= bands[0][1][0, 0]
        return dens
    groups = dens.reshape(-1, width)
    smeared = np.empty((len(dens), len(vectors) // width, sum(len(band) for _, band in bands)))
    at = 0
    for j, band in bands:
        smeared[..., at:at + len(band)] = (groups[:, j:j + band.shape[1]] @ band.T
                                           ).reshape(len(dens), -1, len(band))
        at += len(band)
    return smeared.reshape(len(dens), -1)


def povm_density(rho, beta, x, y=0.0):
    """Outcome density of a single state at one point (convenience wrapper)."""
    sampler = OutputSampler(beta, np.asarray(rho).shape[0])
    return float(sampler.bind(([x], [y])[:sampler.outcome_dim])([rho])[0, 0])


def _grid_axes(means, sigmas, grid):
    """(axes, cell): the midpoints of nodes_per_axis equal cells per axis over
    center +- half_width*sigma, and the area of one cell of their tensor."""
    n, half = grid.nodes_per_axis, grid.half_width
    x = np.arange(1 - n, n, 2) / n  # (2i + 1 - n)/n: exactly symmetric, middle 0 if n is odd
    return [m + half * s * x for m, s in zip(means, sigmas)], math.prod(
        2.0 * half * s / n for s in sigmas)


def _output_window(moments, beta):
    """Means and standard deviations of the output Gaussian for state moments."""
    mq, mp, vq, vp = moments
    k = 2 if beta.noise_type == 1 else 1
    return (mq, mp)[:k], (math.sqrt(vq + beta.beta_q), math.sqrt(vp + beta.beta_p))[:k]


def _information(weights, blocks, cell):
    """(h(avg), h(avg) - sum_i w_i h(p_i), mass of avg), avg = sum_i w_i p_i.

    blocks yields densities p (members, points) on parts of an outcome grid
    whose every point carries the quadrature weight cell.  An entropy
    -cell sum p log p takes the densities > 0 only.  Sums over blocks are
    rounded once (math.fsum), not once per block.
    """
    h_avg, h_members, mass = [], [], []
    for p in blocks:
        rows = np.vstack([weights @ p, p])
        positive = rows > 0
        terms = np.zeros_like(rows)
        np.log(rows, out=terms, where=positive)
        np.multiply(rows, terms, out=terms, where=positive)
        ent = -terms.sum(axis=1)
        h_avg.append(ent[0])
        h_members.append(weights @ ent[1:])
        mass.append(rows[0].sum())
        del p, rows, positive, terms, ent  # before the next block is reduced
    h = cell * math.fsum(h_avg)
    return h, h - cell * math.fsum(h_members), cell * math.fsum(mass)


def _average_moments(weights, states):
    """Means and variances of (q, p) for the weighted mixture of the states."""
    # Each state's first and second moments, then one weighted sum per column.
    raw = [(q, p, vq + q ** 2, vp + p ** 2) for q, p, vq, vp in map(state_moments, states)]
    mq, mp, eq2, ep2 = (sum(w * m for w, m in zip(weights, col)) for col in zip(*raw))
    return mq, mp, eq2 - mq ** 2, ep2 - mp ** 2


def _grid_information(weights, states, beta, grid):
    """_information's (h(avg), MI) on the grid around the states' average output.

    Raises NormalizationFailure when the average density's mass misses 1 by > MASS_TOL.
    """
    axes, cell = _grid_axes(*_output_window(_average_moments(weights, states), beta), grid)
    sampler = OutputSampler(beta, max(np.asarray(s).shape[0] for s in states))
    h, mi, mass = _information(weights, sampler.stream(states, axes), cell)
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
    the rest renormalized.  Raises NonPositive unless delta is finite and
    > 0 and both gamma are finite and >= 0.
    """
    if not (_is_count(nodes, 1) and _is_count(n_max, 0)):
        raise NonPositive(f"need integers nodes >= 1 and n_max >= 0, got {nodes!r} and {n_max!r}")
    if not (np.isfinite(spec).all() and spec.delta > 0 and min(spec.gamma_q, spec.gamma_p) >= 0):
        raise NonPositive(f"need finite delta > 0 and gamma >= 0, got {spec}")
    r = 0.5 * math.log(2.0 * spec.delta)

    def axis(var):
        if var <= 0:
            return np.zeros(1), np.ones(1)
        t, log_w = _gauss_rule(nodes)
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
