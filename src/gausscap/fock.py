"""Truncated Fock-basis states and the action of displacements on them.

States live on the span of |0>..|N> (dimension N+1); no dense displacement
matrix is built.  Displaced squeezed vectors D(x,y) S(r)(cos t|0> + sin t|1>)
are exact projections onto |0>..|N> from the recurrence of the annihilator
of D S |0> (Yuen, PRA 13, 2226 (1976)): the stress-search members and the
vectors of every type-1 outcome density (grids.OutputSampler), and the
displaced Gaussian states of the duality check (dualcheck).  Density
matrices enter the outcome densities as the columns of a diagonal-pivoted
Cholesky factor (_cholesky_columns), and the characteristic function
(quantum_charfn) contracts rho with wavefunction products on one
Gauss-Legendre grid of inner positions: no eigensolver runs here.  Squeezed
thermal states take the exact block <m|S(r)|n> from a Gauss-Hermite rule;
numpy only.
Every Gauss rule (_gauss_rule) is Newton's method on the Legendre or the
Hermite-function recurrence, O(n) memory and O(n^2) time (3200 Legendre
nodes in about 0.15 s), with no companion matrix or eigensolver; Hermite
rules carry log weights, which do not underflow past 355 nodes.
"""

import collections
import functools
import math
import sys

import numpy as np

from .core import NegativeDensity, NumericsError, TruncationInsufficient

DEFAULT_N = 60
DEFAULT_TRUNCATION_TOL = 1e-8

# A state's factor stops once the trace left over is at most this fraction of
# its trace, and a diagonal entry left below -EIG_TOL times it is not roundoff.
EIG_TOL = 1e-13

NEWTON_STEPS_MAX = 20  # per Gauss rule; Newton takes 3 to 6 from its starts


class FockOperator:
    """Dense operator on the truncated Fock basis; ``matrix`` is read-only."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        self._matrix = matrix

    def __repr__(self):
        return f"FockOperator(matrix={self._matrix!r})"

    matrix = property(lambda self: self._matrix)

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


def thermal_diagonal(n_bar, dim):
    """Geometric photon-number weights of a thermal state; n_bar <= 0 is the vacuum."""
    n_bar = max(n_bar, 0.0)
    ratio = n_bar / (n_bar + 1.0)
    return ratio ** np.arange(dim) / (n_bar + 1.0)


def squeezed_thermal(alpha, dim):
    """(S, d): the state of covariance alpha is S(r) diag(d) S(r)+; m, n < dim.

    S[m, n] = <m|S(r)|n>, r = ln(a_q/a_p)/4, S(r) scaling q by e^r; d
    thermal, n_bar = sqrt(a_q a_p) - 1/2.  <m|S|n> = e^{-r/2} int
    psi_m(q) psi_n(q e^{-r}) dq = e^{-r/2}/s int poly(t) e^{-t^2} dt at
    q = t/s, s^2 = (1 + e^{-2r})/2, poly of degree < 2 dim: exact on the
    dim-node Gauss-Hermite rule.
    """
    n_bar = math.sqrt(alpha.alpha_q * alpha.alpha_p) - 0.5
    r = 0.25 * math.log(alpha.alpha_q / alpha.alpha_p)
    s = math.sqrt(0.5 + 0.5 * math.exp(-2.0 * r))
    t, log_w = _gauss_rule(dim, hermite=True)
    a, b = (_hermite_functions(x, dim, 0.5 * (log_w + t * t - x * x))
            for x in (t / s, t * math.exp(-r) / s))
    return (a @ b.T) * (math.exp(-0.5 * r) / s), thermal_diagonal(n_bar, dim)


def gaussian_state_fock(alpha, n_max=DEFAULT_N):
    """Projection onto |0>..|N> of the state with covariance alpha, float64.

    Raises TruncationInsufficient when its trace misses 1 by more than
    DEFAULT_TRUNCATION_TOL or is not finite.
    """
    s, diag = squeezed_thermal(alpha, n_max + 1)
    c = s * np.sqrt(diag)
    rho = c @ c.T
    deficit = 1.0 - np.trace(rho)
    if not deficit <= DEFAULT_TRUNCATION_TOL:
        raise TruncationInsufficient(
            f"trace deficit {deficit:.3e} > {DEFAULT_TRUNCATION_TOL} at N={n_max}")
    return FockOperator(rho)


def _cholesky_columns(mat):
    """Columns c_k with sum_k c_k c_k+ = mat up to a trace of EIG_TOL Tr mat.

    Diagonal-pivoted Cholesky, at most dim rank-1 steps on the residual:
    each takes the column of its largest diagonal entry.  Raises
    NegativeDensity when a diagonal entry of the residual falls below
    -EIG_TOL Tr mat, as no positive semidefinite mat leaves one.
    """
    res = np.array(mat, dtype=np.result_type(mat, float))
    total = np.trace(res).real
    cols = []
    for _ in range(len(res)):
        diag = np.diagonal(res).real
        if diag.sum() <= EIG_TOL * total:
            break
        cols.append(res[:, np.argmax(diag)] / math.sqrt(diag.max()))
        res -= np.outer(cols[-1], cols[-1].conj())
    if np.diagonal(res).real.min() < -EIG_TOL * total:
        raise NegativeDensity("the density matrix has a negative part beyond roundoff")
    return np.array(cols).T


def displaced_squeezed_vector(x, y, r, dim, theta=0.0):
    """Projection onto |0>..|dim-1> of D(x,y) S(r)(cos theta |0> + sin theta |1>).

    The arguments broadcast against each other; the result has their shape
    plus a last axis of length dim, and its squared norm is the mass kept by
    the truncation.  g = D S |0> is annihilated by cosh r a - sinh r a+ - c,
    c = cosh r zeta - sinh r conj(zeta), zeta = (x+iy)/sqrt(2), so
    g_{n+1} = (c g_n + sinh r sqrt(n) g_{n-1}) / (cosh r sqrt(n+1)) from
    g_0 = exp(-|zeta|^2/2 + tanh r conj(zeta)^2/2)/sqrt(cosh r).  The photon
    part D S |1> = (cosh r a+ - sinh r a - conj(c)) g reads g one level
    past the truncation.
    """
    x, y, r, theta = (np.asarray(v, float) for v in (x, y, r, theta))
    shape = (dim + 1,) + np.broadcast_shapes(x.shape, y.shape, r.shape, theta.shape)
    return _displaced_squeezed(np.empty(shape, complex), x, y, r, theta)


def _displaced_squeezed(g, x, y, r, theta=0.0):
    """displaced_squeezed_vector(x, y, r, len(g) - 1, theta) built in g."""
    dim = len(g) - 1
    zeta = (x + 1j * y) / math.sqrt(2.0)
    ch, sh = np.cosh(r), np.sinh(r)
    c = ch * zeta - sh * np.conj(zeta)
    root = np.sqrt(np.arange(dim + 1.0)).reshape(-1, *[1] * (g.ndim - 1))
    up, down = sh * root, ch * root
    g[0] = np.exp(-0.5 * np.abs(zeta) ** 2 + 0.5 * np.tanh(r) * np.conj(zeta) ** 2) / np.sqrt(ch)
    g[1] = c * g[0] / ch
    for n in range(1, dim):
        step = np.multiply(c, g[n], out=g[n + 1, ...])
        step += up[n] * g[n - 1]
        step /= down[n + 1]
    vec = g[:dim]
    if np.any(theta):
        photon = -np.conj(c) * vec - up[1:] * g[1:]
        photon[1:] += down[1:dim] * g[:dim - 1]
        vec = np.cos(theta) * vec + np.sin(theta) * photon
    return np.moveaxis(vec, 0, -1)


def state_moments(rho):
    """Means and variances of (q, p) for a density matrix or state vector.

    Read off the ladder sums <a>, <a^2> and <a+a> of the normalized state,
    which need only the first three bands below the diagonal of rho.
    """
    mat = state_array(rho)
    dim = mat.shape[0]
    b0, b1, b2 = (mat[k:] * np.conj(mat[:dim - k]) if mat.ndim == 1 else np.diagonal(mat, -k)
                  for k in range(3))
    n = np.arange(dim, dtype=float)
    norm = b0.real.sum()
    if not 0.0 < norm < math.inf:
        raise TruncationInsufficient(f"state norm {norm} is not positive and finite")
    a1 = np.dot(np.sqrt(n[1:]), b1) / norm
    a2 = np.dot(np.sqrt(n[1:-1] * n[2:]), b2).real / norm
    number = np.dot(n, b0.real) / norm
    mq, mp = math.sqrt(2.0) * a1.real, math.sqrt(2.0) * a1.imag
    return mq, mp, number + 0.5 + a2 - mq ** 2, number + 0.5 - a2 - mp ** 2


def _hermite_rows(q, dim, log_start=None):
    """Oscillator eigenfunctions psi_0(q), ..., psi_{dim-1}(q) in turn, each a new array.

    log_start replaces the Gaussian factor -q^2/2 of psi_0 in the log, which
    scales every row by exp(log_start + q^2/2).
    """
    prev, row = 0.0, math.pi ** -0.25 * np.exp(-0.5 * q * q if log_start is None else log_start)
    yield row
    for n in range(1, dim):
        prev, row = row, math.sqrt(2.0 / n) * q * row - math.sqrt((n - 1.0) / n) * prev
        yield row


def _hermite_functions(q, dim, log_start=None):
    """Oscillator eigenfunctions psi_n(q), n < dim, shape (dim, len(q)); see _hermite_rows."""
    q = np.asarray(q, dtype=float)
    psi = np.empty((dim, q.shape[0]))
    for n, row in enumerate(_hermite_rows(q, dim, log_start)):
        psi[n] = row
    return psi


@functools.lru_cache(maxsize=32)
def _gauss_rule(n, hermite=False):
    """Gauss-Legendre nodes and weights on [-1, 1], or Gauss-Hermite nodes and
    log weights for exp(-t^2); increasing, symmetric and read-only.

    Newton's method on the three-term recurrence, O(n) memory and O(n^2)
    time: _legendre_half and _hermite_half give the nodes >= 0.  Raises
    NumericsError when a weight is not positive and finite.
    """
    x, w = (_hermite_half if hermite else _legendre_half)(n)
    if not np.all(np.isfinite(w) & (hermite | (w > 0.0))):
        raise NumericsError(f"{n}-node Gauss rule has weights not finite and positive")
    mirrored = slice(n % 2, None)  # an odd rule's node 0 is not repeated
    x = np.concatenate((-x[mirrored][::-1], x))
    w = np.concatenate((w[mirrored][::-1], w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _newton(step, x, lo, hi, tol):
    """Newton iterates x - step(x) until every |step| <= tol; raises unless lo <= x <= hi then."""
    for _ in range(NEWTON_STEPS_MAX):
        dx = step(x)
        x = x - dx
        if np.all(np.abs(dx) <= tol):  # NaN fails
            if not np.all((x >= lo) & (x <= hi)):
                raise NumericsError("a Gauss rule node converged outside its bracket")
            return x
    raise NumericsError(f"Gauss rule nodes did not converge in {NEWTON_STEPS_MAX} Newton steps")


def _legendre(x, n):
    """(P_n(x), P_n'(x)) from the Legendre recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2.0 * k + 1.0) * x * p1 - k * p0) / (k + 1.0)
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _legendre_half(n):
    """Gauss-Legendre nodes x >= 0, increasing, and weights 2/((1 - x^2) P_n'(x)^2).

    Newton from Tricomi's x_k = (1 - (n-1)/(8 n^3)) cos(pi (4k - 1)/(4n + 2))
    (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652) stops at 1e-8 of
    about the local spacing, sqrt(1 - x^2)/n, below which the last step
    landed on the root.  Bruns' bounds, cos(pi k/(n + 1/2)) < x_k <
    cos(pi (k - 1/2)/(n + 1/2)), hold one root each and bracket the result.
    """
    k = np.arange((n + 1) // 2, 0, -1)
    theta = math.pi / (n + 0.5)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(theta * (k - 0.25))
    x[:n % 2] = 0.0  # P_n(0) = 0 for odd n, exactly
    x = _newton(lambda x: np.divide(*_legendre(x, n)), x, np.cos(theta * k),
                np.cos(theta * (k - 0.5)), 1e-8 * np.sqrt((1.0 - x) * (1.0 + x)) / n)
    dp = _legendre(x, n)[1]
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


def _hermite_half(n):
    """Gauss-Hermite nodes t >= 0, increasing, and log weights -t^2 - ln n - 2 ln|psi_{n-1}(t)|.

    psi'' = (t^2 - 2n - 1) psi puts the zeros of psi_n within |t| < sqrt(2n + 1),
    more than h = pi/(2 sqrt(2n + 1)) from 0 and 2h apart (Sturm comparison), so
    a sign change of psi_n between grid points h (i + 1/2) isolates each.
    Newton from the middle of each cell, with psi_n' = sqrt(2n) psi_{n-1} -
    t psi_n, stops at 1e-8 h and must end in that cell.  The rows carry a
    factor exp(t^2/4), and |psi_k| < 1, so they stay within exp(+-t^2/4)
    pi^(-1/4): normal floats up to 1414 nodes; more raise.
    """
    h = 0.5 * math.pi / math.sqrt(2.0 * n + 1.0)
    grid = h * (np.arange(math.ceil(2.0 * (2.0 * n + 1.0) / math.pi) + 1) + 0.5)
    if math.exp(-0.25 * grid[-1] ** 2) < sys.float_info.min:
        raise NumericsError(f"a {n}-node Gauss-Hermite rule leaves the normal floats")

    def last_pair(t):  # (psi_{n-1}(t), psi_n(t)) exp(t^2/4)
        return collections.deque(_hermite_rows(t, n + 1, -0.25 * t * t), maxlen=2)

    sign = np.signbit(last_pair(grid)[1])
    cells = np.flatnonzero(sign[1:] != sign[:-1])
    if len(cells) != n // 2:
        raise NumericsError(f"found {len(cells)} of the {n // 2} positive zeros of psi_{n}")
    lo, hi = grid[cells], grid[cells + 1]

    def step(t):
        prev, last = last_pair(t)
        return last / (math.sqrt(2.0 * n) * prev - t * last)

    t = np.concatenate((np.zeros(n % 2), _newton(step, 0.5 * (lo + hi), lo, hi, 1e-8 * h)))
    prev = last_pair(t)[0]
    return t, -0.5 * t * t - math.log(n) - 2.0 * np.log(np.abs(prev))


def _inner_grid(dim, reach):
    """Inner positions q, weights and psi_n(q), n < dim, on [-q_max, q_max].

    q_max = sqrt(2 dim) + 6 covers the Fock support.  The integrands are a
    product of two truncated Fock-space functions, each with wavenumbers up
    to sqrt(2 dim), times a factor with wavenumbers up to reach.
    Gauss-Legendre resolves them once the node count exceeds q_max times the
    total wavenumber over 2; 64 nodes more take the error to rounding
    (Tr[|n><n| D] for every n < dim at dim 25 and 61 and |zeta| <= 3 within
    5.3e-15 of mpmath, where 32 more left 2.0e-8 at the Fock edge).  The
    count is capped at 6000 nodes.
    """
    q_max = math.sqrt(2.0 * dim) + 6.0
    n = int(0.5 * q_max * (reach + 2.0 * math.sqrt(2.0 * dim))) + 64
    x, w = _gauss_rule(min(n, 6000))
    q = q_max * x
    return q, q_max * w, _hermite_functions(q, dim)


def quantum_charfn(rho):
    """Characteristic function phi(x, y) = Tr[rho D(x,y)] as a vectorized callable.

    rho is any Hermitian matrix.  Tr[rho D] = int sum_m psi_m(q) (rho^T
    psi(q-x))_m e^{i(yq - xy/2)} dq: one (Q,) row of wavefunction products
    per distinct x, times a (Q, len(ys)) Fourier kernel over the distinct y
    values, on the inner grid sized for max |y|.
    """
    mat = state_array(rho)
    dim = mat.shape[0]

    def phi(x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        xs, ix = np.unique(x.ravel(), return_inverse=True)
        ys, iy = np.unique(y.ravel(), return_inverse=True)
        q, w, psi = _inner_grid(dim, float(np.abs(ys).max()))
        rows = np.array([(psi * (mat.T @ _hermite_functions(q - x0, dim))).sum(axis=0)
                         for x0 in xs]) * w
        table = (rows @ np.exp(1j * np.outer(q, ys))) * np.exp(-0.5j * np.outer(xs, ys))
        return table[ix, iy].reshape(x.shape)[()]

    return phi
