"""Truncated Fock-basis states and the action of displacements on them.

States live on the span of |0>..|N> (dimension N+1); no dense displacement
matrix is built.  Displaced squeezed vectors D(x,y) S(r)(cos t|0> + sin t|1>)
are exact projections onto |0>..|N> from the recurrence of the annihilator
of D S |0> (Yuen, PRA 13, 2226 (1976)): the stress-search members, the
vectors of every type-1 outcome density (grids.OutputSampler), and every
Gaussian state.  _kicked_vectors builds each of those as squeezed vacua
kicked in momentum, exact on a Gauss-Hermite rule: gaussian_state_fock
sums them at the origin, and the duality check (dualcheck) displaces them.
Each rule the engine applies in more than one place has one owner here:
_noise_split splits a covariance into a squeezed vacuum and a momentum
kick, and _trace checks a state's shape and trace.  Density
matrices enter the outcome densities as the columns of a diagonal-pivoted
Cholesky factor (_cholesky_columns), and the characteristic function
(quantum_charfn) contracts rho with wavefunction products on uniform inner
positions: no eigensolver runs here; numpy only.
The Gauss-Hermite rule (_gauss_rule) is Newton's method on the
Hermite-function recurrence, O(n) memory and O(n^2) time, with no companion
matrix or eigensolver; it carries log weights, which do not underflow past
355 nodes.
"""

import collections
import functools
import math
import sys

import numpy as np

from .core import (BOUNDARY_RTOL, NegativeDensity, NonPositive, NumericsError, OutOfInterval,
                   TruncationInsufficient, ValidationError, _is_count)

DEFAULT_N = 60
DEFAULT_TRUNCATION_TOL = 1e-8

# A state's factor stops once the trace left over is at most this fraction of
# its trace, and a diagonal entry left below -EIG_TOL times it is not roundoff.
EIG_TOL = 1e-13

NEWTON_STEPS_MAX = 20  # per Gauss rule; Newton takes 3 to 6 from its starts


class FockOperator:
    """Dense operator on the truncated Fock basis; ``matrix`` is read-only, and
    ``np.asarray`` gives it."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        self._matrix = matrix

    def __repr__(self):
        return f"FockOperator(matrix={self._matrix!r})"

    matrix = property(lambda self: self._matrix)

    def __array__(self, dtype=None, copy=None):
        # NumPy 1.x passes no copy and rejects copy=None in np.array.
        if copy:
            return np.array(self._matrix, dtype=dtype)
        return np.asarray(self._matrix, dtype=dtype)


def gaussian_state_fock(alpha, n_max=DEFAULT_N):
    """Projection onto |0>..|N> of the state with covariance alpha, float64.

    Raises NonPositive unless n_max is an integer >= 0, and
    TruncationInsufficient when its trace misses 1 by more than
    DEFAULT_TRUNCATION_TOL or is not finite.
    """
    if not _is_count(n_max, 0):
        raise NonPositive(f"n_max must be an integer >= 0, got {n_max!r}")
    rho = _gaussian_matrix(alpha.alpha_q, alpha.alpha_p, n_max + 1)
    deficit = 1.0 - np.trace(rho)
    if not deficit <= DEFAULT_TRUNCATION_TOL:
        raise TruncationInsufficient(
            f"trace deficit {deficit:.3e} of rho > {DEFAULT_TRUNCATION_TOL} at N={n_max}")
    return FockOperator(rho)


def _gaussian_matrix(cq, cp, dim):
    """P rho P on |0>..|dim-1>, rho the state of covariance (cq, cp), unchecked:
    sum_j |c_j><c_j| over _kicked_vectors at the origin.  The imaginary parts
    cancel between mirrored nodes, so it is one float64 product on the real
    view of the level-major buffer, its real and imaginary parts interleaved.
    """
    rows = _kicked_vectors(cq, cp, 0.0, np.zeros(1), np.empty((dim + 1, 1, dim), complex))
    real = rows[0].T.view(float)
    return real @ real.T


def _noise_split(cq, cp):
    """(r, kick): the state of covariance (cq, cp) is S(r)|0>, e^{2r} = 2 cq,
    kicked in momentum by Gaussian noise of variance kick = cp - 1/(4 cq)
    (Holevo, Quantum Systems, Channels, Information, 2nd ed. 2019, ch. 12).

    A kick at most BOUNDARY_RTOL cp is 0: cq cp may sit that far below 1/4.
    """
    kick = cp - 0.25 / cq
    return 0.5 * math.log(2.0 * cq), (kick if kick > BOUNDARY_RTOL * cp else 0.0)


def _kicked_vectors(cq, cp, x, ys, buf):
    """Vectors c_j with sum_j |c_j><c_j| = P D(x,y) rho D(x,y)+ P, per y of ys.

    rho of covariance (cq, cp) is S(r)|0> kicked in momentum with variance
    kick (_noise_split): c_j = sqrt(w_j) D(x, y + v_j) S(r)|0>.
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
        v, root_w = np.zeros((1, 1)), np.ones(1)
    rows = _displaced_squeezed(buf[:, :, :v.shape[1]], x, ys[:, None] + v, r)
    rows *= root_w[..., None]
    return rows


def _trace(mat):
    """Tr rho of a density matrix, or |v|^2 of a state vector; raises
    ValidationError unless mat is a non-empty vector or square matrix, and
    TruncationInsufficient unless the trace is positive and finite."""
    if not (mat.ndim in (1, 2) and mat.size and mat.shape == mat.shape[:1] * mat.ndim):
        raise ValidationError(f"a state must be a non-empty vector or square matrix, "
                              f"got shape {mat.shape}")
    trace = (mat * mat.conj() if mat.ndim == 1 else mat.diagonal()).real.sum()
    if not 0.0 < trace < math.inf:
        raise TruncationInsufficient(f"state trace {trace} is not positive and finite")
    return trace


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
    if not _is_count(dim, 1):
        raise NonPositive(f"dim must be an integer >= 1, got {dim!r}")
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
    which need only the first three bands below the diagonal of rho.  Raises
    as _trace does.
    """
    mat = np.asarray(rho)
    norm = _trace(mat)
    dim = mat.shape[0]
    b0, b1, b2 = (mat[k:] * np.conj(mat[:dim - k]) if mat.ndim == 1 else np.diagonal(mat, -k)
                  for k in range(3))
    n = np.arange(dim, dtype=float)
    a1 = np.dot(np.sqrt(n[1:]), b1) / norm
    a2 = np.dot(np.sqrt(n[1:-1] * n[2:]), b2).real / norm
    number = np.dot(n, b0.real) / norm
    mq, mp = math.sqrt(2.0) * a1.real, math.sqrt(2.0) * a1.imag
    return mq, mp, number + 0.5 + a2 - mq ** 2, number + 0.5 - a2 - mp ** 2


def _hermite_rows(q, dim, log_start):
    """Oscillator eigenfunctions psi_0(q), ..., psi_{dim-1}(q) in turn, each a new array.

    log_start replaces the Gaussian factor -q^2/2 of psi_0 in the log, which
    scales every row by exp(log_start + q^2/2).
    """
    prev, row = 0.0, math.pi ** -0.25 * np.exp(log_start)
    yield row
    for n in range(1, dim):
        prev, row = row, math.sqrt(2.0 / n) * q * row - math.sqrt((n - 1.0) / n) * prev
        yield row


def _hermite_functions(q, dim, log_start=None):
    """Oscillator eigenfunctions psi_n(q), n < dim, shape (dim, len(q)), each
    scaled as _hermite_rows scales it (log_start, by default -q^2/2).

    psi_0 = pi^(-1/4) e^(-q^2/2) is subnormal past |q| = 37.6 and 0 past 38.6,
    so a start below e^-700 is lifted to it, its column by up to e^708: no
    row is subnormal or overflows up to |q| = 53.07.  Past that the start
    may leave the normal floats, which is harmless only where every psi_n^2
    < 1e-300: at |q| >= sqrt(2 dim) + 27 (mpmath, dim 1 to 3000: at most
    1e-350).  A column between the two raises NumericsError.
    """
    start = -0.5 * q * q if log_start is None else log_start
    lift = np.clip(-700.0 - start, 0.0, 708.0)
    if np.any((lift == 708.0) & (np.abs(q) < math.sqrt(2.0 * dim) + 27.0)):
        raise NumericsError(f"psi_n(q), n < {dim}, leaves the floats past |q| = 53.07")
    psi = np.empty((dim, q.shape[0]))
    for n, row in enumerate(_hermite_rows(q, dim, start + lift)):
        psi[n] = row
    if lift.any():
        psi *= np.exp(-lift)
    return psi


@functools.lru_cache(maxsize=32)
def _gauss_rule(n):
    """Gauss-Hermite nodes and log weights for exp(-t^2); increasing, symmetric
    and read-only.

    Newton's method on the three-term recurrence, O(n) memory and O(n^2)
    time: _hermite_half gives the nodes >= 0.  Raises NumericsError when a
    weight is not positive and finite.
    """
    t, log_w = _hermite_half(n)
    if not np.all(np.isfinite(log_w)):
        raise NumericsError(f"{n}-node Gauss rule has weights not finite and positive")
    mirrored = slice(n % 2, None)  # an odd rule's node 0 is not repeated
    t = np.concatenate((-t[mirrored][::-1], t))
    log_w = np.concatenate((log_w[mirrored][::-1], log_w))
    t.flags.writeable = log_w.flags.writeable = False
    return t, log_w


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

    t = 0.5 * (lo + hi)
    for _ in range(NEWTON_STEPS_MAX):
        prev, last = last_pair(t)
        dt = last / (math.sqrt(2.0 * n) * prev - t * last)
        t = t - dt
        if np.all(np.abs(dt) <= 1e-8 * h):  # NaN fails
            break
    else:
        raise NumericsError(f"Gauss rule nodes did not converge in {NEWTON_STEPS_MAX} Newton steps")
    if not np.all((t >= lo) & (t <= hi)):
        raise NumericsError("a Gauss rule node converged outside its bracket")
    t = np.concatenate((np.zeros(n % 2), t))
    prev = last_pair(t)[0]
    return t, -0.5 * t * t - math.log(n) - 2.0 * np.log(np.abs(prev))


def _inner_grid(dim, wavenumber):
    """Inner positions q, their common weight and psi_n(q), n < dim, on [-q_max, q_max].

    q_max = sqrt(2 dim) + 6 covers the Fock support and its spatial tails.
    The nodes are the midpoints of cells of width h <= 2 pi / wavenumber.
    On them the midpoint rule's error for a fast-decaying integrand is its
    spectrum at the nonzero multiples of 2 pi / h (Trefethen & Weideman,
    SIAM Rev. 56 (2014) 385), so a spectrum that is zero past wavenumber is
    integrated exactly.
    """
    q_max = math.sqrt(2.0 * dim) + 6.0
    n = math.ceil(q_max * wavenumber / math.pi)
    q = q_max * np.arange(1 - n, n, 2) / n
    return q, 2.0 * q_max / n, _hermite_functions(q, dim)


def quantum_charfn(rho):
    """Characteristic function phi(x, y) = Tr[rho D(x,y)] as a vectorized callable.

    rho is any Hermitian matrix, or a state vector v taken as v v+; an empty
    or non-square rho raises a ValidationError.  Tr[rho D] = int sum_m
    psi_m(q) (rho^T psi(q-x))_m e^{i(yq - xy/2)} dq: one (Q,) row of
    wavefunction products per distinct x, times a (Q, len(ys)) Fourier kernel
    over the distinct y values.  Each product of two truncated Fock-space functions has
    wavenumbers within band = 2 sqrt(2 dim) + 12, the 12 for the two spectral
    tails of 6 each, so phi is below rounding at |y| >= band and is 0 there.
    The inner grid resolves the wavenumbers up to min(max |y|, band) + band,
    so no aliased copy reaches a |y| < band.  Every product is float64:
    rho^T psi is taken on rho's real view, its real and imaginary parts
    interleaved if complex, so no complex matrix product runs.  A non-finite
    or complex x or y raises OutOfInterval, and x and y that are no numbers
    or do not broadcast a ValidationError; empty x and y give an empty array.
    """
    mat = np.asarray(rho)
    if mat.ndim == 1:
        mat = np.outer(mat, mat.conj())
    if mat.ndim != 2 or not 0 < len(mat) == mat.shape[1]:
        raise ValidationError("rho must be a vector or a non-empty square matrix, "
                              f"got shape {mat.shape}")
    mat = np.ascontiguousarray(mat, dtype=np.result_type(mat, float))
    real = mat.view(float)  # (dim, dim), or (dim, 2 dim) with Re and Im interleaved
    dim = mat.shape[0]

    def phi(x, y):
        if np.iscomplexobj(x) or np.iscomplexobj(y):
            raise OutOfInterval("displacements x and y must be real")
        try:
            x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"displacements x and y must be real arrays "
                                  f"that broadcast: {exc}") from None
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise OutOfInterval("displacements x and y must be finite")
        if x.size == 0:
            return np.empty(x.shape, complex)
        xs, ix = np.unique(x.ravel(), return_inverse=True)
        ys, iy = np.unique(y.ravel(), return_inverse=True)
        band = 2.0 * math.sqrt(2.0 * dim) + 12.0
        q, w, psi = _inner_grid(dim, min(float(np.abs(ys).max()), band) + band)
        # rho^T psi(q - x) as (psi^T rho)^T, one product on rho's real view.
        rows = np.array([(psi * (_hermite_functions(q - x0, dim).T @ real).view(mat.dtype).T
                          ).sum(axis=0) for x0 in xs]) * w
        # One float64 product per part of the rows, on the Fourier kernel's
        # real view: below OpenBLAS's threading cut-off on the CLT's grids.
        kernel = np.exp(1j * np.outer(q, ys)).view(float)
        re, im = (np.stack((rows.real, rows.imag)) @ kernel).view(complex)
        table = (re + 1j * im) * np.exp(-0.5j * np.outer(xs, ys)) * (np.abs(ys) < band)
        return table[ix, iy].reshape(x.shape)[()]

    return phi
