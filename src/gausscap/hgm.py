"""Stress search for ensembles beating the Gaussian-maximizer ceiling.

Multi-start Nelder-Mead over small discrete ensembles of displaced squeezed
states (optionally with a one-photon admixture).  Every evaluated ensemble
has the target average covariance exactly: the member displacements are
centered and scaled onto that constraint surface from the closed-form
moments of the undisplaced members, and a point that cannot be placed, or
whose members lose mass to the truncation, scores its excess instead of an
information value.  A value above the closed-form ceiling is reported as a
flagged finding, never asserted as a violation: in the open regimes the
ceiling itself is hypothetical.

The measurement is covariant under the reflection x -> -x of phase space,
and the search's outcome window is centred on 0, so the density of a member
at -x is that of its mirror image at +x (parity and complex conjugation in
the Fock basis; see _Objective).  The objective therefore binds only the
xs >= 0 of its grid, half the vectors, and scores each member together with
its mirror image there; every node of the midpoint grid has one weight, so
no weight table is built.

The simplex method is the adaptive Nelder-Mead of Gao and Han (Comput.
Optim. Appl. 51 (2012) 259) in numpy: ``_nelder_mead`` takes the steps of
scipy's unbounded ``minimize(method="Nelder-Mead", adaptive=True)`` in the
same order, so the search visits the same points without loading scipy.
"""

import json
import math

import numpy as np

from .capacity import capacity_alpha, classify_regime, optimal_squeezing
from .core import BOUNDARY_RTOL, NonPositive, _is_count, _record
from .fock import displaced_squeezed_vector
from .grids import (
    OutputSampler,
    QuadratureGrid,
    _average_moments,
    _grid_axes,
    _information,
    _output_window,
)

# A best value this far above the ceiling is flagged as an excess.
EXCESS_TOL = 1e-3
# Members must keep at least 1 - KEPT_MASS_TOL of their norm^2 in |0>..|n_max>.
KEPT_MASS_TOL = 1e-3


class SearchConfig(_record("SearchConfig", "members allow_fock starts max_iter seed n_max grid")):
    __slots__ = ()

    def __new__(cls, members=4, allow_fock=True, starts=16, max_iter=200, seed=0,
                n_max=24, grid=QuadratureGrid(6.0, 48)):
        if not (_is_count(members, 1) and _is_count(n_max, 1)):
            raise NonPositive(f"members and n_max must be integers >= 1: {members}, {n_max}")
        if not (_is_count(starts, 1) and _is_count(max_iter, 0)):
            raise NonPositive(f"need integers starts >= 1, max_iter >= 0: {starts}, {max_iter}")
        if not (seed is None or _is_count(seed, 0)):
            raise NonPositive(f"seed must be None or an integer >= 0, got {seed!r}")
        return super().__new__(cls, members, allow_fock, starts, max_iter, seed, n_max, grid)

    @property
    def per_member(self):
        """Packed parameters per member: [weight logit, x, y, r] (+ photon-mixing angle)."""
        return 5 if self.allow_fock else 4


class SearchReport(_record("SearchReport", "best_value_nats ceiling_nats gap regime "
                           "hypothetical seed ensemble feasible flagged_excess budget_exhausted "
                           "violation min_kept_mass starts evaluations")):
    """violation is the squared moment error of the truncated best ensemble,
    min_kept_mass its smallest member norm^2 (truncation)."""

    __slots__ = ()

    def to_json(self, **kwargs):
        """RFC 8259 JSON: the infinities of an infeasible search are written as null."""
        return json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                           for k, v in self._asdict().items()}, **kwargs)


class _Objective:
    """Negative mutual information of the packed ensemble moved onto the constraint.

    The outcome window is centred on 0, so its x nodes come in pairs +-x, and
    the density of a state psi at -x is that of its mirror image P K psi at
    +x, where P is the parity (-1)^n and K the conjugation in the Fock basis.
    Type 1: D(-x, y) = P K D(x, y) K P, and K P S(r)|0> = S(r)|0>.  Types 2
    and 3: psi_n(-q) = (-1)^n psi_n(q) on the mirrored Gauss-Hermite nodes,
    and K changes no density, as the Hermite functions are real.  So only
    the nodes x >= 0 are bound, and each evaluation scores the members and
    their mirror images there, the x = 0 row of an odd grid once.  Every
    node has the grid's one cell weight, the mirrored rows too.
    """

    def __init__(self, alpha, beta, config):
        self.alpha = alpha
        self.beta = beta
        self.cfg = config
        self.dim = config.n_max + 1
        means, sigmas = _output_window((0.0, 0.0, alpha.alpha_q, alpha.alpha_p), beta)
        nodes, self.cell = _grid_axes(means, sigmas, config.grid)
        mid = len(nodes[0]) // 2  # nodes[0][mid:] are the xs >= 0
        self.mirror_from = len(nodes[0]) % 2 * math.prod(map(len, nodes[1:]))  # past x = 0
        self.sign = (-1.0) ** np.arange(self.dim)
        self.densities = OutputSampler(beta, self.dim).bind([nodes[0][mid:], *nodes[1:]])
        self.evaluations = 0
        self.best_value = -math.inf
        self.best = None  # (weights, rows, states) of the best point scored

    def _states(self, p):
        """The states of placed rows, one per row of the result."""
        return displaced_squeezed_vector(p[:, 1], p[:, 2], p[:, 3], self.dim, p[:, 4])

    def _placed(self, params):
        """(weights, rows, excess) of a packed point moved onto the constraint surface.

        The rows are [logit, x, y, r, theta], r clipped to [-3, 3] and theta 0
        without photon mixing.  Per axis the member means u are centered and
        scaled so that their spread w.u^2 fills the room alpha - w.v left by
        the member variances; a room below 0 by roundoff (members on the
        bound) leaves no spread.  The excess, the summed |room| of the axes
        where placing is impossible, is 0 when the point was placed.
        """
        p = np.zeros((self.cfg.members, 5))
        p[:, :self.cfg.per_member] = np.reshape(params, (self.cfg.members, -1))
        logits = np.clip(p[:, 0], -30.0, 30.0)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        p[:, 3] = np.clip(p[:, 3], -3.0, 3.0)
        offset, var_q, var_p = _member_moments(p[:, 3], p[:, 4])
        excess = 0.0
        for col, off, var, target in ((1, offset, var_q, self.alpha.alpha_q),
                                      (2, 0.0, var_p, self.alpha.alpha_p)):
            u = p[:, col] + off
            u -= w @ u
            room = target - w @ var
            # Applies to every point: one scored as placed overshoots the
            # target average variance by at most BOUNDARY_RTOL * target.
            if -BOUNDARY_RTOL * target <= room < 0.0:
                room = 0.0
            spread = w @ (u * u)
            if room < 0.0 or spread == 0.0 < room:
                excess += abs(room)
            else:
                p[:, col] = u * math.sqrt(room / spread if spread > 0.0 else 0.0) - off
        return w, p, excess

    def __call__(self, params):
        self.evaluations += 1
        w, p, excess = self._placed(params)
        if excess > 0.0:
            return excess
        states = self._states(p)
        lost = 1.0 - float(np.min(np.sum(np.abs(states) ** 2, axis=1)))
        if not lost <= KEPT_MASS_TOL:
            return lost
        # Scored as normalized states, together with their mirror images.
        normalized = states / np.linalg.norm(states, axis=1, keepdims=True)
        dens = self.densities(np.concatenate((normalized, self.sign * normalized.conj())))
        k, skip = len(w), self.mirror_from
        _, mi, _ = _information(w, [dens[:k], dens[k:, skip:]], self.cell)
        if mi > self.best_value:
            self.best_value = mi
            self.best = (w, p, states)
        return -mi


def _member_moments(r, theta):
    """q mean and the q, p variances of S(r)(cos theta |0> + sin theta |1>).

    Its p mean is 0; S(r) scales q by e^r and p by e^-r.
    """
    c, s = np.cos(theta), np.sin(theta)
    s2 = s * s
    return (math.sqrt(2.0) * np.exp(r) * c * s,
            np.exp(2.0 * r) * (0.5 + s2 - 2.0 * c * c * s2),
            np.exp(-2.0 * r) * (0.5 + s2))


def _initial_points(alpha, beta, config, rng):
    """Random starts around the Gaussian optimum, one per configured start.

    Weights are near uniform and displacements raw (the objective places
    them).  Photon-mixing angles have scale 0.3 rad, and the squeezing,
    jittered around the optimum, is clipped so that every member variance
    stays inside the target on both quadratures.
    """
    k = config.members
    r_opt = 0.5 * math.log(2.0 * optimal_squeezing(alpha, beta))
    points = []
    for _ in range(config.starts):
        p = np.zeros((k, config.per_member))
        p[:, 0] = 0.1 * rng.standard_normal(k)
        r = r_opt + 0.15 * rng.standard_normal(k)
        p[:, 1:3] = rng.standard_normal((k, 2))
        theta = 0.0
        if config.allow_fock:
            theta = p[:, 4] = 0.3 * rng.standard_normal(k)
        _, vq0, vp0 = _member_moments(0.0, theta)
        p[:, 3] = np.clip(r, -0.5 * np.log(alpha.alpha_p / vp0), 0.5 * np.log(alpha.alpha_q / vq0))
        points.append(p.ravel())
    return points


def _nelder_mead(f, x0, max_iter):
    """Minimize f from x0 by adaptive Nelder-Mead; returns the best vertex.

    A port of scipy's unbounded Nelder-Mead with adaptive=True: the same
    initial simplex, coefficients (reflection 1, expansion 1 + 2/n,
    contraction 0.75 - 1/2n, shrink 1 - 1/n), argsort ordering, stopping
    test and step order, at most max_iter - 1 steps and no cap on
    evaluations.  f gets a copy of each point.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(v.copy()) for v in sim], dtype=float)
    for _ in range(2):  # scipy sorts the first simplex twice; an unstable sort may swap ties
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    for _ in range(max_iter - 1):
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-5
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-8):
            break
        xbar = sim[:-1].sum(axis=0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr.copy())
        if fxr < fsim[0]:
            xe = (1 + chi) * xbar - chi * sim[-1]
            fxe = f(xe.copy())
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi) * xbar - psi * sim[-1]
                fxc = f(xc.copy())
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc.copy())
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j].copy())
            else:
                sim[-1], fsim[-1] = xc, fxc
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0]


def hgm_search(alpha, beta, config=SearchConfig()):
    """Best mutual information over the configured family on the constraint surface."""
    regime = classify_regime(alpha, beta)
    ceiling = capacity_alpha(alpha, beta)
    rng = np.random.default_rng(config.seed)
    obj = _Objective(alpha, beta, config)

    for x0 in _initial_points(alpha, beta, config, rng):
        if config.max_iter > 0:  # x0 is the first vertex Nelder-Mead scores
            _nelder_mead(obj, x0, config.max_iter)
        else:
            obj(x0)

    feasible = obj.best is not None
    ensemble_desc = []
    violation = min_kept_mass = math.inf
    if feasible:
        w, p, states = obj.best
        mq, mp, vq, vp = _average_moments(w, states)
        violation = (mq ** 2 + mp ** 2
                     + (vq - alpha.alpha_q) ** 2 + (vp - alpha.alpha_p) ** 2)
        min_kept_mass = float(np.min(np.sum(np.abs(states) ** 2, axis=1)))
        keys = ("weight", "x", "y", "squeeze_r", "photon_mix_angle")[:config.per_member]
        ensemble_desc = [dict(zip(keys, map(float, (wk, *row[1:]))))
                         for wk, row in zip(w, p)]

    gap = obj.best_value - ceiling if feasible else -math.inf
    return SearchReport(
        best_value_nats=obj.best_value,
        ceiling_nats=ceiling,
        gap=gap,
        regime=regime.value,
        hypothetical=regime.value in ("L", "R"),
        seed=config.seed,
        ensemble=ensemble_desc,
        feasible=feasible,
        flagged_excess=bool(feasible and gap > EXCESS_TOL),
        budget_exhausted=not feasible,
        violation=float(violation),
        min_kept_mass=min_kept_mass,
        starts=config.starts,
        evaluations=obj.evaluations,
    )
