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

The simplex method is the adaptive Nelder-Mead of Gao and Han (Comput.
Optim. Appl. 51 (2012) 259) in numpy: ``_nelder_mead`` takes the steps of
scipy's unbounded ``minimize(method="Nelder-Mead", adaptive=True)`` in the
same order, so the search visits the same points without loading scipy.
"""

import functools
import json
import math

import numpy as np

from .capacity import capacity_alpha, classify_regime, optimal_squeezing
from .core import NonPositive, _is_count, _record
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
    """Negative mutual information of the packed ensemble moved onto the constraint."""

    def __init__(self, alpha, beta, config):
        self.alpha = alpha
        self.beta = beta
        self.cfg = config
        self.dim = config.n_max + 1
        means, sigmas = _output_window((0.0, 0.0, alpha.alpha_q, alpha.alpha_p), beta)
        nodes, weights = zip(*_grid_axes(means, sigmas, config.grid))
        self.qweights = functools.reduce(np.multiply.outer, weights).ravel()
        self.densities = OutputSampler(beta, self.dim).bind(nodes)
        self.evaluations = 0
        self.best_value = -math.inf
        self.best_params = None

    def decode(self, params):
        """Member weights and the (members, per_member) rows, r clipped to [-3, 3]."""
        p = np.array(params, dtype=float).reshape(self.cfg.members, self.cfg.per_member)
        logits = np.clip(p[:, 0], -30.0, 30.0)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        p[:, 3] = np.clip(p[:, 3], -3.0, 3.0)
        return w, p

    def unpack(self, params):
        """Member weights and states, the exact projections onto |0>..|n_max>."""
        w, p = self.decode(params)
        return w, self._states(p)

    def _states(self, p):
        """The states of decoded rows, one per row of the result."""
        theta = p[:, 4] if self.cfg.allow_fock else 0.0
        return displaced_squeezed_vector(p[:, 1], p[:, 2], p[:, 3], self.dim, theta)

    def describe(self, params):
        """Per-member report entries, with the squeezing the states were built with."""
        w, p = self.decode(params)
        p[:, 0] = w
        keys = ("weight", "x", "y", "squeeze_r", "photon_mix_angle")
        return [dict(zip(keys, map(float, row))) for row in p]

    def place(self, params):
        """(params with x, y moved onto the constraint surface, excess).

        Per axis the member means u are centered and scaled so that their
        spread w.u^2 fills the room alpha - w.v left by the member variances.
        The excess, the summed |room| of the axes where that is impossible,
        is 0 when the point was placed.
        """
        _, p, excess = self._placed(params)
        return p.ravel(), excess

    def _placed(self, params):
        """(weights, rows, excess) of place, the rows decoded once and moved in place."""
        w, p = self.decode(params)
        offset, var_q, var_p = _member_moments(p[:, 3], p[:, 4] if self.cfg.allow_fock else 0.0)
        excess = 0.0
        for col, off, var, target in ((1, offset, var_q, self.alpha.alpha_q),
                                      (2, 0.0, var_p, self.alpha.alpha_p)):
            u = p[:, col] + off
            u -= w @ u
            room = target - w @ var
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
        normalized = [s / np.linalg.norm(s) for s in states]  # scored as normalized states
        _, mi, _ = _information(w, [(self.densities(normalized), self.qweights)])
        if mi > self.best_value:
            self.best_value = mi
            self.best_params = p.ravel()
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
        obj(x0)
        if config.max_iter > 0:
            _nelder_mead(obj, x0, config.max_iter)

    feasible = obj.best_params is not None
    ensemble_desc = []
    violation = min_kept_mass = math.inf
    if feasible:
        w, states = obj.unpack(obj.best_params)
        mq, mp, vq, vp = _average_moments(w, states)
        violation = (mq ** 2 + mp ** 2
                     + (vq - alpha.alpha_q) ** 2 + (vp - alpha.alpha_p) ** 2)
        min_kept_mass = float(np.min(np.sum(np.abs(states) ** 2, axis=1)))
        ensemble_desc = obj.describe(obj.best_params)

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
