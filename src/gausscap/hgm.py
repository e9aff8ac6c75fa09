"""Stress search for ensembles beating the Gaussian-maximizer ceiling.

Multi-start Nelder-Mead over small discrete ensembles of displaced squeezed
states (optionally with a one-photon admixture), with a quadratic penalty
holding the ensemble average at the target covariance.  A feasible value
above the closed-form ceiling is reported as a flagged finding, never
asserted as a violation: in the open regimes the ceiling itself is
hypothetical.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .capacity import capacity_alpha, classify_regime, optimal_squeezing
from .core import NonPositive
from .fock import displaced_squeezed_vector
from .grids import (
    OutputSampler,
    QuadratureGrid,
    _average_moments,
    _grid_nodes,
    _information,
    _output_window,
)


@dataclass(frozen=True)
class SearchConfig:
    members: int = 4
    allow_fock: bool = True
    starts: int = 16
    max_iter: int = 200
    seed: int = 0
    penalty_weight: float = 1e3
    feasibility_tol: float = 1e-3
    n_max: int = 24
    grid: QuadratureGrid = field(default_factory=lambda: QuadratureGrid(6.0, 48))
    seed_optimal: bool = False  # start 0 from the discretized Gaussian optimum

    def __post_init__(self):
        if self.members < 1 or self.n_max < 1:
            raise NonPositive(
                f"members and n_max must be >= 1, got {self.members} and {self.n_max}"
            )

    @property
    def per_member(self):
        """Packed parameters per member: [weight logit, x, y, r] (+ photon-mixing angle)."""
        return 5 if self.allow_fock else 4


@dataclass
class SearchReport:
    best_value_nats: float
    ceiling_nats: float
    gap: float
    regime: str
    hypothetical: bool
    seed: int
    ensemble: list
    feasible: bool
    flagged_excess: bool
    budget_exhausted: bool
    violation: float
    min_kept_mass: float  # smallest member norm^2 in the best ensemble (truncation)
    starts: int
    evaluations: int

    def to_json(self, **kwargs):
        return json.dumps(self.__dict__, **kwargs)


class _Objective:
    """Penalized negative mutual information over packed ensemble parameters."""

    def __init__(self, alpha, beta, config):
        self.alpha = alpha
        self.beta = beta
        self.cfg = config
        self.dim = config.n_max + 1
        means, sigmas = _output_window((0.0, 0.0, alpha.alpha_q, alpha.alpha_p), beta)
        self.points, self.qweights = _grid_nodes(means, sigmas, config.grid)
        self.densities = OutputSampler(beta, self.dim).bind(self.points)
        self.evaluations = 0
        self.best_feasible = -math.inf
        self.best_params = None
        self.any_feasible = False

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
        theta = p[:, 4] if self.cfg.allow_fock else 0.0
        return w, displaced_squeezed_vector(p[:, 1], p[:, 2], p[:, 3], self.dim, theta)

    def describe(self, params):
        """Per-member report entries, with the squeezing the states were built with."""
        w, p = self.decode(params)
        p[:, 0] = w
        keys = ("weight", "x", "y", "squeeze_r", "photon_mix_angle")
        return [dict(zip(keys, map(float, row))) for row in p]

    def mutual_info_and_violation(self, w, states):
        mq, mp, vq, vp = _average_moments(w, states)
        violation = (mq ** 2 + mp ** 2
                     + (vq - self.alpha.alpha_q) ** 2
                     + (vp - self.alpha.alpha_p) ** 2)
        mi, _ = _information(w, self.densities(states), self.qweights)
        return mi, violation

    def __call__(self, params):
        self.evaluations += 1
        w, states = self.unpack(params)
        mi, violation = self.mutual_info_and_violation(w, states)
        if violation < self.cfg.feasibility_tol:
            self.any_feasible = True
            if mi > self.best_feasible:
                self.best_feasible = mi
                self.best_params = np.array(params, dtype=float)
        return -(mi - self.cfg.penalty_weight * violation)


def _feasible_displacements(rng, k, weights, target_var):
    """Zero-mean displacements whose weighted variance matches target_var."""
    if target_var <= 1e-12 or k < 2:
        return np.zeros(k)
    x = rng.standard_normal(k)
    x -= weights @ x
    var = weights @ x ** 2
    if var <= 0:
        return np.zeros(k)
    return x * math.sqrt(target_var / var)


def _initial_points(alpha, beta, config, rng):
    """Random starts built to satisfy the covariance constraint at t = 0.

    Members start as pure squeezed states (no photon admixture), with
    per-member squeezing jittered around the Gaussian optimum and the
    displacements rescaled so the ensemble second moments hit alpha.
    """
    k = config.members
    d_opt = optimal_squeezing(alpha, beta)
    r_opt = 0.5 * math.log(2.0 * d_opt)
    points = []
    for _ in range(config.starts):
        p = np.zeros((k, config.per_member))
        logits = 0.1 * rng.standard_normal(k)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        p[:, 0] = logits
        r = r_opt + 0.15 * rng.standard_normal(k)
        # Keep every member variance inside the target on both quadratures.
        r_lo = -0.5 * math.log(2.0 * alpha.alpha_p)
        r_hi = 0.5 * math.log(2.0 * alpha.alpha_q)
        p[:, 3] = np.clip(r, r_lo, r_hi)
        r = p[:, 3]
        gq = alpha.alpha_q - float(w @ (0.5 * np.exp(2.0 * r)))
        gp = alpha.alpha_p - float(w @ (0.5 * np.exp(-2.0 * r)))
        p[:, 1] = _feasible_displacements(rng, k, w, gq)
        p[:, 2] = _feasible_displacements(rng, k, w, gp)
        points.append(p.ravel())
    if config.seed_optimal and points:
        points[0] = _optimal_seed(alpha, config, d_opt, r_opt)
    return points


def _optimal_seed(alpha, config, d_opt, r_opt):
    """Discretization of the optimal Gaussian ensemble (squeezing d_opt) as a start point."""
    k = config.members
    gq = max(alpha.alpha_q - d_opt, 0.0)
    gp = max(alpha.alpha_p - 0.25 / d_opt, 0.0)
    # Hermite-style symmetric placement of members along the active axes.
    p = np.zeros((k, config.per_member))
    if gp <= 1e-12 or gq <= 1e-12:
        var = max(gq, gp)
        nodes, w = np.polynomial.hermite_e.hermegauss(k)
        col = 1 if gq > gp else 2
        p[:, col] = nodes * math.sqrt(var)
        p[:, 0] = np.log(np.maximum(w / w.sum(), 1e-12))
    else:
        kx = max(int(round(math.sqrt(k))), 1)
        ky = max(k // kx, 1)
        nx, wx = np.polynomial.hermite_e.hermegauss(kx)
        ny, wy = np.polynomial.hermite_e.hermegauss(ky)
        idx = 0
        for i in range(kx):
            for j in range(ky):
                if idx >= k:
                    break
                p[idx, 1] = nx[i] * math.sqrt(gq)
                p[idx, 2] = ny[j] * math.sqrt(gp)
                p[idx, 0] = math.log(max(wx[i] * wy[j], 1e-12))
                idx += 1
    p[:, 3] = r_opt
    return p.ravel()


def hgm_search(alpha, beta, config=SearchConfig()):
    """Best penalized-feasible mutual information over the configured family."""
    regime = classify_regime(alpha, beta)
    ceiling = capacity_alpha(alpha, beta)
    rng = np.random.default_rng(config.seed)
    obj = _Objective(alpha, beta, config)

    for x0 in _initial_points(alpha, beta, config, rng):
        obj(x0)
        if config.max_iter > 0:
            minimize(
                obj, x0, method="Nelder-Mead",
                options={"maxiter": config.max_iter, "xatol": 1e-5,
                         "fatol": 1e-8, "adaptive": True},
            )

    feasible = obj.any_feasible
    best = obj.best_feasible if feasible else -math.inf
    ensemble_desc = []
    violation = min_kept_mass = math.inf
    if obj.best_params is not None:
        w, states = obj.unpack(obj.best_params)
        _, violation = obj.mutual_info_and_violation(w, states)
        min_kept_mass = float(np.min(np.sum(np.abs(states) ** 2, axis=1)))
        ensemble_desc = obj.describe(obj.best_params)

    gap = best - ceiling if feasible else -math.inf
    return SearchReport(
        best_value_nats=best,
        ceiling_nats=ceiling,
        gap=gap,
        regime=regime.value,
        hypothetical=regime.value in ("L", "R"),
        seed=config.seed,
        ensemble=ensemble_desc,
        feasible=feasible,
        flagged_excess=bool(feasible and gap > config.feasibility_tol),
        budget_exhausted=not feasible,
        violation=float(violation),
        min_kept_mass=min_kept_mass,
        starts=config.starts,
        evaluations=obj.evaluations,
    )
