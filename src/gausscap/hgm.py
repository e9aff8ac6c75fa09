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
from .fock import displaced_squeezed_vector
from .grids import (
    OutputSampler,
    QuadratureGrid,
    _average_moments,
    _entropy_from_density,
    _grid_nodes,
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
    starts: int
    evaluations: int

    def to_json(self, **kwargs):
        return json.dumps(self.__dict__, **kwargs)


class _Objective:
    """Penalized negative mutual information over packed ensemble parameters.

    Layout per member: [weight logit, x, y, r] plus a photon-mixing angle
    when the Fock admixture is enabled.
    """

    def __init__(self, alpha, beta, config):
        self.alpha = alpha
        self.beta = beta
        self.cfg = config
        self.dim = config.n_max + 1
        self.per = 5 if config.allow_fock else 4
        self.sampler = OutputSampler(beta, self.dim)
        sq = math.sqrt(alpha.alpha_q + beta.beta_q)
        if beta.noise_type == 1:
            means, sigmas = (0.0, 0.0), (sq, math.sqrt(alpha.alpha_p + beta.beta_p))
        else:
            means, sigmas = (0.0,), (sq,)
        self.points, self.qweights = _grid_nodes(means, sigmas, config.grid)
        self.bound = self.sampler.bind(self.points)
        self.evaluations = 0
        self.best_feasible = -math.inf
        self.best_params = None
        self.any_feasible = False

    def unpack(self, params):
        k = self.cfg.members
        p = np.asarray(params, dtype=float).reshape(k, self.per)
        logits = np.clip(p[:, 0], -30.0, 30.0)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        states = []
        for j in range(k):
            r = float(np.clip(p[j, 3], -3.0, 3.0))
            amps = None
            if self.cfg.allow_fock:
                th = p[j, 4]
                amps = [math.cos(th), math.sin(th)]
            states.append(
                displaced_squeezed_vector(p[j, 1], p[j, 2], r, self.dim, amps)
            )
        return w, states

    def mutual_info_and_violation(self, w, states):
        mq, mp, vq, vp = _average_moments(w, states)
        violation = (mq ** 2 + mp ** 2
                     + (vq - self.alpha.alpha_q) ** 2
                     + (vp - self.alpha.alpha_p) ** 2)
        dens = self.bound.densities(states)
        avg = w @ dens
        h_avg = _entropy_from_density(avg, self.qweights)
        h_mem = sum(wi * _entropy_from_density(dens[i], self.qweights)
                    for i, wi in enumerate(w))
        return h_avg - h_mem, violation

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
    k, per = config.members, 5 if config.allow_fock else 4
    d_opt = optimal_squeezing(alpha, beta)
    r_opt = 0.5 * math.log(2.0 * d_opt)
    points = []
    for _ in range(config.starts):
        p = np.zeros((k, per))
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
        points[0] = _optimal_seed(alpha, beta, config)
    return points


def _optimal_seed(alpha, beta, config):
    """Discretization of the optimal Gaussian ensemble as a start point."""
    k, per = config.members, 5 if config.allow_fock else 4
    d_opt = optimal_squeezing(alpha, beta)
    r_opt = 0.5 * math.log(2.0 * d_opt)
    gq = max(alpha.alpha_q - d_opt, 0.0)
    gp = max(alpha.alpha_p - 0.25 / d_opt, 0.0)
    # Hermite-style symmetric placement of members along the active axes.
    p = np.zeros((k, per))
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
    violation = math.inf
    if obj.best_params is not None:
        w, states = obj.unpack(obj.best_params)
        _, violation = obj.mutual_info_and_violation(w, states)
        raw = obj.best_params.reshape(config.members, obj.per)
        for j in range(config.members):
            entry = {
                "weight": float(w[j]),
                "x": float(raw[j, 1]),
                "y": float(raw[j, 2]),
                "squeeze_r": float(raw[j, 3]),
            }
            if config.allow_fock:
                entry["photon_mix_angle"] = float(raw[j, 4])
            ensemble_desc.append(entry)

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
        starts=config.starts,
        evaluations=obj.evaluations,
    )
