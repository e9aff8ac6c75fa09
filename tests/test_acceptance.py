"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion checks a closed form against an independent numeric route
(scipy optimizers, quadrature, truncated-Fock linear algebra) at the stated
tolerance.  Run with -s to see the per-criterion lines as they complete.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gausscap.capacity import (
    Regime,
    _noisy_position_ratio,
    capacity_alpha,
    capacity_energy,
    classify_regime,
    ensemble_objective,
    optimal_squeezing,
    upper_bound,
    GaussianEnsembleSpec,
)
from gausscap.clt import clt_convergence_report
from gausscap.core import make_covariance, make_noise, output_entropy_term
from gausscap.dualcheck import dual_operator_check
from gausscap.duality import accessible_info_sharp_position, dual_ensemble
from gausscap.fock import gaussian_state_fock, quantum_charfn
from gausscap.grids import (
    QuadratureGrid,
    discretize_gaussian_ensemble,
    mutual_information,
    numeric_output_entropy,
)
from gausscap.hgm import SearchConfig, hgm_search

INF = math.inf
ARTIFACT_DIR = os.path.join(os.path.dirname(__file__), "..", "artifacts")


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def random_pair(rng, lo, hi):
    while True:
        aq, ap = rng.uniform(lo, hi, size=2)
        if aq * ap >= 0.2501:
            break
    while True:
        bq, bp = rng.uniform(lo, hi, size=2)
        if bq * bp >= 0.2501:
            break
    return make_covariance(aq, ap), make_noise(bq, bp)


def test_criterion_01_closed_form_vs_optimizer():
    """capacity_alpha equals entropy term minus numerically minimized closure."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        alpha, beta = random_pair(rng, 0.26, 4.0)
        lo, hi = 0.25 / alpha.alpha_p, alpha.alpha_q
        closure = min(ensemble_objective(lo, alpha, beta),
                      ensemble_objective(hi, alpha, beta))
        if hi - lo > 1e-13:
            res = minimize_scalar(
                lambda d: ensemble_objective(d, alpha, beta),
                bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
            )
            closure = min(closure, res.fun)
        numeric = output_entropy_term(alpha, beta) - closure
        worst = max(worst, abs(capacity_alpha(alpha, beta) - numeric))
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-9 and elapsed < 5.0,
           f"1000 draws, max gap {worst:.2e} (tol 1e-9), {elapsed:.2f}s (< 5s)")


def _shell_argmax(beta, e):
    """Independent maximization of capacity_alpha over alpha_q + alpha_p = 2E."""
    spread = math.sqrt(max(e * e - 0.25, 0.0))
    lo, hi = e - spread, e + spread
    if hi - lo < 1e-13:
        return e, capacity_alpha(make_covariance(e, e), beta)

    def value(ap):
        return capacity_alpha(make_covariance(2.0 * e - ap, ap), beta)

    grid = np.linspace(lo, hi, 129)
    vals = [value(a) for a in grid]
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, 128)]
    res = minimize_scalar(lambda ap: -value(ap), bounds=(a, b),
                          method="bounded", options={"xatol": 1e-12})
    return res.x, -res.fun


def test_criterion_02_energy_capacity_cross_check():
    """capacity_energy against shell maximization; L-regime argmax closed form."""
    rng = np.random.default_rng(202)
    worst_val, worst_ap = 0.0, 0.0
    for k in range(200):
        if k % 5 == 0:
            beta = make_noise(rng.uniform(0.05, 1.5), INF)
        else:
            while True:
                bq, bp = rng.uniform(0.26, 4.0, size=2)
                if bq * bp >= 0.2501:
                    break
            beta = make_noise(bq, bp)
        e = rng.uniform(0.55 + beta.beta_q, 6.0 + beta.beta_q)
        res = capacity_energy(beta, e, cross_check=False)
        _, numeric = _shell_argmax(beta, e)
        worst_val = max(worst_val, abs(res.capacity_nats - numeric))
        if res.regime is Regime.L:
            ap_closed = _noisy_position_ratio(e, beta.beta_q)[0]
            worst_ap = max(worst_ap, abs(res.optimal_alpha.alpha_p - ap_closed))
    ok = worst_val < 1e-9 and worst_ap < 1e-9
    report(2, ok, f"200 draws, max value gap {worst_val:.2e}, "
                  f"max L-regime alpha_p gap {worst_ap:.2e} (tol 1e-9)")


def test_criterion_03_sharp_position_exact():
    """Sharp position capacity ln(2E), matching the tight upper bound."""
    beta = make_noise(0.0, INF)
    worst = 0.0
    for e in (0.5, 1.0, 2.0, 10.0):
        cap = capacity_energy(beta, e, cross_check=False).capacity_nats
        worst = max(worst, abs(cap - math.log(2.0 * e)),
                    abs(cap - upper_bound(0.0, e)))
    report(3, worst < 5e-15, f"E in {{0.5,1,2,10}}, max gap {worst:.2e} "
                             "(machine precision)")


def test_criterion_04_duality_identity():
    """Accessible information of the dual ensemble equals the L-regime capacity."""
    rng = np.random.default_rng(404)
    worst_info, worst_route = 0.0, 0.0
    hits = 0
    while hits < 500:
        aq, ap = rng.uniform(0.3, 4.0, size=2)
        if aq * ap < 0.2501:
            continue
        alpha = make_covariance(aq, ap)
        bq = rng.uniform(0.02, 1.0)
        if rng.uniform() < 0.2:
            beta = make_noise(bq, INF)
        else:
            bp = rng.uniform(max(0.26 / bq, 1.0), 25.0)
            beta = make_noise(bq, bp)
        if classify_regime(alpha, beta) is not Regime.L:
            continue
        hits += 1
        de = dual_ensemble(alpha, beta)
        info = accessible_info_sharp_position(de, beta)
        worst_info = max(worst_info, abs(info - capacity_alpha(alpha, beta)))
        # matrix route (kappa contraction) against the closed form
        apq_closed = aq * (beta.beta_q + 0.25 / ap) / (aq + beta.beta_q)
        worst_route = max(worst_route, abs(de.alpha_prime_q - apq_closed))
        if beta.noise_type == 1:
            app_closed = ap * (beta.beta_p + 0.25 / aq) / (ap + beta.beta_p)
            worst_route = max(worst_route, abs(de.alpha_prime_p - app_closed))
    ok = worst_info < 1e-12 and worst_route < 1e-12
    report(4, ok, f"500 L-regime draws, max info gap {worst_info:.2e}, "
                  f"max route gap {worst_route:.2e} (tol 1e-12)")


def test_criterion_05_regime_continuity():
    """capacity_alpha is continuous across the L/C and C/R boundaries."""
    rng = np.random.default_rng(505)
    eps = 1e-11
    worst = 0.0
    paths = 0
    while paths < 100:
        bq, bp = rng.uniform(0.3, 4.0, size=2)
        if bq * bp < 0.2501:
            continue
        paths += 1
        beta = make_noise(bq, bp)
        crit = 0.5 * math.sqrt(bq / bp)
        # cross L/C by varying alpha_p through 1/(4 crit)
        ap = 0.25 / crit
        aq = max(crit, 0.26 / ap) + rng.uniform(0.1, 2.0)
        jump = abs(capacity_alpha(make_covariance(aq, ap + eps), beta)
                   - capacity_alpha(make_covariance(aq, ap - eps), beta))
        worst = max(worst, jump)
        # cross C/R by varying alpha_q through crit
        aq2 = crit
        ap2 = max(ap, 0.26 / aq2) + rng.uniform(0.1, 2.0)
        jump = abs(capacity_alpha(make_covariance(aq2 + eps, ap2), beta)
                   - capacity_alpha(make_covariance(aq2 - eps, ap2), beta))
        worst = max(worst, jump)
    report(5, worst < 1e-10, f"100 boundary paths, max jump {worst:.2e} "
                             "(tol 1e-10)")


def test_criterion_06_fock_entropy_oracle():
    """Numeric output entropy of Gaussian Fock states matches the closed form."""
    ln_2pi_e = math.log(2.0 * math.pi * math.e)
    cases_1 = [((0.5, 0.5), (0.5, 0.5)), ((1.0, 2.0), (0.5, 0.5)),
               ((2.0, 1.0), (1.0, 0.5)), ((1.5, 0.6), (2.0, 2.0))]
    cases_2 = [((0.5, 0.5), 0.2), ((1.0, 2.0), 0.2), ((2.0, 0.5), 1.0)]
    start = time.perf_counter()
    worst = 0.0
    for (aq, ap), (bq, bp) in cases_1:
        alpha, beta = make_covariance(aq, ap), make_noise(bq, bp)
        rho = gaussian_state_fock(alpha, n_max=60)
        h = numeric_output_entropy(rho, beta)
        exact = ln_2pi_e + 0.5 * math.log((aq + bq) * (ap + bp))
        worst = max(worst, abs(h - exact))
    for (aq, ap), bq in cases_2:
        alpha, beta = make_covariance(aq, ap), make_noise(bq, INF)
        rho = gaussian_state_fock(alpha, n_max=60)
        h = numeric_output_entropy(rho, beta)
        exact = 0.5 * (ln_2pi_e + math.log(aq + bq))
        worst = max(worst, abs(h - exact))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    report(6, ok, f"{len(cases_1)} type-1 + {len(cases_2)} type-2 cases at N=60, "
                  f"max gap {worst:.2e} (tol 1e-6), {elapsed:.1f}s (< 60s)")


def test_criterion_07_discretized_ensemble_capacity():
    """15-node discretizations of the optimal ensembles reproduce capacity."""
    cases = [
        ("C", (1.0, 1.0), (0.5, 0.5)),
        ("L", (1.0, 2.0), (0.2, INF)),
        ("R", (2.0, 1.0), (5.0, 0.2)),
    ]
    worst = 0.0
    details = []
    for tag, (aq, ap), (bq, bp) in cases:
        alpha, beta = make_covariance(aq, ap), make_noise(bq, bp)
        assert classify_regime(alpha, beta).value == tag
        d = optimal_squeezing(alpha, beta)
        spec = GaussianEnsembleSpec(d, max(aq - d, 0.0), max(ap - 0.25 / d, 0.0))
        ens = discretize_gaussian_ensemble(spec, nodes=15, n_max=60)
        mi = mutual_information(ens, beta)
        gap = abs(mi - capacity_alpha(alpha, beta))
        worst = max(worst, gap)
        details.append(f"{tag}: {gap:.1e}")
    report(7, worst < 2e-2, f"gaps {', '.join(details)} (tol 2e-2)")


@pytest.mark.slow
def test_criterion_08_hgm_stress_search():
    """Multi-start search stays below the C ceiling; L excess is only flagged."""
    config = SearchConfig(members=4, starts=16, max_iter=200, seed=0, n_max=24,
                          grid=QuadratureGrid(6.0, 48))
    rep_c = hgm_search(make_covariance(1, 1), make_noise(0.5, 0.5), config)
    ok_c = rep_c.feasible and rep_c.best_value_nats <= math.log(1.5) + 2e-2

    rep_l = hgm_search(make_covariance(1, 2), make_noise(0.2, INF), config)
    flagged = rep_l.feasible and rep_l.gap > 2e-2
    if flagged:
        os.makedirs(ARTIFACT_DIR, exist_ok=True)
        path = os.path.join(ARTIFACT_DIR, "hgm_flagged_L.json")
        with open(path, "w") as fh:
            fh.write(rep_l.to_json(indent=2))
    report(8, ok_c,
           f"C best {rep_c.best_value_nats:.4f} <= {math.log(1.5):.4f}+2e-2; "
           f"L best {rep_l.best_value_nats:.4f} vs ceiling "
           f"{rep_l.ceiling_nats:.4f}" + (" [flagged artifact]" if flagged else ""))


def test_criterion_09_clt_demo():
    """Symmetrized one-photon characteristic function approaches the Gaussian."""
    dim = 8
    rho = np.zeros((dim, dim), dtype=complex)
    rho[1, 1] = 1.0
    phi = quantum_charfn(rho)
    alpha = make_covariance(1.5, 1.5)
    rep = dict(clt_convergence_report(phi, alpha, [4, 1024], half_width=4.0))
    ok = rep[1024] < rep[4] and rep[1024] < 1e-2
    report(9, ok, f"sup deviation n=4: {rep[4]:.3e}, n=1024: {rep[1024]:.3e} "
                  "(< 1e-2)")


def test_criterion_10_operator_duality():
    """Operator-built dual states match the closed-form displaced Gaussians."""
    worst = dual_operator_check(make_covariance(1, 1), make_noise(0.2, 5),
                                n_max=60)
    report(10, worst < 1e-4, f"max trace-norm gap {worst:.2e} (tol 1e-4) at N=60")
