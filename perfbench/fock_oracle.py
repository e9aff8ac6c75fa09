"""fock_oracle: verification passes of the truncated-Fock engine against closed forms.

One pass does the work of acceptance criteria 06, 07, 09 and 10 at seeded
parameters, each step gated at that criterion's tolerance:

1. ``gaussian_state_fock`` and ``numeric_output_entropy`` at N=60 on the
   default 200x200 grid, with pure type-1 noise (noise rank 1) and with mixed
   type-1 noise of fixed purity (beta_q*beta_p = 4, rank 59);
2. one type-2 entropy;
3. ``discretize_gaussian_ensemble(nodes=15, n_max=60)`` and
   ``mutual_information`` for a regime-C ensemble (225 members);
4. ``dual_operator_check(n_max=60)``;
5. ``clt_convergence_report`` for a number state.

Purities are fixed so that every pass keeps the same state and noise ranks,
and so the same cost; squeezing and noise ratios are drawn.  The mixed
noise keeps beta_q/beta_p within [1/4, 4]: beyond that, as in beta = (5, 0.2),
the N=60 entropy misses the 1e-6 gate or raises NormalizationFailure (a
truncation limit of the engine), and no timed operation is meant to fail.
The pure noise reaches beta_q/beta_p = 25.
"""

import math
import time

import numpy as np

from common import Ledger, log_uniform, median, rng
from tracer import Summary

LN_2PI_E = math.log(2.0 * math.pi * math.e)
PASSES = 32  # more than a run can use, so a faster pass still fills the run


class Pass:
    """Inputs of one verification pass."""


def build(g, seed, tiny=False):
    gen = rng(seed, 2)
    core, cap, grids = g.core, g.capacity, g.grids
    n_max = 12 if tiny else 60
    passes = []
    for _ in range(PASSES):
        p = Pass()
        p.n_max = n_max
        p.grid = grids.QuadratureGrid(8.0, 24) if tiny else grids.QuadratureGrid()
        p.nodes = 3 if tiny else 15
        t = float(log_uniform(gen, 0.25, 4.0))
        p.alpha = core.make_covariance(math.sqrt(2.0 * t), math.sqrt(2.0 / t))
        s = float(log_uniform(gen, 0.2, 5.0))
        p.beta_pure = core.make_noise(0.5 * s, 0.5 / s)
        s = float(log_uniform(gen, 0.5, 2.0))
        p.beta_mixed = core.make_noise(2.0 * s, 2.0 / s)
        p.beta_type2 = core.make_noise(float(log_uniform(gen, 0.05, 2.0)), math.inf)
        # Regime C: the stationary squeezing s/2 inside [t/4, t].
        t = float(log_uniform(gen, 2.0 / 3.0, 1.5))
        s = t * float(log_uniform(gen, 0.6, 1.7))
        p.alpha_c = core.make_covariance(t, 1.0 / t)
        p.beta_c = core.make_noise(0.5 * s, 0.5 / s)
        d = cap.optimal_squeezing(p.alpha_c, p.beta_c)
        p.spec_c = cap.GaussianEnsembleSpec(d, max(t - d, 0.0), max(1.0 / t - 0.25 / d, 0.0))
        p.ceiling_c = cap.capacity_alpha(p.alpha_c, p.beta_c)
        t = float(log_uniform(gen, 2.0 / 3.0, 1.5))
        u = float(log_uniform(gen, 0.5, 2.0))
        p.alpha_dual = core.make_covariance(t, 1.0 / t)
        p.beta_dual = core.make_noise(0.2 * u, 5.0 / u)
        level = int(gen.integers(1, 4))
        dim = max(level + 3, 8)
        p.number_state = np.zeros((dim, dim), dtype=complex)
        p.number_state[level, level] = 1.0
        p.alpha_clt = core.make_covariance(level + 0.5, level + 0.5)
        passes.append(p)
    return passes


def _entropy_exact(alpha, beta):
    if math.isfinite(beta.beta_p):
        return LN_2PI_E + 0.5 * math.log((alpha.alpha_q + beta.beta_q)
                                         * (alpha.alpha_p + beta.beta_p))
    return 0.5 * (LN_2PI_E + math.log(alpha.alpha_q + beta.beta_q))


def run_pass(g, p, ledger):
    """All steps of one pass; returns (wall time, successful operations)."""
    fock, grids = g.fock, g.grids
    good = 0

    def op(kind, fn, gate):
        nonlocal good
        ledger.attempted += 1
        if fn is None:
            ledger.fail(kind, "input step failed")
            return None
        try:
            out = fn()
        except Exception as exc:
            ledger.fail(kind, type(exc).__name__)
            return None
        good += ledger.check(kind, gate, out)
        return out

    t0 = time.perf_counter()
    rho = op("gaussian_state_fock", lambda: fock.gaussian_state_fock(p.alpha, n_max=p.n_max),
             lambda r: abs(np.trace(r.matrix).real - 1.0) <= 1e-8)
    for beta in (p.beta_pure, p.beta_mixed, p.beta_type2):
        exact = _entropy_exact(p.alpha, beta)
        op("numeric_output_entropy",
           None if rho is None else
           (lambda: grids.numeric_output_entropy(rho, beta, grid=p.grid)),
           lambda h: abs(h - exact) < 1e-6)
    ens = op("discretize_gaussian_ensemble",
             lambda: grids.discretize_gaussian_ensemble(p.spec_c, nodes=p.nodes,
                                                        n_max=p.n_max),
             lambda e: len(e) == p.nodes ** 2 and abs(np.sum(e.weights) - 1.0) < 1e-9)
    op("mutual_information",
       None if ens is None else (lambda: grids.mutual_information(ens, p.beta_c, grid=p.grid)),
       lambda mi: abs(mi - p.ceiling_c) < 2e-2)
    op("dual_operator_check",
       lambda: g.dualcheck.dual_operator_check(p.alpha_dual, p.beta_dual, n_max=p.n_max),
       lambda worst: worst < 1e-4)

    def clt_report():
        phi = fock.quantum_charfn(p.number_state)
        return dict(g.clt.clt_convergence_report(phi, p.alpha_clt, [4, 1024], half_width=4.0))

    op("clt_convergence_report", clt_report, lambda r: r[1024] < r[4] and r[1024] < 1e-2)
    return time.perf_counter() - t0, good


def run(g, passes, seconds, ctx, tracer=None):
    """Passes back to back while the next is predicted to end within `seconds`."""
    ledger = Ledger()
    walls, rates, traced, overheads = [], [], [], []
    t0 = time.perf_counter()
    for i, p in enumerate(passes):
        if walls and time.perf_counter() - t0 + walls[-1] > seconds:
            break
        wall, good = run_pass(g, p, ledger)
        walls.append(wall)
        rates.append(good / wall)
        if tracer is not None:
            with tracer:
                tracer.op = i
                traced_wall, _ = run_pass(g, p, ledger)
            traced.append(i)
            overheads.append((traced_wall - wall) / wall)
    detail = {"oracle_pass_s": {"value": median(walls), "unit": "s"},
              "oracle_ops_per_s": {"value": median(rates), "unit": "1/s"},
              "samples": {"pass_s": walls}}
    layers = {}
    if tracer is not None:
        s = Summary(tracer.spans, traced)
        per = 1.0 / len(traced)
        layers = fock_layers(s, len(traced))
        layers.update({
            "grids.densities_s": s.total("grids.densities", per),
            "grids.entropy_s": s.total("grids.numeric_output_entropy", per),
            "grids.mi_s": s.total("grids.mutual_information", per),
            "grids.discretize_s": s.total("grids.discretize_gaussian_ensemble", per),
            "dualcheck.check_s": s.total("dualcheck.dual_operator_check", per),
            "clt.report_ms": s.total("clt.clt_convergence_report", 1e3 * per),
        })
        detail["tracing_overhead_share"] = median(overheads)
    return ledger, layers, detail


def fock_layers(s, units):
    """Per-layer metrics of the Fock engine and the density layer, per traced unit."""
    single = {25: [], 61: []}
    batch_time = batch_points = elements = 0.0
    for info, dur in s.infos.get("fock.displacement_batch", []):
        if info is None:
            continue
        points, dim = info
        elements += points * dim * dim
        if points == 1 and dim in single:
            single[dim].append(dur)
        elif points > 1:
            batch_time += dur
            batch_points += points
    ranks = [info for info, _ in s.infos.get("grids.sampler_init", []) if info is not None]
    points = sum(info for name in ("grids.densities", "grids.bound_densities")
                 for info, _ in s.infos.get(name, []) if info is not None)
    per = 1.0 / max(units, 1)
    return {
        "fock.displacement_single_us.dim25": median(single[25]) * 1e6,
        "fock.displacement_single_us.dim61": median(single[61]) * 1e6,
        "fock.displacement_batch_us_per_point": batch_time / batch_points * 1e6
        if batch_points else 0.0,
        "fock.displacement_elements": elements * per,
        "fock.squeeze_ms": s.median("fock.squeeze_matrix", 1e3),
        "fock.state_prep_us": s.median("fock.displaced_squeezed_vector", 1e6),
        "fock.gaussian_state_ms": s.median("fock.gaussian_state_fock", 1e3),
        "fock.moments_us": s.median("fock.state_moments", 1e6),
        "grids.density_points": points * per,
        "grids.noise_rank": sum(ranks) / len(ranks) if ranks else 0.0,
        "grids.bind_ms": s.median("grids.bind", 1e3),
        "grids.bound_densities_ms": s.median("grids.bound_densities", 1e3),
    }
