"""stress_search: ``hgm_search`` with acceptance criterion 08's ensemble family.

members=4 with the one-photon admixture, n_max=24 and a QuadratureGrid(6, 48)
outcome grid, on the regime-C type-1 case alpha=(1,1), beta=(0.5,0.5) and the
regime-L type-2 case alpha=(1,2), beta=(0.2,inf).  Starts and iterations are
cut from criterion 08's 16 x 200 to 1 x 30, so that a run holds several
searches and reports their median.  Searches run in (C, L) pairs, each with
its own seed drawn from the workload seed.  BLAS threads are left as found.
"""

import math
import time

from common import Ledger, median, rng
from fock_oracle import fock_layers
from tracer import Summary

PAIRS = 64
C_CEILING = math.log(1.5) + 2e-2


class Case:
    def __init__(self, regime, alpha, beta, config):
        self.regime = regime
        self.alpha = alpha
        self.beta = beta
        self.config = config


def build(g, seed, tiny=False):
    core, hgm, grids = g.core, g.hgm, g.grids
    seeds = rng(seed, 3).integers(0, 2**31 - 1, 2 * PAIRS).tolist()
    size = dict(starts=1, max_iter=2, n_max=8, grid=grids.QuadratureGrid(6.0, 12)) if tiny \
        else dict(starts=1, max_iter=30, n_max=24, grid=grids.QuadratureGrid(6.0, 48))
    c_alpha, c_beta = core.make_covariance(1.0, 1.0), core.make_noise(0.5, 0.5)
    l_alpha, l_beta = core.make_covariance(1.0, 2.0), core.make_noise(0.2, math.inf)
    pairs = []
    for k in range(PAIRS):
        pairs.append((
            Case("C", c_alpha, c_beta,
                 hgm.SearchConfig(members=4, allow_fock=True, seed=seeds[2 * k], **size)),
            Case("L", l_alpha, l_beta,
                 hgm.SearchConfig(members=4, allow_fock=True, seed=seeds[2 * k + 1], **size)),
        ))
    return pairs


def run_search(g, case, ledger):
    """One search; returns (wall time, evaluations or 0 when it failed)."""
    ledger.attempted += 1
    t0 = time.perf_counter()
    try:
        rep = g.hgm.hgm_search(case.alpha, case.beta, case.config)
    except Exception as exc:
        wall = time.perf_counter() - t0
        ledger.fail(f"hgm_search {case.regime}", type(exc).__name__)
        return wall, 0
    wall = time.perf_counter() - t0

    def gate(r):  # criterion 08: C stays under its ceiling; both must be feasible
        return r.feasible and r.evaluations > 0 and (
            case.regime != "C" or r.best_value_nats <= C_CEILING)

    ok = ledger.check(f"hgm_search {case.regime}", gate, rep)
    return wall, rep.evaluations if ok else 0


def run(g, pairs, seconds, ctx, tracer=None):
    """(C, L) pairs while the next is predicted to end within `seconds`."""
    ledger = Ledger()
    walls, per_eval, overheads, per_search = [], [], [], []
    t0 = time.perf_counter()
    last_pair = 0.0
    for k, pair in enumerate(pairs):
        if walls and time.perf_counter() - t0 + last_pair > seconds:
            break
        p0 = time.perf_counter()
        for j, case in enumerate(pair):
            wall, evals = run_search(g, case, ledger)
            walls.append(wall)
            if evals:
                per_eval.append(wall / evals * 1e3)
            if tracer is not None:
                op = 2 * k + j
                with tracer:
                    tracer.op = op
                    traced_wall, traced_evals = run_search(g, case, ledger)
                overheads.append((traced_wall - wall) / wall)
                per_search.append((op, traced_wall, traced_evals))
        last_pair = time.perf_counter() - p0
    detail = {"search_s": {"value": median(walls), "unit": "s"},
              "search_eval_ms": {"value": median(per_eval), "unit": "ms"},
              "samples": {"search_s": walls, "eval_ms": per_eval}}
    layers = {}
    if tracer is not None:
        s = Summary(tracer.spans, [op for op, _, _ in per_search])
        layers = fock_layers(s, len(per_search))
        self_ms = {"hgm": [], "fock": [], "grids": []}
        coverage = []
        for op, wall, evals in per_search:
            one = Summary(tracer.spans, [op])
            for layer in self_ms:
                self_ms[layer].append(one.layer_self(layer, 1e3) / max(evals, 1))
            covered = sum(one.layer_self(layer) for layer in self_ms)
            coverage.append(covered / wall)
        layers.update({
            "hgm.evaluations": median([e for _, _, e in per_search]),
            "hgm.self_ms_per_eval": median(self_ms["hgm"]),
            "fock.self_ms_per_eval": median(self_ms["fock"]),
            "grids.self_ms_per_eval": median(self_ms["grids"]),
        })
        detail["tracing_overhead_share"] = median(overheads)
        detail["self_time_coverage_of_search_wall"] = median(coverage)
    return ledger, layers, detail
