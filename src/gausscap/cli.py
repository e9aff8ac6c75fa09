"""Command-line front end: capacity tables, regime reports, duality, searches.

Data goes to stdout (JSON, or CSV for sweeps), diagnostics to stderr.
Exit codes: 0 success, 2 invalid parameters, 3 numerical failure.
"""

import csv
import functools
import json
import math
import sys

import click

from .capacity import (
    capacity_alpha,
    capacity_energy,
    classify_regime,
    e_closure,
    optimal_squeezing,
    upper_bound,
)
from .core import (
    NumericsError,
    ValidationError,
    make_covariance,
    make_noise,
    output_entropy_term,
)
from .duality import accessible_info_sharp_position, dual_ensemble, kappa_matrix

LN2 = math.log(2.0)


def _convert(nats, base):
    return nats / LN2 if base == "bits" else nats


def handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc.__class__.__name__}: {exc}", err=True)
            sys.exit(2)
        except NumericsError as exc:
            click.echo(f"numeric failure: {exc.__class__.__name__}: {exc}", err=True)
            sys.exit(3)

    return wrapper


log_base_option = click.option(
    "--log-base", type=click.Choice(["nats", "bits"]), default="nats",
    show_default=True, help="Unit for reported information quantities.",
)


@click.group()
def main():
    """Capacities of one-mode Gaussian measurement channels."""


@main.command()
@click.option("--beta-q", required=True, type=float)
@click.option("--beta-p", required=True, type=float,
              help="Momentum noise variance; 'inf' for position-only measurement.")
@click.option("--energy", "-e", required=True, type=float, help="Mean energy bound E.")
@log_base_option
@handle_errors
def capacity(beta_q, beta_p, energy, log_base):
    """Energy-constrained capacity with the optimizer cross-check."""
    beta = make_noise(beta_q, beta_p)
    res = capacity_energy(beta, energy)
    payload = {
        "capacity_nats": res.capacity_nats,
        "capacity": _convert(res.capacity_nats, log_base),
        "log_base": log_base,
        "regime": res.regime.value,
        "hypothetical": res.hypothetical,
        "optimal_alpha": {
            "alpha_q": res.optimal_alpha.alpha_q,
            "alpha_p": res.optimal_alpha.alpha_p,
        },
        "ensemble": {
            "delta": res.ensemble.delta,
            "gamma_q": res.ensemble.gamma_q,
            "gamma_p": res.ensemble.gamma_p,
        },
        "optimizer_check_nats": res.optimizer_check_nats,
    }
    click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--alpha-q", required=True, type=float)
@click.option("--alpha-p", required=True, type=float)
@click.option("--beta-q", required=True, type=float)
@click.option("--beta-p", required=True, type=float)
@log_base_option
@handle_errors
def regime(alpha_q, alpha_p, beta_q, beta_p, log_base):
    """Regime classification and all row values at fixed alpha."""
    alpha = make_covariance(alpha_q, alpha_p)
    beta = make_noise(beta_q, beta_p)
    cap = capacity_alpha(alpha, beta)
    payload = {
        "regime": classify_regime(alpha, beta).value,
        "delta_opt": optimal_squeezing(alpha, beta),
        "output_entropy_term_nats": output_entropy_term(alpha, beta),
        "e_closure_term_nats": e_closure(alpha, beta),
        "capacity_alpha_nats": cap,
        "capacity_alpha": _convert(cap, log_base),
        "log_base": log_base,
    }
    click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--alpha-q", required=True, type=float)
@click.option("--alpha-p", required=True, type=float)
@click.option("--beta-q", required=True, type=float)
@click.option("--beta-p", required=True, type=float)
@log_base_option
@handle_errors
def dual(alpha_q, alpha_p, beta_q, beta_p, log_base):
    """Dual-ensemble parameters and sharp-position accessible information."""
    alpha = make_covariance(alpha_q, alpha_p)
    beta = make_noise(beta_q, beta_p)
    kap = kappa_matrix(alpha)
    de = dual_ensemble(alpha, beta)
    info = accessible_info_sharp_position(de, beta)
    payload = {
        "kappa": {"kappa_q": kap.kappa_q, "kappa_p": kap.kappa_p},
        "alpha_prime": {"q": de.alpha_prime_q, "p": de.alpha_prime_p},
        "gamma_prime": {"q": de.gamma_prime_q, "p": de.gamma_prime_p},
        "accessible_info_nats": info,
        "accessible_info": _convert(info, log_base),
        "capacity_alpha_nats": capacity_alpha(alpha, beta),
        "regime": classify_regime(alpha, beta).value,
        "log_base": log_base,
    }
    click.echo(json.dumps(payload, indent=2))


def _linspace(start, stop, num):
    """Evenly spaced floats, bit-identical to numpy.linspace(start, stop, num)."""
    if num == 1:
        return [start + 0.0 * (stop - start)]  # nan for an infinite stop, as numpy
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


@main.command()
@click.option("--beta-q", required=True, type=float)
@click.option("--beta-p", required=True, type=float)
@click.option("--energy-min", default=0.5, show_default=True, type=float)
@click.option("--energy-max", default=5.0, show_default=True, type=float)
@click.option("--steps", default=50, show_default=True, type=int)
@log_base_option
@handle_errors
def sweep(beta_q, beta_p, energy_min, energy_max, steps, log_base):
    """Capacity versus energy curve as CSV (columns in --help order).

    CSV columns: energy, capacity, regime, hypothetical, alpha_q, alpha_p.
    Capacity is reported in the unit chosen by --log-base.
    """
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    beta = make_noise(beta_q, beta_p)
    rows = [(e, capacity_energy(beta, e, cross_check=False))
            for e in _linspace(energy_min, energy_max, steps)]
    writer = csv.writer(sys.stdout)
    writer.writerow(["energy", "capacity", "regime", "hypothetical",
                     "alpha_q", "alpha_p"])
    for e, res in rows:
        writer.writerow([e, _convert(res.capacity_nats, log_base), res.regime.value,
                         res.hypothetical, res.optimal_alpha.alpha_q,
                         res.optimal_alpha.alpha_p])


@main.command()
@click.option("--beta-q", required=True, type=float)
@click.option("--energy", "-e", required=True, type=float)
@log_base_option
@handle_errors
def bound(beta_q, energy, log_base):
    """General capacity upper bound (tight for the sharp position measurement)."""
    val = upper_bound(beta_q, energy)
    click.echo(json.dumps({
        "upper_bound_nats": val,
        "upper_bound": _convert(val, log_base),
        "log_base": log_base,
    }, indent=2))


@main.command("hgm-search")
@click.option("--alpha-q", required=True, type=float)
@click.option("--alpha-p", required=True, type=float)
@click.option("--beta-q", required=True, type=float)
@click.option("--beta-p", required=True, type=float)
@click.option("--members", default=4, show_default=True, type=int)
@click.option("--starts", default=16, show_default=True, type=int)
@click.option("--iters", default=200, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int, envvar="GAUSSCAP_SEED",
              show_envvar=True, help="RNG seed.")
@click.option("--truncation", "-n", default=24, show_default=True, type=int)
@click.option("--grid-nodes", default=48, show_default=True, type=int)
@handle_errors
def hgm_search_cmd(alpha_q, alpha_p, beta_q, beta_p, members, starts, iters,
                   seed, truncation, grid_nodes):
    """Numerical stress search against the Gaussian-maximizer ceiling (JSON report)."""
    from .grids import QuadratureGrid
    from .hgm import SearchConfig, hgm_search

    alpha = make_covariance(alpha_q, alpha_p)
    beta = make_noise(beta_q, beta_p)
    config = SearchConfig(
        members=members, starts=starts, max_iter=iters,
        seed=seed,
        n_max=truncation, grid=QuadratureGrid(6.0, grid_nodes),
    )
    report = hgm_search(alpha, beta, config)
    click.echo(report.to_json(indent=2))


@main.command("clt-demo")
@click.option("--n-list", default="4,64,1024", show_default=True,
              help="Comma-separated copy counts (powers of two).")
@click.option("--fock-level", default=1, show_default=True, type=int,
              help="Input number state |n>.")
@click.option("--half-width", default=4.0, show_default=True, type=float)
@click.option("--nodes", default=41, show_default=True, type=int)
@handle_errors
def clt_demo(n_list, fock_level, half_width, nodes):
    """Characteristic-function convergence table for the n-copy symmetrization."""
    import numpy as np

    from . import clt, fock

    try:
        ns = [int(s) for s in n_list.split(",") if s.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad --n-list: {exc}") from None
    dim = max(fock_level + 3, 8)
    rho = np.zeros((dim, dim), dtype=complex)
    rho[fock_level, fock_level] = 1.0
    phi = fock.quantum_charfn(rho)
    alpha = make_covariance(fock_level + 0.5, fock_level + 0.5)
    report = clt.clt_convergence_report(phi, alpha, ns, half_width, nodes)
    writer = csv.writer(sys.stdout)
    writer.writerow(["n", "sup_deviation"])
    for n, dev in report:
        writer.writerow([n, dev])


if __name__ == "__main__":
    main()
