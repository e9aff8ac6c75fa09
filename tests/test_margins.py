"""Regression margins: criteria 06, 07 and 10 held to about 100 times the
error the engine shows today, so that a regression far inside the acceptance
tolerances still fails.  The acceptance suite (test_acceptance.py) keeps its
own tolerances; these bounds may be tightened as the engine improves.

Measured at the time of writing: criterion 06 at most 1.32e-12, criterion 07
C 2.7e-14 and L, R 4.7e-8, criterion 10 1.80e-14.
"""

import math

import pytest

from gausscap.capacity import GaussianEnsembleSpec, capacity_alpha, optimal_squeezing
from gausscap.core import make_covariance, make_noise
from gausscap.dualcheck import dual_operator_check
from gausscap.fock import gaussian_state_fock
from gausscap.grids import discretize_gaussian_ensemble, mutual_information, numeric_output_entropy

INF = math.inf
LN_2PI_E = math.log(2.0 * math.pi * math.e)


@pytest.mark.parametrize("alpha, beta", [
    ((0.5, 0.5), (0.5, 0.5)), ((1.0, 2.0), (0.5, 0.5)), ((2.0, 1.0), (1.0, 0.5)),
    ((1.5, 0.6), (2.0, 2.0)), ((0.5, 0.5), (0.2, INF)), ((1.0, 2.0), (0.2, INF)),
    ((2.0, 0.5), (1.0, INF)),
])
def test_criterion_06_entropy_margin(alpha, beta):
    (aq, ap), (bq, bp) = alpha, beta
    h = numeric_output_entropy(gaussian_state_fock(make_covariance(aq, ap), n_max=60),
                               make_noise(bq, bp))
    if bp < INF:
        exact = LN_2PI_E + 0.5 * math.log((aq + bq) * (ap + bp))
    else:
        exact = 0.5 * (LN_2PI_E + math.log(aq + bq))
    assert abs(h - exact) < 1e-10


@pytest.mark.parametrize("alpha, beta, bound", [
    ((1.0, 1.0), (0.5, 0.5), 3e-12),  # regime C
    ((1.0, 2.0), (0.2, INF), 5e-6),  # regime L
    ((2.0, 1.0), (5.0, 0.2), 5e-6),  # regime R
])
def test_criterion_07_ensemble_margin(alpha, beta, bound):
    alpha, beta = make_covariance(*alpha), make_noise(*beta)
    d = optimal_squeezing(alpha, beta)
    spec = GaussianEnsembleSpec(d, max(alpha.alpha_q - d, 0.0),
                                max(alpha.alpha_p - 0.25 / d, 0.0))
    mi = mutual_information(discretize_gaussian_ensemble(spec, nodes=15, n_max=60), beta)
    assert abs(mi - capacity_alpha(alpha, beta)) < bound


def test_criterion_10_duality_margin():
    assert dual_operator_check(make_covariance(1, 1), make_noise(0.2, 5), n_max=60) < 2e-12
