import math

import numpy as np
import pytest

from gausscap.capacity import Regime, capacity_alpha, classify_regime
from gausscap.core import InvalidForSharp, make_covariance, make_noise
from gausscap.duality import (
    accessible_info_sharp_position,
    dual_ensemble,
    kappa_matrix,
)

INF = math.inf


def random_alpha(rng, lo=0.3, hi=4.0):
    while True:
        aq, ap = rng.uniform(lo, hi, size=2)
        if aq * ap >= 0.2501:
            return make_covariance(aq, ap)


class TestKappaMatrix:
    def test_pure_state_vanishes(self):
        k = kappa_matrix(make_covariance(1.0, 0.25))
        assert k.kappa_q == 0.0 and k.kappa_p == 0.0

    def test_thermal_value(self):
        k = kappa_matrix(make_covariance(1.0, 1.0))
        fac = math.sqrt(0.75)
        assert k.kappa_q == pytest.approx(fac)
        assert k.kappa_p == pytest.approx(fac)

    def test_high_temperature_limit(self):
        # kappa -> alpha as the state becomes very mixed
        k = kappa_matrix(make_covariance(100.0, 100.0))
        assert k.kappa_q == pytest.approx(100.0, rel=1e-4)


class TestDualEnsemble:
    def test_closed_form_alpha_prime(self):
        alpha, beta = make_covariance(1, 1), make_noise(0.2, 5)
        de = dual_ensemble(alpha, beta)
        assert de.alpha_prime_q == pytest.approx(1.0 * 0.45 / 1.2, abs=1e-14)
        assert de.alpha_prime_p == pytest.approx(1.0 * 5.25 / 6.0, abs=1e-14)

    def test_decomposition_sums_to_alpha(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            alpha = random_alpha(rng)
            bq, bp = rng.uniform(0.3, 4.0, size=2)
            if bq * bp < 0.2501:
                continue
            de = dual_ensemble(alpha, make_noise(bq, bp))
            assert de.alpha_prime_q + de.gamma_prime_q == pytest.approx(
                alpha.alpha_q, abs=1e-12
            )
            assert de.alpha_prime_p + de.gamma_prime_p == pytest.approx(
                alpha.alpha_p, abs=1e-12
            )
            assert de.gamma_prime_q >= 0 and de.gamma_prime_p >= 0
            # the dual state is a valid covariance
            assert de.alpha_prime_q * de.alpha_prime_p >= 0.25 - 1e-12

    def test_position_measurement_passthrough(self):
        alpha = make_covariance(1, 2)
        de = dual_ensemble(alpha, make_noise(0.2, INF))
        assert de.gamma_prime_p == 0.0
        assert de.alpha_prime_p == 2.0

    def test_sharp_position_rejected(self):
        with pytest.raises(InvalidForSharp):
            dual_ensemble(make_covariance(1, 1), make_noise(0, INF))

    def test_pure_alpha_is_fixed_point(self):
        # pure average state: no ensemble spread, alpha' = alpha
        alpha = make_covariance(2.0, 0.125)
        de = dual_ensemble(alpha, make_noise(0.5, 0.5))
        assert de.gamma_prime_q == 0.0 and de.gamma_prime_p == 0.0
        assert de.alpha_prime_q == alpha.alpha_q


class TestAccessibleInfo:
    def test_frozen_value(self):
        alpha, beta = make_covariance(1, 1), make_noise(0.2, 5)
        info = accessible_info_sharp_position(dual_ensemble(alpha, beta), beta)
        assert info == pytest.approx(0.4904146265058631, abs=1e-14)

    def test_matches_left_regime_capacity(self):
        rng = np.random.default_rng(43)
        hits = 0
        while hits < 200:
            alpha = random_alpha(rng)
            bq = rng.uniform(0.05, 1.0)
            bp = rng.uniform(max(0.26 / bq, 1.0), 20.0)
            beta = make_noise(bq, bp)
            if classify_regime(alpha, beta) is not Regime.L:
                continue
            hits += 1
            info = accessible_info_sharp_position(dual_ensemble(alpha, beta), beta)
            assert info == pytest.approx(capacity_alpha(alpha, beta), abs=1e-12)

    def test_large_mixed_alpha_matches_capacity(self):
        # alpha'_q = alpha_q - gamma'_q cancels here; the two routes differ
        # by about 1e-10 relative, which once tripped an internal assert.
        alpha = make_covariance(11934.105111396857, 211.97383771041288)
        beta = make_noise(1.4803827887308242e-05, INF)
        info = accessible_info_sharp_position(dual_ensemble(alpha, beta), beta)
        assert classify_regime(alpha, beta) is Regime.L
        assert info == pytest.approx(capacity_alpha(alpha, beta), rel=1e-9)

    def test_nonnegative(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            alpha = random_alpha(rng)
            bq, bp = rng.uniform(0.3, 4.0, size=2)
            if bq * bp < 0.2501:
                continue
            beta = make_noise(bq, bp)
            info = accessible_info_sharp_position(dual_ensemble(alpha, beta), beta)
            assert info >= -1e-15
