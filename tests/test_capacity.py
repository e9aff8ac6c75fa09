import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import gausscap.capacity
from gausscap.capacity import (
    CROSS_CHECK_TOL,
    Regime,
    _noisy_position_ratio,
    capacity_alpha,
    capacity_energy,
    classify_regime,
    e_closure,
    ensemble_objective,
    optimal_squeezing,
    threshold_energy,
    upper_bound,
)
from gausscap.core import (
    EnergyBelowVacuum,
    NonPositive,
    NumericsError,
    OutOfInterval,
    make_covariance,
    make_noise,
)

INF = math.inf
MAX = sys.float_info.max


def random_valid_pair(rng, lo=0.26, hi=4.0):
    """Random (alpha, beta) with admissible variances in [lo, hi]."""
    while True:
        aq, ap = rng.uniform(lo, hi, size=2)
        if aq * ap >= 0.2501:
            break
    while True:
        bq, bp = rng.uniform(lo, hi, size=2)
        if bq * bp >= 0.2501:
            break
    return make_covariance(aq, ap), make_noise(bq, bp)


class TestClassifyRegime:
    def test_center(self):
        assert classify_regime(make_covariance(1, 1), make_noise(0.5, 0.5)) is Regime.C

    def test_left(self):
        assert classify_regime(make_covariance(1, 2), make_noise(0.2, 5)) is Regime.L

    def test_right(self):
        assert classify_regime(make_covariance(0.3, 2), make_noise(5, 0.2)) is Regime.R

    def test_position_measurement_always_left(self):
        assert classify_regime(make_covariance(1, 2), make_noise(0.2, INF)) is Regime.L
        assert classify_regime(make_covariance(1, 2), make_noise(0, INF)) is Regime.L

    def test_boundary_goes_center(self):
        # critical squeezing exactly at 1/(4 alpha_p)
        alpha = make_covariance(1.0, 0.5)  # interval [0.5, 1]
        beta = make_noise(0.5, 0.5)  # critical 0.5
        assert classify_regime(alpha, beta) is Regime.C


class TestEnsembleObjective:
    def test_direct_value(self):
        val = ensemble_objective(0.5, make_covariance(1, 1), make_noise(0.5, 0.5))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_stationary_point(self):
        # derivative vanishes at delta = (1/2) sqrt(beta_q/beta_p)
        alpha, beta = make_covariance(1, 1), make_noise(0.5, 0.5)
        eps = 1e-6
        f0 = ensemble_objective(0.5, alpha, beta)
        assert ensemble_objective(0.5 + eps, alpha, beta) > f0
        assert ensemble_objective(0.5 - eps, alpha, beta) > f0

    def test_type2_value(self):
        val = ensemble_objective(0.125, make_covariance(1, 2), make_noise(0.2, INF))
        assert val == pytest.approx(0.5 * math.log(0.325), abs=1e-15)

    def test_out_of_interval(self):
        with pytest.raises(OutOfInterval):
            ensemble_objective(1.5, make_covariance(1, 1), make_noise(0.5, 0.5))


class TestOptimalSqueezing:
    def test_center_stationary(self):
        assert optimal_squeezing(make_covariance(1, 1), make_noise(0.5, 0.5)) == 0.5

    def test_left_clamp(self):
        assert optimal_squeezing(make_covariance(1, 2), make_noise(0.2, 5)) == 0.125

    def test_right_clamp(self):
        assert optimal_squeezing(make_covariance(0.3, 2), make_noise(5, 0.2)) == 0.3

    def test_matches_golden_section_argmin(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha, beta = random_valid_pair(rng)
            lo, hi = 0.25 / alpha.alpha_p, alpha.alpha_q
            res = minimize_scalar(
                lambda d: ensemble_objective(d, alpha, beta),
                bounds=(lo, hi), method="bounded", options={"xatol": 1e-12},
            )
            d_opt = optimal_squeezing(alpha, beta)
            assert ensemble_objective(d_opt, alpha, beta) <= res.fun + 1e-10


class TestEClosure:
    def test_center_column(self):
        val = e_closure(make_covariance(1, 1), make_noise(0.5, 0.5))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_type2(self):
        val = e_closure(make_covariance(1, 2), make_noise(0.2, INF))
        assert val == pytest.approx(0.5 * math.log(0.325), abs=1e-15)

    def test_left_column(self):
        val = e_closure(make_covariance(1, 2), make_noise(0.2, 5))
        assert val == pytest.approx(0.5 * math.log(0.325 * 7.0), abs=1e-14)


class TestCapacityAlpha:
    def test_center(self):
        val = capacity_alpha(make_covariance(1, 1), make_noise(0.5, 0.5))
        assert val == pytest.approx(0.4054651081081644, abs=1e-15)

    def test_left(self):
        val = capacity_alpha(make_covariance(1, 2), make_noise(0.2, 5))
        assert val == pytest.approx(0.6531258267231771, abs=1e-14)

    def test_vacuum_sharp_position_zero(self):
        val = capacity_alpha(make_covariance(0.5, 0.5), make_noise(0, INF))
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_qp_swap_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            alpha, beta = random_valid_pair(rng)
            mirrored_a = make_covariance(alpha.alpha_p, alpha.alpha_q)
            mirrored_b = make_noise(beta.beta_p, beta.beta_q)
            assert capacity_alpha(alpha, beta) == pytest.approx(
                capacity_alpha(mirrored_a, mirrored_b), abs=1e-12
            )
            reg = classify_regime(alpha, beta)
            mirror = classify_regime(mirrored_a, mirrored_b)
            swap = {Regime.L: Regime.R, Regime.R: Regime.L, Regime.C: Regime.C}
            assert mirror is swap[reg]

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            alpha, beta = random_valid_pair(rng)
            assert capacity_alpha(alpha, beta) >= -1e-14


class TestThresholdEnergy:
    def test_symmetric(self):
        assert threshold_energy(0.5, 0.5) == pytest.approx(0.5)

    def test_asymmetric(self):
        assert threshold_energy(5, 0.2) == pytest.approx(4.9)
        assert threshold_energy(0.2, 5) == pytest.approx(-2.3)


class TestUpperBound:
    def test_sharp_is_log_2e(self):
        assert upper_bound(0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_noisy(self):
        assert upper_bound(0.2, 1.0) == pytest.approx(0.5389965007326871, abs=1e-14)

    def test_vacuum_energy_zero(self):
        assert upper_bound(0.2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_dominates_position_measurement_capacity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            bq = rng.uniform(0.0, 3.0)
            beta = make_noise(bq, INF)
            e = rng.uniform(0.5 + bq, 8.0)
            res = capacity_energy(beta, e, cross_check=False)
            assert res.capacity_nats <= upper_bound(bq, e) + 1e-12


    @pytest.mark.parametrize("e", [1e307, 8.98e307, 9e307, 1.7e308, MAX])
    @pytest.mark.parametrize("beta_q", [0.0, 1e-300, 0.2, 1e3, 1e300, MAX])
    def test_huge_energy_matches_mpmath(self, beta_q, e):
        # 2(E + beta_q) overflowed: upper_bound(0.2, 1.7e308) was inf.
        with mpmath.workdps(40):
            b = mpmath.mpf(beta_q)
            exact = mpmath.log(2 * (mpmath.mpf(e) + b) / (1 + 2 * b))
        assert upper_bound(beta_q, e) == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("beta_q", [-0.4, -1.0, math.nan, INF, -INF])
    def test_rejects_beta_q_outside_zero_to_inf(self, beta_q):
        with pytest.raises(NonPositive):
            upper_bound(beta_q, 1.0)


class TestCapacityEnergy:
    def test_sharp_position(self):
        res = capacity_energy(make_noise(0, INF), 1.0)
        assert res.capacity_nats == pytest.approx(math.log(2.0), abs=1e-15)
        assert res.regime is Regime.L
        assert res.hypothetical

    def test_sharp_position_vacuum(self):
        res = capacity_energy(make_noise(0, INF), 0.5)
        assert res.capacity_nats == pytest.approx(0.0, abs=1e-12)

    def test_noisy_position(self):
        res = capacity_energy(make_noise(0.2, INF), 1.0)
        assert res.capacity_nats == pytest.approx(0.5027805073029094, abs=1e-13)
        assert res.optimal_alpha.alpha_p == pytest.approx(0.8266559657295186, abs=1e-13)

    def test_center_column(self):
        res = capacity_energy(make_noise(0.5, 0.5), 1.0)
        assert res.capacity_nats == pytest.approx(math.log(1.5), abs=1e-15)
        assert res.regime is Regime.C
        assert not res.hypothetical

    def test_rejects_sub_vacuum_energy(self):
        with pytest.raises(EnergyBelowVacuum):
            capacity_energy(make_noise(0.5, 0.5), 0.4)

    def test_cross_check_agrees(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            _, beta = random_valid_pair(rng)
            e = rng.uniform(0.5, 6.0)
            res = capacity_energy(beta, e)
            assert res.optimizer_check_nats == pytest.approx(
                res.capacity_nats, abs=1e-9
            )
            assert res.cross_check_gap == abs(res.optimizer_check_nats - res.capacity_nats)
        assert capacity_energy(beta, e, cross_check=False).cross_check_gap is None

    @pytest.mark.parametrize("beta, regime", [(make_noise(0.5, 0.5), Regime.C),
                                              (make_noise(0.2, INF), Regime.L)])
    def test_wrong_shell_maximum_raises_only_in_center(self, monkeypatch, beta, regime):
        # The closed form is proven in C only; in L and R a gap is recorded.
        right = capacity_energy(beta, 1.0, cross_check=False).capacity_nats
        wrong = right - 3.0 * CROSS_CHECK_TOL
        monkeypatch.setattr(gausscap.capacity, "_shell_maximum", lambda b, e: (1.0, wrong))
        if regime is Regime.C:
            with pytest.raises(NumericsError, match="regime C"):
                capacity_energy(beta, 1.0)
            return
        res = capacity_energy(beta, 1.0)
        assert res.regime is regime
        assert res.cross_check_gap == pytest.approx(3.0 * CROSS_CHECK_TOL, rel=1e-6)

    def test_cross_check_large_energy_grid(self):
        # The shell endpoints used to cancel below alpha_q*alpha_p = 1/4 from
        # E ~ 20 on, so the default cross-check raised HeisenbergViolation.
        noises = [make_noise(0, INF)]
        for j in range(-6, 5):
            bq = 10 ** (j / 2)
            noises += [make_noise(bq, INF), make_noise(bq, 0.25 / bq),
                       make_noise(bq, 1.0 / bq), make_noise(bq, 100.0 / bq)]
        for beta in noises:
            for k in range(-3, 61):
                res = capacity_energy(beta, 10 ** (k / 10))
                gap = abs(res.optimizer_check_nats - res.capacity_nats)
                assert gap <= 1e-9
                if res.regime is Regime.C:
                    assert gap <= 1e-12 * max(1.0, res.capacity_nats)

    def test_noisy_position_ratio_matches_mpmath(self):
        # Small E*beta_q is where sqrt(1 + 8E bq + ...) - 1 cancels.  From
        # 8E bq or 4bq^2 ~ 1.8e308 on, the radicand overflows.
        energies = np.concatenate([np.geomspace(0.5, 1e6, 25), np.geomspace(1e12, 1e300, 25)])
        noises = np.concatenate([np.geomspace(1e-12, 1e2, 57), np.geomspace(1e8, 1e300, 25),
                                 [6.7e153, 1.3e154, 1.35e154]])
        for e in energies.tolist():
            assert _noisy_position_ratio(e, 0.0)[0] == e
            for bq in noises.tolist():
                with mpmath.workdps(50):
                    b = mpmath.mpf(bq)
                    exact = (mpmath.sqrt(1 + 8 * e * b + 4 * b * b) - 1) / (2 * b)
                assert _noisy_position_ratio(e, bq)[0] == pytest.approx(
                    float(exact / 2), rel=1e-14)

    def test_noisy_position_capacity_matches_mpmath(self):
        # ln r with r = 1 + O(E/bq) when bq >> E: ln of the rounded ratio was
        # 8.9e-5 off at bq = 1e12, E = 1.  The reference resolves the 1/bq^2
        # terms of the radicand; values below 1e-300 are subnormal and skipped.
        energies = [0.5, 0.5 + 1e-9, 0.75, 1.0, 3.7, 1e3, 1e8, 1e150, 1e300, 1e307]
        noises = np.concatenate([[0.0], np.geomspace(1e-12, 1e300, 79), [6.7e153, 1.35e154]])
        for e in energies:
            for bq in noises.tolist():
                res = capacity_energy(make_noise(bq, INF), e, cross_check=False)
                digits = 40 + 2 * max(0, int(math.log10(max(bq, 1.0)))) + int(math.log10(e))
                with mpmath.workdps(digits):
                    b, en = mpmath.mpf(bq), mpmath.mpf(e)
                    exact = mpmath.log((mpmath.sqrt(1 + 8 * en * b + 4 * b * b) - 1) / (2 * b)
                                       if bq else 2 * en)
                if abs(exact) > 1e-300:
                    assert res.capacity_nats == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("e", [1.35e154, 1e200, 1e300, 1e307])
    @pytest.mark.parametrize("bq, bp", [(0.5, 0.5), (0.2, 5.0), (5.0, 0.2), (2.0, 2.0),
                                        (0.2, INF), (1e-9, INF), (1e12, INF), (0.0, INF)])
    def test_huge_energy_returns_with_cross_check(self, bq, bp, e):
        # From E = 1.34e154 on, E*E and the entropy products overflowed and
        # the cross-check raised NonPositive on the shell.
        res = capacity_energy(make_noise(bq, bp), e)
        assert math.isfinite(res.capacity_nats)
        assert res.optimizer_check_nats == pytest.approx(res.capacity_nats, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("e", [2.3e307, 5e307, 8.98e307])
    @pytest.mark.parametrize("bq", [0.0, 1e-320, 1e-300, 1e-10, 0.1, 0.2, 0.25, 1.0, 1.9])
    def test_noisy_position_ratio_past_8e_overflow_matches_mpmath(self, bq, e):
        # 8E overflows from E = 2.2e307; with bq below 2E/1.8e308 the ratio was
        # inf (and NaN at bq = 0) and capacity_energy raised NonPositive.
        half, excess = _noisy_position_ratio(e, bq)
        with mpmath.workdps(700):
            b, en = mpmath.mpf(bq), mpmath.mpf(e)
            exact = (mpmath.sqrt(1 + 8 * en * b + 4 * b * b) - 1) / (2 * b) if bq else 2 * en
        assert half == pytest.approx(float(exact / 2), rel=1e-15, abs=0.0)
        assert excess == pytest.approx(float(exact - 1), rel=1e-15, abs=0.0)
        res = capacity_energy(make_noise(bq, INF), e)
        assert res.optimizer_check_nats == pytest.approx(res.capacity_nats, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("e", [9e307, 1.7e308, MAX])
    def test_center_returns_up_to_the_largest_float(self, e):
        # 2E overflows: the cross-check scans the part of the shell where
        # alpha_q is a float, where the scan's 2E - alpha_p was inf.
        for beta in (make_noise(0.5, 0.5), make_noise(2.0, 0.2), make_noise(1e3, 1e3)):
            res = capacity_energy(beta, e)
            assert res.regime is Regime.C
            with mpmath.workdps(40):
                bq, bp = mpmath.mpf(beta.beta_q), mpmath.mpf(beta.beta_p)
                exact = mpmath.log((mpmath.mpf(e) + (bq + bp) / 2) / (mpmath.sqrt(bq * bp) + 0.5))
            assert res.capacity_nats == pytest.approx(float(exact), rel=1e-15, abs=0.0)
            assert res.cross_check_gap <= 1e-15 * res.capacity_nats

    @pytest.mark.parametrize("cross_check", [True, False])
    @pytest.mark.parametrize("b, e", [(1e300, 1e307), (1e307, 8e307)])
    def test_center_past_the_overflow_of_the_noise_product(self, b, e, cross_check):
        # beta_q beta_p overflows: sqrt(beta_q beta_p) was inf, the log's
        # argument 0, and the call raised a bare ValueError.
        res = capacity_energy(make_noise(b, b), e, cross_check=cross_check)
        assert res.regime is Regime.C
        with mpmath.workdps(40):
            bq = bp = mpmath.mpf(b)
            exact = mpmath.log((mpmath.mpf(e) + (bq + bp) / 2) / (mpmath.sqrt(bq * bp) + 0.5))
        assert res.capacity_nats == pytest.approx(float(exact), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("cross_check", [True, False])
    @pytest.mark.parametrize("bq, bp", [(1e308, 1e3), (1e3, 1e308)])
    def test_center_covariance_past_the_float_range(self, bq, bp, cross_check):
        # alpha = E -+ (beta_q - beta_p)/2 has an entry that is no float, which
        # make_covariance rejected as bad input (ValidationError).
        with pytest.raises(NumericsError, match="float range"):
            capacity_energy(make_noise(bq, bp), 1.7e308, cross_check=cross_check)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        log_bq=st.floats(-300.0, 300.0),
        log_bp=st.floats(-300.0, 300.0),
        log_e=st.floats(math.log10(0.5), math.log10(1.6e308)),
        cross_check=st.booleans(),
    )
    def test_any_type1_noise_returns_a_capacity_or_numerics_error(self, log_bq, log_bp, log_e,
                                                                  cross_check):
        # Noise variances log-uniform over [1e-300, 1e300], their product
        # overflowing included.  Regimes L and R raise NumericsError where
        # E + (E - r/2) is no float; no other exception is allowed.
        bq, bp = 10 ** log_bq, 10 ** log_bp
        assume(bq * bp >= 0.25)
        beta = make_noise(bq, bp)
        try:
            res = capacity_energy(beta, min(max(10 ** log_e, 0.5), 1.6e308), cross_check=cross_check)
        except NumericsError:
            return
        assert math.isfinite(res.capacity_nats) and res.capacity_nats >= 0.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        e=st.one_of(st.floats(0.5, 1.7e308), st.builds(lambda x: 10 ** x, st.floats(-0.3, 308.2))),
        log_bq=st.one_of(st.none(), st.floats(-9.0, 2.0)),
        log_u=st.one_of(st.none(), st.floats(0.0, 3.0)),
        cross_check=st.booleans(),
    )
    def test_any_finite_energy_returns_a_capacity(self, e, log_bq, log_u, cross_check):
        # All three noise types.  Regimes L and R put E + (E - r/2) on one
        # axis, which is no float only where r/2 < 2E - 1.8e308: NumericsError,
        # never a ValidationError, and only there.
        e = min(max(e, 0.5), 1.7e308)
        bq = 0.0 if log_bq is None else 10 ** log_bq
        bp = INF if log_u is None or bq == 0.0 else 10 ** log_u * 0.25 / bq
        beta = make_noise(bq, bp)
        center = bp < INF and e >= max(threshold_energy(bp, bq), threshold_energy(bq, bp))
        half = _noisy_position_ratio(e, min(bq, bp))[0]
        if not center and e + (e - half) == INF:
            with pytest.raises(NumericsError, match="float range"):
                capacity_energy(beta, e, cross_check=cross_check)
            return
        res = capacity_energy(beta, e, cross_check=cross_check)
        assert math.isfinite(res.capacity_nats) and res.capacity_nats >= 0.0
        if cross_check:
            assert res.optimizer_check_nats == pytest.approx(res.capacity_nats, rel=1e-9)

    @pytest.mark.parametrize("bq, e", [(3e7, 1e300), (1.3e154, 1.0), (1e200, 1.0)])
    def test_overflowing_radicand_returns(self, bq, e):
        # The ratio's radicand overflows here; these raised OverflowError or
        # ValueError, not a GausscapError.
        res = capacity_energy(make_noise(bq, INF), e, cross_check=False)
        with mpmath.workdps(50):
            b = mpmath.mpf(bq)
            exact = mpmath.log((mpmath.sqrt(1 + 8 * e * b + 4 * b * b) - 1) / (2 * b))
        assert res.capacity_nats == pytest.approx(float(exact), rel=1e-14, abs=1e-15)
        assert res.regime is Regime.L

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        log_e=st.floats(math.log10(0.5), 6.0),
        log_bq=st.floats(-9.0, 2.0),
        log_u=st.floats(0.0, 3.0),
    )
    def test_swapped_noise_mirrors_regime(self, log_e, log_bq, log_u):
        # One noisy-position branch serves L and, with bq and bp swapped, R.
        e = max(10 ** log_e, 0.5)
        bq = 10 ** log_bq
        bp = 10 ** log_u * 0.25 / bq
        assume(bq != bp)
        res = capacity_energy(make_noise(bq, bp), e, cross_check=False)
        mirror = capacity_energy(make_noise(bp, bq), e, cross_check=False)
        assert mirror.capacity_nats == res.capacity_nats
        assert mirror.regime is {Regime.L: Regime.R, Regime.C: Regime.C,
                                 Regime.R: Regime.L}[res.regime]
        assert mirror.optimal_alpha == (res.optimal_alpha.alpha_p, res.optimal_alpha.alpha_q)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        log_e=st.floats(math.log10(0.5), 6.0),
        log_bq=st.floats(-9.0, 2.0),
        log_u=st.one_of(st.none(), st.floats(0.0, 3.0)),
    )
    def test_valid_input_matches_shell_maximum(self, log_e, log_bq, log_u):
        e = max(10 ** log_e, 0.5)
        bq = 10 ** log_bq
        bp = INF if log_u is None else 10 ** log_u * 0.25 / bq
        res = capacity_energy(make_noise(bq, bp), e)
        assert res.optimizer_check_nats == pytest.approx(res.capacity_nats, abs=1e-9)

    def test_monotone_in_energy_and_noise(self):
        beta = make_noise(0.4, 1.0)
        caps = [capacity_energy(beta, e, cross_check=False).capacity_nats
                for e in (0.6, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(caps, caps[1:]))
        for e in (1.0, 3.0):
            c_low = capacity_energy(make_noise(0.3, 1.0), e, cross_check=False)
            c_high = capacity_energy(make_noise(0.8, 1.0), e, cross_check=False)
            assert c_high.capacity_nats <= c_low.capacity_nats + 1e-12

    def test_ensemble_reconstructs_alpha(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            _, beta = random_valid_pair(rng)
            e = rng.uniform(0.55, 6.0)
            res = capacity_energy(beta, e, cross_check=False)
            ens = res.ensemble
            assert ens.delta + ens.gamma_q == pytest.approx(
                res.optimal_alpha.alpha_q, abs=1e-9
            )
            assert 0.25 / ens.delta + ens.gamma_p == pytest.approx(
                res.optimal_alpha.alpha_p, abs=1e-9
            )


class TestRegimeContinuity:
    def test_l_c_boundary(self):
        beta = make_noise(0.5, 2.0)
        crit = 0.5 * math.sqrt(0.25)
        alpha = make_covariance(1.0, 0.25 / crit)  # boundary: crit = 1/(4 alpha_p)
        # both column formulas at the boundary parameters
        left = 0.5 * math.log(
            (alpha.alpha_q + beta.beta_q) / (0.25 / alpha.alpha_p + beta.beta_q)
        )
        center = 0.5 * math.log(
            (alpha.alpha_q + beta.beta_q) * (alpha.alpha_p + beta.beta_p)
            / (math.sqrt(beta.beta_q * beta.beta_p) + 0.5) ** 2
        )
        assert left == pytest.approx(center, abs=1e-12)
        assert capacity_alpha(alpha, beta) == pytest.approx(center, abs=1e-12)

    def test_paths_across_boundaries(self):
        rng = np.random.default_rng(29)
        eps = 1e-11
        for _ in range(100):
            bq, bp = rng.uniform(0.3, 4.0, size=2)
            if bq * bp < 0.2501:
                continue
            beta = make_noise(bq, bp)
            crit = 0.5 * math.sqrt(bq / bp)
            # L/C boundary: alpha_p = 1/(4 crit); C/R boundary: alpha_q = crit
            ap = 0.25 / crit
            aq = rng.uniform(max(crit, 0.26 / ap), max(crit, 0.26 / ap) + 2.0)
            low = capacity_alpha(make_covariance(aq, ap - eps), beta)
            high = capacity_alpha(make_covariance(aq, ap + eps), beta)
            assert abs(high - low) < 1e-10
            aq2 = crit
            ap2 = rng.uniform(max(ap, 0.26 / aq2), max(ap, 0.26 / aq2) + 2.0)
            low = capacity_alpha(make_covariance(aq2 - eps, ap2), beta)
            high = capacity_alpha(make_covariance(aq2 + eps, ap2), beta)
            assert abs(high - low) < 1e-10
