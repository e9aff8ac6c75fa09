import math

import numpy as np
import pytest

from dense_displacement import displacement_matrix, padded_squeeze
from traced import traced_peak
from gausscap.core import InvalidForSharp, TruncationInsufficient, make_covariance, make_noise
from gausscap.dualcheck import dual_operator_check
from gausscap.duality import dual_ensemble


def dense_state(cq, cp, dim, power):
    """S tau^power S+ on |0>..|dim-1>: S the block of the padded squeeze and
    tau the thermal weights over n < dim, apart from the builder."""
    s = padded_squeeze(0.25 * math.log(cq / cp))[:dim, :dim]
    n_bar = math.sqrt(cq * cp) - 0.5
    tau = (n_bar / (n_bar + 1.0)) ** np.arange(dim) / (n_bar + 1.0)
    return (s * tau ** power) @ s.T


def dense_dual_check(alpha, beta, n_max, sample_radius, samples_per_axis):
    """The duality check with dense truncated displacement matrices."""
    dual = dual_ensemble(alpha, beta)
    dim = n_max + 1
    sqrt_bar = dense_state(alpha.alpha_q, alpha.alpha_p, dim, 0.5)
    rho_beta = dense_state(beta.beta_q, beta.beta_p, dim, 1.0)
    rho_prime = dense_state(dual.alpha_prime_q, dual.alpha_prime_p, dim, 1.0)
    scale = math.sqrt(1.0 - 0.25 / (alpha.alpha_q * alpha.alpha_p))
    cx = scale * alpha.alpha_q / (alpha.alpha_q + beta.beta_q)
    cy = scale * alpha.alpha_p / (alpha.alpha_p + beta.beta_p)
    axis = np.linspace(-sample_radius, sample_radius, samples_per_axis)
    worst = 0.0
    for x in axis:
        for y in axis:
            d = displacement_matrix(x, y, dim)
            num = sqrt_bar @ d @ rho_beta @ d.conj().T @ sqrt_bar
            dp = displacement_matrix(cx * x, cy * y, dim)
            closed = dp @ rho_prime @ dp.conj().T
            gap = np.linalg.svd(num / np.trace(num).real - closed, compute_uv=False).sum()
            worst = max(worst, float(gap))
    return worst


class TestDualOperatorCheck:
    def test_small_truncation_agreement(self):
        worst = dual_operator_check(
            make_covariance(1.0, 1.0), make_noise(0.5, 0.5),
            n_max=30, sample_radius=1.0, samples_per_axis=3,
        )
        assert worst < 1e-4

    def test_improves_with_truncation(self):
        alpha, beta = make_covariance(1.0, 1.0), make_noise(0.2, 5.0)
        coarse = dual_operator_check(alpha, beta, n_max=20,
                                     sample_radius=1.5, samples_per_axis=3)
        fine = dual_operator_check(alpha, beta, n_max=40,
                                   sample_radius=1.5, samples_per_axis=3)
        assert fine <= coarse + 1e-12

    @pytest.mark.parametrize("n_max", [17, 24, 30])
    def test_matches_dense_displacement(self, n_max):
        # Same truncated operators as the dense route, so the same gap, also
        # where truncation makes it large.
        alpha, beta = make_covariance(1.0, 1.0), make_noise(0.2, 5.0)
        args = (n_max, 1.5, 3)
        dense = dense_dual_check(alpha, beta, *args)
        assert dual_operator_check(alpha, beta, *args) == pytest.approx(dense, rel=1e-9, abs=1e-12)

    def test_squeezed_input_and_noise(self):
        alpha, beta = make_covariance(1.4, 1 / 1.4), make_noise(0.1, 10.0)
        assert dual_operator_check(alpha, beta, n_max=60) < 1e-9

    def test_traced_peak_at_n60(self):
        # Each outcome row once built the (61 levels x rank x inner nodes)
        # product of the Hermite functions and the shifted columns, 4.6-5.2 MB traced.
        alpha, beta = make_covariance(1.1, 1 / 1.1), make_noise(0.2, 5.0)
        assert traced_peak(lambda: dual_operator_check(alpha, beta, n_max=60)) < 2.5e6

    def test_thermal_truncation_raises(self):
        # 1.5e-2 of the thermal weight of alpha lies past N = 20.
        with pytest.raises(TruncationInsufficient):
            dual_operator_check(make_covariance(5.0, 5.0), make_noise(0.5, 0.5), n_max=20)

    @pytest.mark.parametrize("aq, ap", [(10.0, 0.1), (30.0, 0.3)])
    def test_squeeze_truncation_raises(self, aq, ap):
        # The thermal weights fit N = 60, but the squeeze carries 4.8e-4 and
        # 4.4e-2 of rho's trace past it; the gaps were 9.1e-6 and 1.6e-5.
        with pytest.raises(TruncationInsufficient, match="rho"):
            dual_operator_check(make_covariance(aq, ap), make_noise(0.5, 0.5), n_max=60,
                                samples_per_axis=3)

    def test_rejects_position_measurements(self):
        alpha = make_covariance(1.0, 1.0)
        with pytest.raises(InvalidForSharp):
            dual_operator_check(alpha, make_noise(0.2, math.inf), n_max=10)
        with pytest.raises(InvalidForSharp):
            dual_operator_check(alpha, make_noise(0.0, math.inf), n_max=10)
