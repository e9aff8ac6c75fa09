import functools
import math

import numpy as np
import pytest

from dense_displacement import double_loop_displacement, padded_squeeze
from traced import traced_peak
from gausscap.core import (InvalidForSharp, NonPositive, TruncationInsufficient,
                           make_covariance, make_noise)
from gausscap.dualcheck import _kicked_vectors, dual_operator_check
from gausscap.duality import dual_ensemble


def dense_state(cq, cp, dim, power):
    """S tau^power S+ on |0>..|dim-1>: S the block of the padded squeeze and
    tau the thermal weights over n < dim, apart from the builder."""
    s = padded_squeeze(0.25 * math.log(cq / cp))[:dim, :dim]
    n_bar = math.sqrt(cq * cp) - 0.5
    tau = (n_bar / (n_bar + 1.0)) ** np.arange(dim) / (n_bar + 1.0)
    return (s * tau ** power) @ s.T


# Levels of the dense displacement in the references.  The states keep at
# most 1.5e-8 of their trace past them (beta = (0.1, 10)), and D with
# |zeta| <= 2.1 couples those levels to |0>..|60> by at most 7.3e-27, so
# P D rho D+ P is exact to rounding for dim <= 61.
DISPLACE_PAD = 160


@functools.lru_cache(maxsize=8)
def padded_displacements(zetas):
    """D(zeta) on DISPLACE_PAD levels for each zeta of a tuple."""
    return double_loop_displacement(zetas, DISPLACE_PAD)


def displaced_blocks(cq, cp, xs, ys, dim):
    """P D(x,y) rho D(x,y)+ P on |0>..|dim-1> per point (x, y) of xs, ys:
    displaced on DISPLACE_PAD levels, then projected."""
    d = padded_displacements(tuple((np.asarray(xs) + 1j * np.asarray(ys)) / math.sqrt(2.0)))
    moved = d @ dense_state(cq, cp, DISPLACE_PAD, 1.0) @ d.conj().transpose(0, 2, 1)
    return moved[:, :dim, :dim]


def dense_dual_check(alpha, beta, n_max):
    """The duality check with dense displacement matrices, displaced before
    projecting, on its 5 x 5 outcomes over [-2, 2]^2: the worst exact
    trace-norm gap (singular values) and the worst sqrt(dim) Hilbert-Schmidt
    bound on it."""
    dual = dual_ensemble(alpha, beta)
    dim = n_max + 1
    sqrt_bar = dense_state(alpha.alpha_q, alpha.alpha_p, dim, 0.5)
    scale = math.sqrt(1.0 - 0.25 / (alpha.alpha_q * alpha.alpha_p))
    cx = scale * alpha.alpha_q / (alpha.alpha_q + beta.beta_q)
    cy = scale * alpha.alpha_p / (alpha.alpha_p + beta.beta_p)
    axis = np.linspace(-2.0, 2.0, 5)
    x, y = (v.ravel() for v in np.meshgrid(axis, axis, indexing="ij"))
    num = sqrt_bar @ displaced_blocks(beta.beta_q, beta.beta_p, x, y, dim) @ sqrt_bar
    num /= np.trace(num, axis1=1, axis2=2).real[:, None, None]
    closed = displaced_blocks(dual.alpha_prime_q, dual.alpha_prime_p, cx * x, cy * y, dim)
    gaps = num - closed
    exact = np.linalg.svd(gaps, compute_uv=False).sum(axis=1).max()
    bound = math.sqrt(dim) * np.linalg.norm(gaps, axis=(1, 2)).max()
    return float(exact), float(bound)


class TestKickedVectors:
    @pytest.mark.parametrize("beta", [(0.5, 0.5), (0.5, 0.5 + 1e-9), (0.2, 5.0), (0.1, 10.0),
                                      (2.0, 2.0)])
    @pytest.mark.parametrize("dim", [17, 41, 61])
    def test_match_padded_dense(self, dim, beta):
        # Pure, barely kicked, squeezed and thermal noise: the vectors give
        # P D rho D+ P exactly, with no truncation of rho before displacing.
        ys = np.array([-2.0, -0.3, 1.1, 2.0])
        buf = np.empty((dim + 1, len(ys), dim), complex)
        for x in (-1.7, 0.4):
            rows = _kicked_vectors(*beta, x, ys, buf)
            ref = displaced_blocks(*beta, np.full(len(ys), x), ys, dim)
            assert np.abs(np.swapaxes(rows, 1, 2) @ rows.conj() - ref).max() <= 1e-13


class TestDualOperatorCheck:
    def test_small_truncation_agreement(self):
        worst = dual_operator_check(make_covariance(1.0, 1.0), make_noise(0.5, 0.5), n_max=30)
        assert worst < 1e-4

    def test_improves_with_truncation(self):
        alpha, beta = make_covariance(1.0, 1.0), make_noise(0.2, 5.0)
        coarse = dual_operator_check(alpha, beta, n_max=20)
        fine = dual_operator_check(alpha, beta, n_max=40)
        assert fine <= coarse + 1e-12

    @pytest.mark.parametrize("n_max", [17, 24, 30])
    def test_matches_dense_displacement(self, n_max):
        # The noise and dual states enter displaced, then projected, so the
        # gap stays at rounding also at small N.  The check reports
        # sqrt(dim) ||gap||_HS, between the trace norm and sqrt(dim) times it.
        alpha, beta = make_covariance(1.0, 1.0), make_noise(0.2, 5.0)
        exact, bound = dense_dual_check(alpha, beta, n_max)
        worst = dual_operator_check(alpha, beta, n_max)
        assert worst == pytest.approx(bound, rel=1e-9, abs=1e-12)
        assert exact <= worst <= math.sqrt(n_max + 1) * exact + 1e-12

    def test_squeezed_input_and_noise(self):
        alpha, beta = make_covariance(1.4, 1 / 1.4), make_noise(0.1, 10.0)
        assert dual_operator_check(alpha, beta, n_max=60) < 1e-12

    def test_traced_peak_at_n60(self):
        # One (62, 5, 61) vector buffer and the five 61 x 61 gaps of an outcome
        # row; the Fourier step on an inner grid it replaced traced 1.26 MB.
        alpha, beta = make_covariance(1.1, 1 / 1.1), make_noise(0.2, 5.0)
        assert traced_peak(lambda: dual_operator_check(alpha, beta, n_max=60)) < 1.2e6

    @pytest.mark.parametrize("n_max", [2.5, -1, True])
    def test_rejects_n_max_that_is_not_a_count(self, n_max):
        with pytest.raises(NonPositive):
            dual_operator_check(make_covariance(1.0, 1.0), make_noise(0.5, 0.5), n_max=n_max)

    def test_thermal_truncation_raises(self):
        # 1.5e-2 of the thermal weight of alpha lies past N = 20.
        with pytest.raises(TruncationInsufficient):
            dual_operator_check(make_covariance(5.0, 5.0), make_noise(0.5, 0.5), n_max=20)

    @pytest.mark.parametrize("aq, ap", [(10.0, 0.1), (30.0, 0.3)])
    def test_squeeze_truncation_raises(self, aq, ap):
        # The thermal weights fit N = 60, but the squeeze carries 4.8e-4 and
        # 4.4e-2 of rho's trace past it; the gaps were 9.1e-6 and 1.6e-5.
        with pytest.raises(TruncationInsufficient, match="rho"):
            dual_operator_check(make_covariance(aq, ap), make_noise(0.5, 0.5), n_max=60)

    def test_rejects_position_measurements(self):
        alpha = make_covariance(1.0, 1.0)
        with pytest.raises(InvalidForSharp):
            dual_operator_check(alpha, make_noise(0.2, math.inf), n_max=10)
        with pytest.raises(InvalidForSharp):
            dual_operator_check(alpha, make_noise(0.0, math.inf), n_max=10)
