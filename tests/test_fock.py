import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from gausscap.core import TruncationInsufficient, make_covariance
from gausscap.fock import (
    FockOperator,
    destroy,
    displaced_squeezed_vector,
    displacement_batch,
    displacement_fock,
    gaussian_state_fock,
    momentum_operator,
    position_operator,
    quantum_charfn,
    squeeze_matrix,
    state_moments,
    thermal_diagonal,
)


class TestLadderOperators:
    def test_commutator_on_interior(self):
        dim = 20
        a = destroy(dim)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.allclose(comm[:-1, :-1], np.eye(dim - 1), atol=1e-12)

    def test_canonical_commutator(self):
        dim = 20
        q, p = position_operator(dim), momentum_operator(dim)
        comm = q @ p - p @ q
        assert np.allclose(comm[:-1, :-1], 1j * np.eye(dim - 1), atol=1e-12)


class TestSqueeze:
    def test_position_variance_scaling(self):
        dim = 80
        r = 0.3
        vac = np.zeros(dim, dtype=complex)
        vac[0] = 1.0
        v = squeeze_matrix(r, dim) @ vac
        _, _, vq, vp = state_moments(v)
        assert vq == pytest.approx(0.5 * math.exp(2 * r), abs=1e-10)
        assert vp == pytest.approx(0.5 * math.exp(-2 * r), abs=1e-10)

    @pytest.mark.parametrize("dim", [8, 25, 61])
    def test_matches_matrix_exponential(self, dim):
        a = destroy(dim)
        gen = 0.5 * (a.T @ a.T - a @ a)
        for r in np.linspace(-3.0, 3.0, 25):
            err = np.abs(squeeze_matrix(r, dim) - expm(r * gen)).max()
            assert err <= 1e-11, (r, err)

    def test_unitary(self):
        dim = 30
        s = squeeze_matrix(0.4, dim)
        # unitary on the low-excitation block only (truncation edge effects)
        block = (s.conj().T @ s)[:12, :12]
        assert np.allclose(block, np.eye(12), atol=1e-8)


class TestThermalDiagonal:
    def test_vacuum(self):
        d = thermal_diagonal(0.0, 5)
        assert d[0] == 1.0 and d[1:].sum() == 0.0

    def test_mean_photon_number(self):
        n_bar = 1.7
        d = thermal_diagonal(n_bar, 400)
        assert d.sum() == pytest.approx(1.0, abs=1e-12)
        assert (d * np.arange(400)).sum() == pytest.approx(n_bar, abs=1e-10)


class TestGaussianStateFock:
    def test_vacuum(self):
        rho = gaussian_state_fock(make_covariance(0.5, 0.5), n_max=10)
        expect = np.zeros((11, 11))
        expect[0, 0] = 1.0
        assert np.allclose(rho.matrix, expect, atol=1e-14)

    def test_covariance_reproduced(self):
        alpha = make_covariance(2.0, 0.125)  # pure squeezed
        rho = gaussian_state_fock(alpha, n_max=60)
        mq, mp, vq, vp = state_moments(rho)
        assert abs(mq) < 1e-12 and abs(mp) < 1e-12
        assert vq == pytest.approx(2.0, abs=1e-10)
        assert vp == pytest.approx(0.125, abs=1e-10)
        # purity
        assert np.trace(rho.matrix @ rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_mixed_covariance(self):
        alpha = make_covariance(1.5, 0.9)
        rho = gaussian_state_fock(alpha, n_max=80)
        _, _, vq, vp = state_moments(rho)
        assert vq == pytest.approx(1.5, abs=1e-8)
        assert vp == pytest.approx(0.9, abs=1e-8)

    def test_truncation_guard(self):
        with pytest.raises(TruncationInsufficient):
            gaussian_state_fock(make_covariance(50.0, 50.0), n_max=10)


def _double_loop_displacement(zeta, dim):
    """The Laguerre closed form with an outer loop over the offset d (reference)."""
    t = np.abs(zeta) ** 2
    emt = np.exp(-0.5 * t)
    lg = np.array([math.lgamma(k + 1.0) for k in range(dim)])
    out = np.empty((len(zeta), dim, dim), dtype=complex)
    for d in range(dim):
        lag_prev, lag = np.zeros_like(t), np.ones_like(t)
        for n in range(dim - d):
            if n > 0:
                lag, lag_prev = ((2.0 * n - 1.0 + d - t) * lag - (n - 1.0 + d) * lag_prev) / n, lag
            val = (np.exp(0.5 * (lg[n] - lg[n + d])) * emt) * lag
            out[:, n + d, n] = val * zeta ** d
            out[:, n, n + d] = val * (-np.conj(zeta)) ** d
    return out


class TestDisplacement:
    def test_matches_matrix_exponential(self):
        dim = 40
        x, y = 0.7, -1.1
        a = destroy(dim)
        zeta = (x + 1j * y) / math.sqrt(2.0)
        direct = expm(zeta * a.conj().T - np.conj(zeta) * a)
        d = displacement_fock(x, y, n_max=dim - 1).matrix
        # agreement away from the truncation edge
        assert np.allclose(d[:20, :20], direct[:20, :20], atol=1e-9)

    def test_vacuum_overlap_closed_form(self):
        # <n|D|0> = zeta^n e^{-|zeta|^2/2} / sqrt(n!)
        x, y = 1.2, 0.4
        zeta = (x + 1j * y) / math.sqrt(2.0)
        d = displacement_fock(x, y, n_max=25).matrix
        for n in range(10):
            expect = zeta ** n * math.exp(-abs(zeta) ** 2 / 2) / math.sqrt(
                math.factorial(n)
            )
            assert d[n, 0] == pytest.approx(expect, abs=1e-13)

    def test_zero_displacement_identity(self):
        d = displacement_fock(0.0, 0.0, n_max=15).matrix
        assert np.allclose(d, np.eye(16), atol=1e-14)

    def test_unitary_low_block(self):
        d = displacement_fock(1.0, 1.0, n_max=60).matrix
        block = (d.conj().T @ d)[:30, :30]
        assert np.allclose(block, np.eye(30), atol=1e-10)

    def test_batch_consistency(self):
        # A few points at dim 20, and the 41 x 41 (x, y) grid at dim 8 that
        # quantum_charfn evaluates for the CLT check.
        axis = np.linspace(-4.0, 4.0, 41)
        grid = (axis[:, None] + 1j * axis[None, :]).ravel() / math.sqrt(2)
        for zs, dim in [(np.array([0.3 + 0.2j, -1.0 + 0.5j, 0.0]), 20), (grid, 8)]:
            batch = displacement_batch(zs, dim)
            for i, z in enumerate(zs):
                x, y = math.sqrt(2) * z.real, math.sqrt(2) * z.imag
                single = displacement_fock(x, y, n_max=dim - 1).matrix
                assert np.allclose(batch[i], single, atol=1e-13)

    @pytest.mark.parametrize("dim", [8, 20, 25, 41, 61, 100])
    def test_matches_double_loop_reference(self, dim):
        rng = np.random.default_rng(dim)
        zs = rng.uniform(0.0, 6.0, 20) * np.exp(2j * np.pi * rng.uniform(size=20))
        err = np.abs(displacement_batch(zs, dim) - _double_loop_displacement(zs, dim))
        assert err.max() <= 1e-15

    @pytest.mark.parametrize("dim", [25, 61])
    def test_every_element_matches_mpmath(self, dim):
        # <n+d|D|n> = sqrt(n!/(n+d)!) zeta^d e^{-t/2} L_n^{(d)}(t), t = |zeta|^2,
        # and <n|D|n+d> the same with (-conj zeta)^d; L from its finite sum.
        for radius in (0.5, 2.0, 3.0):
            zeta = cmath.rect(radius, 0.7)
            got = displacement_batch([zeta], dim)[0]
            ref = np.empty((dim, dim), dtype=complex)
            with mpmath.workdps(50):
                z = mpmath.mpc(zeta)
                t = abs(z) ** 2
                t_pow = [t ** i / math.factorial(i) for i in range(dim)]
                for n in range(dim):
                    for d in range(dim - n):
                        lag = mpmath.fsum((-1) ** i * math.comb(n + d, n - i) * t_pow[i]
                                          for i in range(n + 1))
                        c = (mpmath.sqrt(mpmath.mpf(math.factorial(n)) / math.factorial(n + d))
                             * mpmath.exp(-t / 2) * lag)
                        ref[n + d, n] = complex(c * z ** d)
                        ref[n, n + d] = complex(c * (-mpmath.conj(z)) ** d)
            assert np.abs(got - ref).max() <= 1e-13, radius


class TestDisplacedSqueezedVector:
    def test_moments(self):
        dim = 100
        x, y, r = 0.8, -0.6, 0.25
        v = displaced_squeezed_vector(x, y, r, dim)
        mq, mp, vq, vp = state_moments(v)
        assert mq == pytest.approx(x, abs=1e-8)
        assert mp == pytest.approx(y, abs=1e-8)
        assert vq == pytest.approx(0.5 * math.exp(2 * r), abs=1e-8)
        assert vp == pytest.approx(0.5 * math.exp(-2 * r), abs=1e-8)

    def test_normalized(self):
        v = displaced_squeezed_vector(1.0, 0.5, -0.3, 80)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-8)

    def test_fock_amplitudes(self):
        # pure |1> without squeeze or displacement
        v = displaced_squeezed_vector(0.0, 0.0, 0.0, 10, fock_amplitudes=[0, 1])
        expect = np.zeros(10)
        expect[1] = 1.0
        assert np.allclose(v, expect, atol=1e-14)


class TestQuantumCharfn:
    def test_vacuum(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[0, 0] = 1.0
        phi = quantum_charfn(rho)
        xs = np.array([0.0, 0.5, 1.0])
        ys = np.array([0.0, -0.5, 2.0])
        t = (xs ** 2 + ys ** 2) / 2.0
        assert np.allclose(phi(xs, ys), np.exp(-t / 2.0), atol=1e-12)

    def test_one_photon(self):
        rho = np.zeros((8, 8), dtype=complex)
        rho[1, 1] = 1.0
        phi = quantum_charfn(rho)
        x, y = 0.9, -0.4
        t = (x ** 2 + y ** 2) / 2.0
        assert phi(x, y) == pytest.approx(math.exp(-t / 2.0) * (1.0 - t), abs=1e-12)

    def test_origin_is_trace(self):
        rho = gaussian_state_fock(make_covariance(1.2, 0.8), n_max=50)
        phi = quantum_charfn(rho)
        assert phi(0.0, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_gaussian_state_matches_gaussian_charfn(self):
        alpha = make_covariance(1.0, 0.7)
        rho = gaussian_state_fock(alpha, n_max=80)
        phi = quantum_charfn(rho)
        for x, y in [(0.5, 0.0), (0.0, 0.8), (1.0, -1.0)]:
            expect = math.exp(-0.5 * (alpha.alpha_p * x ** 2 + alpha.alpha_q * y ** 2))
            assert phi(x, y) == pytest.approx(expect, abs=1e-8)


class TestFockOperator:
    def test_dims(self):
        op = FockOperator(np.eye(7))
        assert op.dim == 7 and op.n_max == 6
