import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from dense_displacement import PAD, destroy, double_loop_displacement, padded_squeeze
from traced import traced_peak
from gausscap import fock
from gausscap.core import (NonPositive, NumericsError, OutOfInterval, TruncationInsufficient,
                           ValidationError, make_covariance, make_noise)
from gausscap.fock import (
    FockOperator,
    displaced_squeezed_vector,
    gaussian_state_fock,
    quantum_charfn,
    state_moments,
)
from gausscap.grids import numeric_output_entropy, povm_density


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

    @pytest.mark.parametrize("n_max", [-1, 2.5, True])
    def test_rejects_n_max_that_is_not_a_count(self, n_max):
        with pytest.raises(NonPositive):
            gaussian_state_fock(make_covariance(1.0, 1.0), n_max=n_max)

    @pytest.mark.parametrize("alpha", [(30.0, 0.3), (10.0, 0.1)])
    def test_strong_squeezing_raises(self, alpha):
        # The thermal weights fit in N = 60 but the squeezed state does not.
        with pytest.raises(TruncationInsufficient):
            gaussian_state_fock(make_covariance(*alpha), n_max=60)

    def test_strong_squeezing_converges(self):
        alpha = make_covariance(10.0, 0.1)
        rho = gaussian_state_fock(alpha, n_max=200)
        _, _, vq, vp = state_moments(rho)
        assert vq == pytest.approx(10.0, abs=1e-6) and vp == pytest.approx(0.1, abs=1e-6)
        h = numeric_output_entropy(rho, make_noise(0.2, math.inf))
        assert h == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 10.2), abs=1e-6)

    @pytest.mark.parametrize("alpha", [(1.0, 1.0), (1.1, 1 / 1.1), (1.5, 0.6)])
    def test_float64_at_any_squeeze(self, alpha):
        assert gaussian_state_fock(make_covariance(*alpha), n_max=40).matrix.dtype == np.float64

    def test_non_finite_trace_raises(self, monkeypatch):
        # A Hermite rule with a NaN log weight gives a NaN trace, which is no pass.
        t, log_w = fock._gauss_rule(41)
        monkeypatch.setattr(fock, "_gauss_rule",
                            lambda n: (t, np.where(t == t[-1], np.nan, log_w)))
        with pytest.raises(TruncationInsufficient):
            gaussian_state_fock(make_covariance(1.0, 1.0), n_max=40)

    def test_strong_squeezing_builds_past_370_levels(self):
        # The Hermite weights underflow from 355 nodes; their logs do not, so
        # the state builds where 370 levels left a trace deficit of 6.8e-7.
        rho = gaussian_state_fock(make_covariance(30.0, 0.3), n_max=540)
        _, _, vq, vp = state_moments(rho)
        assert vq == pytest.approx(30.0, rel=1e-6) and vp == pytest.approx(0.3, rel=1e-6)

    @pytest.mark.parametrize("dim", [8, 25, 61])
    @pytest.mark.parametrize("nu", [0.5, 1.0])
    def test_matches_padded_squeeze(self, dim, nu):
        # Pure and mixed, entry by entry: S(r) tau S(r)+ on the padded levels,
        # then projected, against the exact projection the builder gives
        # (unchecked, since S(0.8)|0> keeps 1.3% of its trace past 8 levels).
        n_bar = nu - 0.5
        tau = (n_bar / (n_bar + 1.0)) ** np.arange(PAD) / (n_bar + 1.0)
        for r in (-0.8, -0.3, 0.35, 0.8):
            s = padded_squeeze(r)
            ref = ((s * tau) @ s.T)[:dim, :dim]
            rho = fock._gaussian_matrix(nu * math.exp(2 * r), nu * math.exp(-2 * r), dim)
            assert np.abs(rho - ref).max() <= 1e-13, r

    def test_vacuum_within_the_boundary_slack(self):
        # n_bar = sqrt(a_q a_p) - 1/2 = -2.5e-13 is within the slack that
        # make_covariance accepts: a kick below 0, so one vector, the vacuum.
        cq, cp = 0.5, 0.5 * (1.0 - 1e-12)
        assert fock._kicked_vectors(cq, cp, 0.0, np.zeros(1), np.empty((6, 1, 5), complex)
                                    ).shape == (1, 1, 5)
        rho = gaussian_state_fock(make_covariance(cq, cp), n_max=4).matrix
        assert np.array_equal(rho, np.diag([1.0, 0, 0, 0, 0]))

    def test_mean_photon_number(self):
        n_bar = 1.7
        rho = gaussian_state_fock(make_covariance(n_bar + 0.5, n_bar + 0.5), n_max=400).matrix
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        assert np.diagonal(rho) @ np.arange(401) == pytest.approx(n_bar, abs=1e-10)

    def test_traced_peak_at_n540(self):
        # The level-major (542, 1, 541) vector buffer and the 541 x 541 state,
        # 7.03 MB: one product on the buffer's real view, no stacked copy.
        alpha = make_covariance(30.0, 0.3)
        assert traced_peak(lambda: gaussian_state_fock(alpha, n_max=540)) < 7.5e6


def mp_hermite_node(n, t0):
    """(node, log weight) of the n-point Gauss-Hermite rule nearest t0, 50 digits:
    psi_n e^{t^2/2} from the normalized recurrence, w = 1/(n (psi_{n-1} e^{t^2/2})^2)."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t0)
        for _ in range(6):
            h0, h1 = mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25)
            for k in range(1, n + 1):
                h0, h1 = h1, mpmath.sqrt(mpmath.mpf(2) / k) * t * h1 - mpmath.sqrt(
                    mpmath.mpf(k - 1) / k) * h0
            t -= h1 / (mpmath.sqrt(2 * n) * h0 - t * h1)
        return t, -mpmath.log(n) - 2 * mpmath.log(abs(h0))


class TestGaussRule:
    @pytest.mark.parametrize("n", [1, 2, 10, 25, 61, 370])
    def test_hermite_matches_mpmath(self, n):
        t, log_w = fock._gauss_rule(n)
        for i in {0, min(1, n - 1), n // 2, n - 1}:
            node, log_weight = mp_hermite_node(n, t[i])
            assert abs(t[i] - float(node)) <= 4.5e-16 * max(1.0, abs(t[i]))
            assert log_w[i] == pytest.approx(float(log_weight), abs=3e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 47, 48, 61, 200, 370, 541, 1414])
    def test_symmetric_increasing_and_normalized(self, n):
        t, log_w = fock._gauss_rule(n)
        assert len(t) == n and np.array_equal(t, -t[::-1]) and np.array_equal(log_w, log_w[::-1])
        assert np.all(np.diff(t) > 0.0)
        assert math.fsum(np.exp(log_w)) == pytest.approx(math.sqrt(math.pi), abs=1e-14)
        assert not (t.flags.writeable or log_w.flags.writeable)

    def test_non_finite_hermite_weights_raise(self, monkeypatch):
        # Past 1414 nodes psi_0 exp(t^2/4) leaves the normal floats at the outer
        # nodes; a NaN log weight fails the finite-weight check.
        with pytest.raises(NumericsError):
            fock._gauss_rule(1415)
        t, log_w = fock._hermite_half(5)
        monkeypatch.setattr(fock, "_hermite_half", lambda n: (t, np.where(t > 0.0, log_w, np.nan)))
        with pytest.raises(NumericsError, match="not finite and positive"):
            fock._gauss_rule.__wrapped__(5)

    def test_rule_is_usable_below_the_limit(self):
        x, log_w = fock._gauss_rule(1414)
        assert np.all(np.isfinite(log_w))
        assert np.exp(log_w).sum() == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def mp_hermite_functions(dim, q):
    """psi_n(q), n < dim, from the normalized recurrence at 40 digits."""
    with mpmath.workdps(40):
        q = mpmath.mpf(q)
        rows = [mpmath.mpf(0), mpmath.pi ** mpmath.mpf(-0.25) * mpmath.exp(-q * q / 2)]
        for n in range(1, dim):
            rows.append(mpmath.sqrt(mpmath.mpf(2) / n) * q * rows[-1]
                        - mpmath.sqrt(mpmath.mpf(n - 1) / n) * rows[-2])
        return rows[1:]


class TestHermiteFunctions:
    """psi_n(q) for the levels of the largest Gauss rule, n < 1414, across the
    type-2 reach sqrt(2 * 1414) + 6 = 59.2: within 1e-10 relative wherever
    psi_n^2 > 1e-300 and below 1e-150 elsewhere, or NumericsError."""

    @pytest.mark.parametrize("q", [-44.0, 0.3, 12.7, 30.0, 37.5, 38.0, 40.0, 44.0, 50.0,
                                   53.0, 53.2, 56.0, 59.2, 80.0])
    def test_match_mpmath_or_raise(self, q):
        # psi_0 = pi^(-1/4) e^(-q^2/2) underflows past |q| = 38.6, where the
        # high levels are far from 0: psi_1000(44)^2 = 0.0786.
        ref = mp_hermite_functions(1414, q)
        try:
            got = fock._hermite_functions(np.array([q]), 1414)[:, 0]
        except NumericsError:
            assert abs(q) > 53.07  # only past the lifted range
            return
        for n, (value, exact) in enumerate(zip(got, ref)):
            if exact * exact > 1e-300:
                assert abs(value - exact) <= 1e-10 * abs(exact), (n, value, float(exact))
            else:
                assert abs(value) <= 1e-150, (n, value)

    def test_low_levels_far_out_are_zero(self):
        # Past sqrt(2 dim) + 27 every psi_n^2 is below 1e-300, so the
        # characteristic function of a small state at a far x needs no raise.
        psi = fock._hermite_functions(np.array([-60.0, 60.0, 100.0]), 10)
        assert np.all(np.abs(psi) <= 1e-150)

    @pytest.mark.parametrize("x", [38.0, 40.0, 44.0])
    def test_sharp_position_density_of_a_high_level(self, x):
        # |psi_1000(x)|^2: 0.0269441755809, 0.0296702 and 0.0786390.
        level = np.zeros(1001)
        level[1000] = 1.0
        exact = float(mp_hermite_functions(1001, x)[1000] ** 2)
        assert povm_density(level, make_noise(0.0, math.inf), x) == pytest.approx(exact,
                                                                                   rel=1e-10)


def random_state(dim, seed, rank=3):
    """A random complex mixed state of the given rank on |0>..|dim-1>."""
    rng = np.random.default_rng(seed)
    vs = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    return (vs.T * rng.dirichlet(np.ones(rank))) @ vs.conj()


def dense_charfn(rho, x, y):
    """Tr[rho D(x,y)] from the double-loop displacement matrices, one per point."""
    d = double_loop_displacement((np.ravel(x) + 1j * np.ravel(y)) / math.sqrt(2.0), len(rho))
    return np.einsum("mn,knm->k", rho, d)


class TestDisplacement:
    """Tr[rho D(x,y)] from quantum_charfn, which integrates on the inner position grid."""

    def test_matches_matrix_exponential(self):
        # A state on |0>..|19> of a 40-level space, against the exponential
        # of the truncated generator, which is exact away from its edge.
        dim = 40
        x, y = 0.7, -1.1
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:20, :20] = random_state(20, 3)
        a = destroy(dim)
        zeta = (x + 1j * y) / math.sqrt(2.0)
        direct = np.trace(rho @ expm(zeta * a.conj().T - np.conj(zeta) * a))
        assert quantum_charfn(rho)(x, y) == pytest.approx(direct, abs=1e-9)

    def test_vacuum_overlap_closed_form(self):
        # rho = (|n><0| + |0><n|)/2 picks (<0|D|n> + <n|D|0>)/2, with
        # <n|D|0> = zeta^n e^{-|zeta|^2/2}/sqrt(n!) and <0|D|n> the same with -conj(zeta).
        x, y = 1.2, 0.4
        zeta = (x + 1j * y) / math.sqrt(2.0)
        for n in range(10):
            rho = np.zeros((26, 26))
            rho[n, 0] += 0.5
            rho[0, n] += 0.5
            expect = (zeta ** n + (-np.conj(zeta)) ** n) * math.exp(-abs(zeta) ** 2 / 2) / (
                2.0 * math.sqrt(math.factorial(n)))
            assert quantum_charfn(rho)(x, y) == pytest.approx(expect, abs=1e-13)

    def test_zero_displacement_identity(self):
        # Tr[rho D(0)] = Tr rho for a Hermitian rho that is not a state.
        rng = np.random.default_rng(16)
        h = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = h + h.conj().T
        assert quantum_charfn(rho)(0.0, 0.0) == pytest.approx(np.trace(rho).real, abs=1e-13)

    def test_adjoint_is_reverse_displacement(self):
        # D(x,y)+ = D(-x,-y), so phi(-x,-y) = conj(phi(x,y)) for Hermitian rho.
        phi = quantum_charfn(random_state(61, 61))
        x, y = np.meshgrid([-2.0, 0.3, 1.4], [-1.1, 0.0, 2.5], indexing="ij")
        assert np.abs(phi(-x, -y) - np.conj(phi(x, y))).max() <= 1e-13

    def test_batch_consistency(self):
        # A tensor of (x, y) values, on one inner grid sized for its largest
        # |y|, against one point at a time: a few points at dim 20, and a
        # 41 x 41 grid at dim 8.
        for axis, dim in [(np.array([-1.0, 0.0, 0.3]), 20), (np.linspace(-4.0, 4.0, 41), 8)]:
            phi = quantum_charfn(random_state(dim, dim))
            table = phi(axis[:, None], axis[None, :])
            one = [[phi(x, y) for y in axis] for x in axis]
            assert np.abs(table - np.array(one)).max() <= 1e-13

    def test_far_displacements_vanish(self):
        # |<m|D|n>| falls as e^{-|zeta|^2/2}, so past the wavenumbers of the
        # integrand phi is below rounding at every y, however the inner grid's
        # spacing falls among them, and the small ys of the same call keep
        # their values.
        rho = random_state(8, 8)
        y = np.concatenate(([0.5, -2.0], np.linspace(100.0, 5000.0, 491)))
        got = quantum_charfn(rho)(0.3, y)
        assert np.abs(got[2:]).max() <= 1e-14
        assert np.abs(got[:2] - dense_charfn(rho, [0.3, 0.3], y[:2])).max() <= 1e-13

    @pytest.mark.parametrize("dim", [8, 20, 25, 41, 61, 100])
    def test_matches_double_loop_reference(self, dim):
        rng = np.random.default_rng(dim)
        zs = rng.uniform(0.0, 6.0, 20) * np.exp(2j * np.pi * rng.uniform(size=20))
        x, y = math.sqrt(2) * zs.real, math.sqrt(2) * zs.imag
        rho = random_state(dim, dim + 1)
        assert np.abs(quantum_charfn(rho)(x, y) - dense_charfn(rho, x, y)).max() <= 1e-12

    def test_complex_columns(self):
        # A complex Hermitian rho of full rank with eigenvalues of both signs.
        dim = 20
        rng = np.random.default_rng(7)
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = (h + h.conj().T) / dim
        axis = np.array([-1.3, 0.0, 0.4, 2.1])
        x, y = np.meshgrid(axis, axis, indexing="ij")
        got = quantum_charfn(rho)(x, y).ravel()
        assert np.abs(got - dense_charfn(rho, x, y)).max() <= 1e-12

    def test_hermitian_not_positive(self):
        # (|0><1| + |1><0|)/2 has eigenvalues +-1/2 and trace 0.
        rho = np.zeros((6, 6))
        rho[0, 1] = rho[1, 0] = 0.5
        axis = np.array([-1.7, 0.0, 0.6, 2.2])
        x, y = np.meshgrid(axis, axis, indexing="ij")
        got = quantum_charfn(rho)(x, y).ravel()
        assert np.abs(got - dense_charfn(rho, x, y)).max() <= 1e-13

    def test_complex_copy_of_a_real_state(self):
        # A complex rho is contracted on its real view, Re and Im interleaved;
        # a complex copy of a real rho, C- or Fortran-ordered, gives its phi.
        rho = gaussian_state_fock(make_covariance(1.3, 0.8), n_max=30).matrix
        axis = np.array([-2.2, -0.5, 0.0, 0.9, 3.1])
        x, y = np.meshgrid(axis, axis, indexing="ij")
        real = quantum_charfn(rho)(x, y)
        for copy in (rho.astype(complex), np.asfortranarray(rho, dtype=complex)):
            assert np.abs(quantum_charfn(copy)(x, y) - real).max() <= 1e-15

    @pytest.mark.parametrize("dim", [25, 61])
    def test_every_element_matches_mpmath(self, dim):
        # Every number state: Tr[|n><n| D] = e^{-t/2} L_n(t), t = |zeta|^2;
        # and every element through a random state, sum rho_nm <m|D|n> with
        # <n+d|D|n> = sqrt(n!/(n+d)!) zeta^d e^{-t/2} L_n^{(d)}(t) and <n|D|n+d>
        # the same with (-conj zeta)^d; L from its finite sum.
        rho = random_state(dim, 5)
        for radius in (0.5, 2.0, 3.0):
            zeta = cmath.rect(radius, 0.7)
            x, y = math.sqrt(2) * zeta.real, math.sqrt(2) * zeta.imag
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
            for n in range(dim):
                number = np.zeros((dim, dim))
                number[n, n] = 1.0
                assert quantum_charfn(number)(x, y) == pytest.approx(ref[n, n], abs=1e-13)
            assert quantum_charfn(rho)(x, y) == pytest.approx(np.sum(rho.T * ref), abs=1e-13)


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

    @pytest.mark.parametrize("dim", [0, -1, 2.5, True])
    def test_rejects_dim_that_is_not_a_count(self, dim):
        with pytest.raises(NonPositive):
            displaced_squeezed_vector(0.3, 0.2, 0.1, dim)

    def test_fock_amplitudes(self):
        # pure |1> without squeeze or displacement
        v = displaced_squeezed_vector(0.0, 0.0, 0.0, 10, theta=math.pi / 2)
        expect = np.zeros(10)
        expect[1] = 1.0
        assert np.allclose(v, expect, atol=1e-14)

    def test_matches_dense_product(self):
        # The exact projection onto |0>..|24> against the first 25 entries of
        # a dim-400 dense product, which has converged for these members.
        dim, big = 25, 400
        rng = np.random.default_rng(4)
        zs = rng.uniform(0.0, 2.9, 6) * np.exp(2j * np.pi * rng.uniform(size=6))
        rs = rng.uniform(-1.5, 1.5, 6)
        thetas = rng.uniform(0.0, math.pi, 6)
        got = displaced_squeezed_vector(math.sqrt(2) * zs.real, math.sqrt(2) * zs.imag,
                                        rs, dim, thetas)
        assert got.shape == (6, dim)
        a = destroy(big)
        gen = 0.5 * (a.T @ a.T - a @ a)
        for z, r, theta, v in zip(zs, rs, thetas, got):
            base = np.zeros(big)
            base[:2] = math.cos(theta), math.sin(theta)
            ref = expm(z * a.T - np.conj(z) * a) @ (expm(r * gen) @ base)
            assert np.abs(v - ref[:dim]).max() <= 1e-14

    def test_unbroadcast_r_and_theta_give_the_same_bits(self):
        # A scalar r and theta are applied to every point without being
        # spread over them first; the arithmetic per point is unchanged.
        x, y = np.linspace(-2.0, 2.0, 7)[:, None], np.linspace(-1.0, 3.0, 5)
        one = displaced_squeezed_vector(x, y, 0.4, 30, 0.7)
        spread = displaced_squeezed_vector(x, y, np.full((7, 5), 0.4), 30, np.full((7, 5), 0.7))
        assert one.shape == (7, 5, 30)
        assert np.array_equal(one, spread)

    @pytest.mark.parametrize("r", [3.0, -3.0])
    def test_matches_mpmath_at_clip_squeezing(self, r):
        # No dense product up to dim 600 converges at |r| = 3; integrate
        # <n|D S(cos|0> + sin|1>)> over position wavefunctions instead.
        x, y, theta, dim = 2.0, 0.5, 1.0, 25
        got = displaced_squeezed_vector(x, y, r, dim, theta)
        with mpmath.workdps(20):
            s = mpmath.exp(-r)
            cache = {}

            def products(q):
                # psi_n(q) <q|D(x,y) S(r) psi0>, for every n at once
                if q not in cache:
                    u = (q - x) * s
                    member = (mpmath.sqrt(s) * mpmath.pi ** -0.25 * mpmath.exp(-u * u / 2)
                              * (math.cos(theta) + math.sin(theta) * mpmath.sqrt(2) * u)
                              * mpmath.expj(y * q - x * y / 2))
                    psi = [mpmath.pi ** -0.25 * mpmath.exp(-q * q / 2)]
                    psi.append(mpmath.sqrt(2) * q * psi[0])
                    for n in range(2, dim):
                        psi.append(mpmath.sqrt(mpmath.mpf(2) / n) * q * psi[-1]
                                   - mpmath.sqrt(mpmath.mpf(n - 1) / n) * psi[-2])
                    cache[q] = [p * member for p in psi]
                return cache[q]

            ref = np.array([complex(mpmath.quad(lambda q: products(q)[n], [-16, x - 1, x + 1, 16]))
                            for n in range(dim)])
        assert np.abs(got - ref).max() <= 1e-14


class TestStateMoments:
    @pytest.mark.parametrize("x, y, r, theta", [(0.7, -0.4, 0.3, 0.6), (2.0, 0.5, 3.0, 1.0)])
    def test_matches_quadrature_operators(self, x, y, r, theta):
        # q and p on two extra levels act exactly on |0>..|dim-1>; the second
        # member keeps 9 % of its mass, and the moments are of the normalized state.
        dim = 25
        v = displaced_squeezed_vector(x, y, r, dim, theta)
        padded = np.concatenate([v, np.zeros(2)])
        a = destroy(dim + 2)
        q = (a + a.T) / math.sqrt(2.0)
        p = -1j * (a - a.T) / math.sqrt(2.0)
        mass = np.vdot(v, v).real
        mq = np.vdot(padded, q @ padded).real / mass
        mp = np.vdot(padded, p @ padded).real / mass
        vq = np.vdot(q @ padded, q @ padded).real / mass - mq ** 2
        vp = np.vdot(p @ padded, p @ padded).real / mass - mp ** 2
        assert np.allclose(state_moments(v), (mq, mp, vq, vp), rtol=0.0, atol=1e-12)
        assert np.allclose(state_moments(np.outer(v, v.conj())), (mq, mp, vq, vp),
                           rtol=0.0, atol=1e-12)


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

    def test_complex_coherent_state(self):
        # <b|D(z)|b> = exp(-|z|^2/2 + z conj(b) - conj(z) b) for the coherent
        # state |b>, whose density matrix is complex.
        x0, y0 = 0.8, -0.5
        v = displaced_squeezed_vector(x0, y0, 0.0, 40)
        phi = quantum_charfn(np.outer(v, v.conj()))
        b = (x0 + 1j * y0) / math.sqrt(2.0)
        for x, y in [(0.3, 0.9), (-1.2, 0.4), (0.0, -2.0)]:
            z = (x + 1j * y) / math.sqrt(2.0)
            expect = cmath.exp(-abs(z) ** 2 / 2 + z * b.conjugate() - z.conjugate() * b)
            assert phi(x, y) == pytest.approx(expect, abs=1e-12)

    def test_mixed_complex_state_at_scattered_points(self):
        # Tr[rho D] of a rank-2 mixture of random complex vectors, against
        # the dense truncated displacement matrices.
        dim = 12
        rng = np.random.default_rng(11)
        vs = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        rho = 0.7 * np.outer(vs[0], vs[0].conj()) + 0.3 * np.outer(vs[1], vs[1].conj())
        x, y = rng.uniform(-2.5, 2.5, size=(2, 15))
        dense = double_loop_displacement((x + 1j * y) / math.sqrt(2.0), dim)
        expect = np.einsum("mn,knm->k", rho, dense)
        assert np.abs(quantum_charfn(rho)(x, y) - expect).max() <= 1e-12

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

    def test_a_vector_is_its_density_matrix(self):
        # The vacuum vector read as a matrix gave 1.115+0.345j at (0.3, 0.4).
        assert quantum_charfn(np.array([1.0, 0.0, 0.0]))(0.3, 0.4) == pytest.approx(
            math.exp(-(0.3 ** 2 + 0.4 ** 2) / 4.0), abs=1e-12)
        v = displaced_squeezed_vector(0.8, -0.5, 0.3, 30)
        x, y = np.array([0.3, -1.2, 0.0]), np.array([0.9, 0.4, -2.0])
        assert np.array_equal(quantum_charfn(v)(x, y), quantum_charfn(np.outer(v, v.conj()))(x, y))

    @pytest.mark.parametrize("rho", [np.zeros((0, 0)), np.zeros(0), np.zeros((2, 3)),
                                     np.zeros((2, 2, 2)), 1.0])
    def test_empty_or_non_square_state_raises(self, rho):
        # These raised a bare IndexError or ValueError.
        with pytest.raises(ValidationError):
            quantum_charfn(rho)

    @pytest.mark.parametrize("x, y, error", [
        (math.inf, 0.0, OutOfInterval), (-math.inf, 0.0, OutOfInterval),
        (math.nan, 0.0, OutOfInterval), (0.0, math.inf, OutOfInterval),
        (0.0, -math.inf, OutOfInterval), (0.0, math.nan, OutOfInterval),
        ([0.5, math.inf], [0.5, 0.5], OutOfInterval),
        # These raised a bare ValueError or TypeError, or dropped the imaginary part.
        (np.array([0.5 + 0.5j]), 0.0, OutOfInterval), (0.0, 1j, OutOfInterval),
        (np.zeros(2), np.zeros(3), ValidationError), ("abc", 0.0, ValidationError),
        (0.0, ["a"], ValidationError),
    ])
    def test_non_finite_displacement_raises(self, x, y, error):
        rho = np.diag([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(error):
            quantum_charfn(rho)(x, y)

    @pytest.mark.parametrize("x, y, shape", [
        (np.array([]), np.array([]), (0,)),
        (np.zeros((0, 3)), 1.0, (0, 3)),
        (np.zeros((2, 0)), np.zeros((2, 1)), (2, 0)),
    ])
    def test_empty_displacements_give_an_empty_array(self, x, y, shape):
        # Empty input raised a bare ValueError from the reduction max |y|.
        out = quantum_charfn(np.diag([1.0, 0.0, 0.0, 0.0]))(x, y)
        assert out.shape == shape and out.dtype == complex


class TestFockOperator:
    def test_converts_with_asarray(self):
        mat = np.eye(3)
        op = FockOperator(mat)
        assert np.asarray(op) is mat
        assert np.asarray(op, dtype=complex).dtype == complex
        assert np.array(op) is not mat and np.array_equal(np.array(op), mat)
        assert state_moments(op) == state_moments(mat)

    def test_converts_without_a_copy_argument(self):
        # NumPy 1.x calls __array__() or __array__(dtype) and passes no copy.
        mat = np.eye(3)
        op = FockOperator(mat)
        assert op.__array__() is mat
        assert op.__array__(complex).dtype == complex
        assert op.__array__(copy=True) is not mat
