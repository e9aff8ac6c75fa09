import math

import numpy as np
import pytest

from gausscap.capacity import GaussianEnsembleSpec, capacity_alpha
from gausscap.core import (
    InvalidForSharp,
    NormalizationFailure,
    make_covariance,
    make_noise,
)
from gausscap.fock import displacement_fock, gaussian_state_fock, state_moments
from gausscap.grids import (
    DiscreteEnsemble,
    OutputSampler,
    QuadratureGrid,
    _grid_nodes,
    _output_window,
    discretize_gaussian_ensemble,
    mutual_information,
    numeric_output_entropy,
    povm_density,
)

INF = math.inf
LN_2PI_E = math.log(2.0 * math.pi * math.e)


def analytic_entropy(alpha, beta):
    """Differential entropy of the Gaussian outcome density."""
    if beta.noise_type == 1:
        det = (alpha.alpha_q + beta.beta_q) * (alpha.alpha_p + beta.beta_p)
        return LN_2PI_E + 0.5 * math.log(det)
    return 0.5 * (LN_2PI_E + math.log(alpha.alpha_q + beta.beta_q))


class TestPovmDensity:
    def test_vacuum_heterodyne_origin(self):
        rho = gaussian_state_fock(make_covariance(0.5, 0.5), n_max=20)
        val = povm_density(rho, make_noise(0.5, 0.5), 0.0, 0.0)
        assert val == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-10)

    def test_vacuum_heterodyne_gaussian_profile(self):
        rho = gaussian_state_fock(make_covariance(0.5, 0.5), n_max=30)
        beta = make_noise(0.5, 0.5)
        for x, y in [(1.0, 0.0), (0.5, -1.5), (2.0, 2.0)]:
            expect = math.exp(-(x * x + y * y) / 2.0) / (2.0 * math.pi)
            assert povm_density(rho, beta, x, y) == pytest.approx(expect, abs=1e-9)

    def test_vacuum_noisy_position(self):
        rho = gaussian_state_fock(make_covariance(0.5, 0.5), n_max=20)
        beta = make_noise(0.2, INF)
        var = 0.7
        for x in (0.0, 0.8, -1.6):
            expect = math.exp(-x * x / (2 * var)) / math.sqrt(2 * math.pi * var)
            assert povm_density(rho, beta, x) == pytest.approx(expect, abs=1e-9)

    def test_sharp_rejected(self):
        rho = gaussian_state_fock(make_covariance(0.5, 0.5), n_max=10)
        with pytest.raises(InvalidForSharp):
            povm_density(rho, make_noise(0.0, INF), 0.0)

    def test_displacement_covariance(self):
        # displacing the state shifts the outcome density
        dim = 41
        beta = make_noise(0.6, 0.8)
        rho0 = gaussian_state_fock(make_covariance(0.7, 0.6), n_max=dim - 1)
        d = displacement_fock(0.9, -0.4, n_max=dim - 1).matrix
        shifted = d @ rho0.matrix @ d.conj().T
        from gausscap.fock import FockOperator

        rho1 = FockOperator(shifted)
        for x, y in [(0.0, 0.0), (1.2, 0.3)]:
            p_shift = povm_density(rho1, beta, x, y)
            p_base = povm_density(rho0, beta, x - 0.9, y + 0.4)
            assert p_shift == pytest.approx(p_base, abs=1e-8)


def random_mixed_state(dim, seed):
    """Full-rank density matrix with weight on every Fock level."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def reference_density(rho, beta, points):
    """Tr[rho D(x,y) rho_beta D(x,y)+]/(2 pi) from displacement matrices."""
    n_max = rho.shape[0] - 1
    rho_b = gaussian_state_fock(make_covariance(beta.beta_q, beta.beta_p), n_max).matrix
    out = []
    for x, y in points:
        d = displacement_fock(x, y, n_max).matrix
        out.append(np.trace(rho @ d @ rho_b @ d.conj().T).real / (2.0 * math.pi))
    return np.array(out)


class TestOutputSampler:
    def test_type1_matches_displacement_reference(self):
        rho = random_mixed_state(41, seed=3)
        beta = make_noise(2.0, 2.0)
        sampler = OutputSampler(beta, 41)
        assert sampler.factor.shape[1] > 1
        rng = np.random.default_rng(5)
        pts = rng.uniform(-6.0, 6.0, size=(12, 2))
        got = sampler.densities([rho], pts)[0]
        assert np.max(np.abs(got - reference_density(rho, beta, pts))) <= 1e-12

    def test_type1_extreme_momentum_nodes(self):
        # The largest |y| of this window sets the inner grid.  The densities
        # there are tiny; an inner grid too coarse for that |y| aliases them
        # into errors far above 1e-12.
        beta = make_noise(0.2, 5.0)
        gauss = gaussian_state_fock(make_covariance(0.707, 2.83), n_max=60)
        means, sigmas = _output_window(state_moments(gauss), beta)
        pts, _ = _grid_nodes(means, sigmas, QuadratureGrid())
        edge = pts[np.abs(pts[:, 1]) >= np.abs(pts[:, 1]).max() - 1e-12]
        pts = edge[:: len(edge) // 8]
        rho = random_mixed_state(61, seed=7)
        got = OutputSampler(beta, 61).densities([rho], pts)[0]
        assert np.max(np.abs(got - reference_density(rho, beta, pts))) <= 1e-12

    @pytest.mark.parametrize("beta", [make_noise(2.0, 2.0), make_noise(0.3, INF)])
    def test_bind_matches_densities(self, beta):
        states = [random_mixed_state(41, seed=11),
                  gaussian_state_fock(make_covariance(1.5, 0.6), n_max=40)]
        window = _output_window((0.0, 0.0, 1.0, 1.0), beta)
        pts, _ = _grid_nodes(*window, QuadratureGrid(6.0, 24))
        sampler = OutputSampler(beta, 41)
        direct = sampler.densities(states, pts)
        bound = sampler.bind(pts)(states)
        assert bound.shape == direct.shape == (2, pts.shape[0])
        assert np.max(np.abs(bound - direct)) <= 1e-15


class TestNumericOutputEntropy:
    def test_type1_matches_analytic(self):
        beta = make_noise(0.5, 0.5)
        for aq, ap in [(0.5, 0.5), (1.0, 0.6)]:
            alpha = make_covariance(aq, ap)
            rho = gaussian_state_fock(alpha, n_max=60)
            h = numeric_output_entropy(rho, beta)
            assert h == pytest.approx(analytic_entropy(alpha, beta), abs=1e-7)

    def test_type2_matches_analytic(self):
        beta = make_noise(0.2, INF)
        for aq, ap in [(0.5, 0.5), (1.4, 0.5)]:
            alpha = make_covariance(aq, ap)
            rho = gaussian_state_fock(alpha, n_max=60)
            h = numeric_output_entropy(rho, beta)
            assert h == pytest.approx(analytic_entropy(alpha, beta), abs=1e-8)

    def test_narrow_window_raises(self):
        rho = gaussian_state_fock(make_covariance(0.5, 0.5), n_max=30)
        with pytest.raises(NormalizationFailure):
            numeric_output_entropy(
                rho, make_noise(0.5, 0.5), QuadratureGrid(1.5, 60)
            )


class TestDiscreteEnsemble:
    def test_weight_validation(self):
        v = np.zeros(5)
        with pytest.raises(ValueError):
            DiscreteEnsemble(np.array([0.5, 0.6]), (v, v))
        with pytest.raises(ValueError):
            DiscreteEnsemble(np.array([1.0, -0.0]), (v, v))
        with pytest.raises(ValueError):
            DiscreteEnsemble(np.array([1.0]), (v, v))

    def test_discretize_moments(self):
        spec = GaussianEnsembleSpec(0.325, 0.675, 0.0)
        ens = discretize_gaussian_ensemble(spec, nodes=11, n_max=40)
        assert len(ens) == 11
        from gausscap.grids import _average_moments

        mq, mp, vq, vp = _average_moments(ens.weights, ens.states)
        assert abs(mq) < 1e-10 and abs(mp) < 1e-10
        assert vq == pytest.approx(1.0, abs=1e-8)
        assert vp == pytest.approx(0.25 / 0.325, abs=1e-8)


class TestMutualInformation:
    def test_position_measurement_matches_capacity(self):
        alpha, beta = make_covariance(1, 2), make_noise(0.2, INF)
        spec = GaussianEnsembleSpec(0.125, 0.875, 0.0)
        ens = discretize_gaussian_ensemble(spec, nodes=15, n_max=60)
        mi = mutual_information(ens, beta)
        assert mi == pytest.approx(capacity_alpha(alpha, beta), abs=1e-3)

    def test_heterodyne_small_ensemble(self):
        alpha, beta = make_covariance(1, 1), make_noise(0.5, 0.5)
        spec = GaussianEnsembleSpec(0.5, 0.5, 0.5)
        ens = discretize_gaussian_ensemble(spec, nodes=9, n_max=40)
        mi = mutual_information(ens, beta, QuadratureGrid(8.0, 120))
        cap = capacity_alpha(alpha, beta)
        assert 0.0 < mi <= cap + 1e-6
        assert mi == pytest.approx(cap, abs=2e-2)

    def test_single_state_zero_information(self):
        rho = gaussian_state_fock(make_covariance(0.6, 0.6), n_max=40)
        ens = DiscreteEnsemble(np.array([1.0]), (rho,))
        mi = mutual_information(ens, make_noise(0.5, 0.5), QuadratureGrid(8.0, 80))
        assert mi == pytest.approx(0.0, abs=1e-12)

