import math
import time

import numpy as np
import pytest

from dense_displacement import displacement_matrix, double_loop_displacement
from traced import traced_peak
from gausscap.capacity import GaussianEnsembleSpec, capacity_alpha, optimal_squeezing
from gausscap.core import (
    NegativeDensity,
    NonPositive,
    NormalizationFailure,
    NumericsError,
    TruncationInsufficient,
    ValidationError,
    make_covariance,
    make_noise,
)
from gausscap.dualcheck import dual_operator_check
from gausscap.fock import (
    EIG_TOL,
    FockOperator,
    displaced_squeezed_vector,
    gaussian_state_fock,
    quantum_charfn,
    state_moments,
)
from gausscap.grids import (
    DiscreteEnsemble,
    SUB_BLOCK_MULADDS,
    OutputSampler,
    QuadratureGrid,
    _average_moments,
    _grid_axes,
    _output_window,
    _reduce,
    _state_components,
    discretize_gaussian_ensemble,
    mutual_information,
    numeric_output_entropy,
    povm_density,
)
from gausscap.hgm import SearchConfig, hgm_search

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

    def test_noisy_position_past_370_levels(self):
        # The type-2 sampler of dimension 541 takes the log weights of its
        # 541-node Hermite rule; from 371 nodes numpy's weights were NaN.
        rho = gaussian_state_fock(make_covariance(30.0, 0.3), n_max=540)
        sampler = OutputSampler(make_noise(0.2, INF), 541)
        xs = np.array([-12.0, -3.0, 0.0, 0.5, 8.0, 16.0])
        var = 30.2
        expect = np.exp(-xs * xs / (2 * var)) / math.sqrt(2 * math.pi * var)
        np.testing.assert_allclose(sampler.bind((xs,))([rho])[0], expect, rtol=1e-6)

    def test_sharp_measurement(self):
        # beta = (0, inf): the density is |psi(x)|^2, e^{-x^2}/sqrt(pi) for the vacuum.
        beta = make_noise(0.0, INF)
        vacuum = gaussian_state_fock(make_covariance(0.5, 0.5), n_max=10)
        for x in (0.0, 0.8, -1.6, 3.0):
            expect = math.exp(-x * x) / math.sqrt(math.pi)
            assert povm_density(vacuum, beta, x) == pytest.approx(expect, abs=1e-12)
        alpha = make_covariance(1.4, 0.5)
        h = numeric_output_entropy(gaussian_state_fock(alpha, n_max=60), beta)
        assert h == pytest.approx(0.5 * (LN_2PI_E + math.log(alpha.alpha_q)), abs=1e-11)

    def test_displacement_covariance(self):
        # displacing the state shifts the outcome density
        dim = 41
        beta = make_noise(0.6, 0.8)
        rho0 = gaussian_state_fock(make_covariance(0.7, 0.6), n_max=dim - 1)
        d = displacement_matrix(0.9, -0.4, dim)
        rho1 = FockOperator(d @ rho0.matrix @ d.conj().T)
        for x, y in [(0.0, 0.0), (1.2, 0.3)]:
            p_shift = povm_density(rho1, beta, x, y)
            p_base = povm_density(rho0, beta, x - 0.9, y + 0.4)
            assert p_shift == pytest.approx(p_base, abs=1e-8)


def random_mixed_state(dim, seed, rank=None):
    """Density matrix of the given rank (default full) with complex eigenvectors."""
    rng = np.random.default_rng(seed)
    shape = (dim, rank or dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def reference_density(rho, beta, points, dim):
    """Tr[rho D(x,y) rho_beta D(x,y)+]/(2 pi) from dense displacement matrices.

    rho is zero-padded to dim, and rho_beta truncated there: dim is chosen
    so that the truncation of rho_beta moves the densities by under 1e-14.
    """
    rho = np.pad(rho, (0, dim - rho.shape[0]))
    rho_b = gaussian_state_fock(make_covariance(beta.beta_q, beta.beta_p), dim - 1).matrix
    zetas = [(x + 1j * y) / math.sqrt(2.0) for x, y in points]
    return np.array([np.trace(rho @ d @ rho_b @ d.conj().T).real / (2.0 * math.pi)
                     for d in double_loop_displacement(zetas, dim)])


def tensor_points(xs, ys):
    """The (x, y) outcomes of the tensor grid of xs and ys, x outer."""
    return [(x, y) for x in xs for y in ys]


def columns(bras):
    """The columns c_k of _state_components' real stack of their conjugates."""
    return (bras[0] - 1j * bras[1] if len(bras) == 2 else bras[0]).T


def random_axes(seed, lo=-6.0, hi=6.0):
    """Four random xs and three random ys in [lo, hi), unsorted: 12 outcomes."""
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=4), rng.uniform(lo, hi, size=3)


class TestOutputSampler:
    def test_type1_matches_displacement_reference(self):
        rho = random_mixed_state(41, seed=3)
        beta = make_noise(2.0, 2.0)
        axes = random_axes(5)
        got = OutputSampler(beta, 41).bind(axes)([rho])[0]
        expect = reference_density(rho, beta, tensor_points(*axes), 81)
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_type1_extreme_momentum_nodes(self):
        # The densities at the largest |y| of this window are tiny; a
        # smearing grid too coarse or too narrow for that |y| misses them by
        # far more than 1e-12.
        beta = make_noise(0.2, 5.0)
        gauss = gaussian_state_fock(make_covariance(0.707, 2.83), n_max=60)
        # Four xs across the window, each at both extreme ys.
        (xs, ys), _ = _grid_axes(*_output_window(state_moments(gauss), beta), QuadratureGrid())
        axes = (xs[::50], ys[[0, -1]])
        rho = random_mixed_state(61, seed=7)
        got = OutputSampler(beta, 61).bind(axes)([rho])[0]
        expect = reference_density(rho, beta, tensor_points(*axes), 141)
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_type1_component_basis_matches_reference(self):
        # A low-rank state with complex eigen-components.
        rho = random_mixed_state(41, seed=13, rank=5)
        _, bras = _state_components([rho], 41)
        assert bras.shape == (2, 5, 41) and np.abs(bras[1]).max() > 0.1
        beta = make_noise(2.0, 2.0)
        axes = random_axes(17)
        got = OutputSampler(beta, 41).bind(axes)([rho])[0]
        expect = reference_density(rho, beta, tensor_points(*axes), 81)
        assert np.max(np.abs(got - expect)) <= 1e-12

    @pytest.mark.parametrize("beta", [
        make_noise(2.0, 2.0),  # trapezoidal smearing
        make_noise(0.3, INF),
        make_noise(0.5, 0.5),  # pure type-1 noise, delta = 0
        make_noise(1.0, 0.25 + 1e-4),  # a Gauss-Hermite rule
    ])
    def test_bind_matches_stream(self, beta):
        # bind against the streamed blocks of the same tensor grid.
        sampler = OutputSampler(beta, 41)
        window = _output_window((0.0, 0.0, 1.0, 1.0), beta)
        axes, _ = _grid_axes(*window, QuadratureGrid(6.0, 24))
        gauss = gaussian_state_fock(make_covariance(1.5, 0.6), n_max=40)
        for first in (random_mixed_state(41, seed=11), random_mixed_state(41, seed=11, rank=3)):
            states = [first, gauss]
            bound = sampler.bind(axes)(states)
            direct = np.concatenate(list(sampler.stream(states, axes)), axis=1)
            assert bound.shape == direct.shape == (2, 24 ** len(axes))
            assert np.array_equal(bound, direct)

    def test_bind_matches_stream_across_a_split_block(self):
        # 120 pure states at dim 41 under pure type-1 noise: a chunk is
        # 2 SUB_BLOCK_MULADDS // (120 * 41) = 213 vectors and a block is 10 x
        # rows of 24 nodes, 240 vectors, so every block spans two chunks.
        rng = np.random.default_rng(17)
        states = list(rng.standard_normal((120, 41)) + 1j * rng.standard_normal((120, 41)))
        beta = make_noise(0.5, 0.5)
        sampler = OutputSampler(beta, 41)
        window = _output_window((0.0, 0.0, 1.0, 1.0), beta)
        axes, _ = _grid_axes(*window, QuadratureGrid(6.0, 24))
        chunks = list(sampler.stream(states, axes))
        assert [p.shape[1] for p in chunks[:3]] == [213, 27, 213]
        bound = sampler.bind(axes)(states)
        assert bound.shape == (120, 24 * 24)
        assert np.array_equal(bound, np.concatenate(chunks, axis=1))

    @pytest.mark.parametrize("delta", [-1e-13, 0.0, 1e-6, 1e-4, 1e-3, 1e-2])
    def test_small_classical_noise(self, delta):
        # beta_q beta_p = 1/4 + delta beta_q: a nearly pure measurement.
        # |delta| <= 1e-12 beta_p is the pure one; up to 1e-3 a Gauss-Hermite
        # rule smears around each y, and 1e-2 takes the trapezoidal rule.
        alpha, bq = make_covariance(1.2, 0.7), 1.0
        bp = 0.25 / bq + delta if delta >= 0.0 else 0.25 / bq * (1.0 + delta)
        beta = make_noise(bq, bp)
        xs, ys = random_axes(23, -4.0, 4.0)
        vq, vp = alpha.alpha_q + bq, alpha.alpha_p + bp
        expect = (np.exp(-np.add.outer(xs ** 2 / (2.0 * vq), ys ** 2 / (2.0 * vp))).ravel()
                  / (2.0 * math.pi * math.sqrt(vq * vp)))
        gauss = gaussian_state_fock(alpha, n_max=60)
        got = OutputSampler(beta, 61).bind((xs, ys))([gauss])[0]
        assert np.max(np.abs(got - expect)) <= 1e-11
        rho = random_mixed_state(21, seed=29)
        got = OutputSampler(beta, 21).bind((xs[:2], ys[:2]))([rho])[0]
        expect = reference_density(rho, beta, tensor_points(xs[:2], ys[:2]), 81)
        assert np.max(np.abs(got - expect)) <= 1e-12

    def test_trapezoid_bands_reach_the_outermost_outcomes(self):
        # delta = 3.75 takes the trapezoidal rule, and each group of
        # consecutive ys keeps only the nodes within TAIL deviations of it.
        # On a +-2 sd window no outcome is negligible, the first and last ys
        # included.  The ys need not be sorted.
        beta = make_noise(0.2, 5.0)
        rho = random_mixed_state(41, seed=31)
        (xs, ys), _ = _grid_axes(*_output_window(state_moments(rho), beta),
                                 QuadratureGrid(2.0, 40))
        sampler = OutputSampler(beta, 41)
        x = xs[len(xs) // 2]
        streamed = np.concatenate(list(sampler.stream([rho], ([x], ys))), axis=1)[0]
        expect = reference_density(rho, beta, [(x, y) for y in ys], 141)
        assert np.max(np.abs(streamed - expect)) <= 1e-12
        backward = np.concatenate(list(sampler.stream([rho], ([x], ys[::-1]))), axis=1)[0]
        assert np.max(np.abs(backward[::-1] - streamed)) <= 1e-15
        rng = np.random.default_rng(37)
        axes = (rng.uniform(xs[0], xs[-1], size=3),
                np.concatenate([[ys[-1]], rng.uniform(ys[0], ys[-1], size=2), [ys[0]]]))
        got = sampler.bind(axes)([rho])[0]
        expect = reference_density(rho, beta, tensor_points(*axes), 141)
        assert np.max(np.abs(got - expect)) <= 1e-12
        # Criterion 06's mixed noise: doubling the bandwidth, which about
        # halves the node spacing, leaves the densities where they were.
        beta, gauss = make_noise(2.0, 2.0), gaussian_state_fock(make_covariance(1.5, 0.6), 60)
        (xs, ys), _ = _grid_axes(*_output_window(state_moments(gauss), beta), QuadratureGrid())
        sampler = OutputSampler(beta, 61)
        spaced = sampler.bind((xs[::20], ys))([gauss])[0]
        sampler.bandwidth *= 2.0
        halved = sampler.bind((xs[::20], ys))([gauss])[0]
        assert np.max(np.abs(halved - spaced)) <= 1e-14 * np.max(spaced)

    def test_classical_noise_past_the_cap_raises(self):
        # delta = 5e-4 takes the trapezoidal rule.  Its window stops at the
        # momentum reach of dim 2000 and S(r)|0>, +-69.7, and at spacing
        # 0.012 that needs 11,603 nodes per outcome row (9,862 at dim 1500).
        beta = make_noise(100.0, 0.003)
        vacuum = np.eye(1, 2000)[0]
        sampler = OutputSampler(beta, 2000)
        with pytest.raises(NumericsError, match="11603 > 10000 nodes"):
            sampler.bind(([0.0], [-1000.0, 1000.0]))
        with pytest.raises(NumericsError, match="11603 > 10000 nodes"):
            next(sampler.stream([vacuum], ([0.0], [-1000.0, 1000.0])))

    def test_classical_noise_window_stops_at_the_momentum_reach(self):
        # delta = 1e6: the window of +-TAIL classical sd once needed 146,313
        # nodes and raised; p1(x, v) is 0 past |v| = sqrt(2 dim) + 6 + TAIL/(2 sqrt(bq)).
        alpha, beta = make_covariance(1.0, 1.0), make_noise(1e6, 1e6)
        h = numeric_output_entropy(gaussian_state_fock(alpha, 30), beta)
        assert h == pytest.approx(analytic_entropy(alpha, beta), abs=1e-9)

    @pytest.mark.parametrize("y, density", [
        (0.0, 0.03319907402382816),
        (10.0, 1.6551737060954209e-09),
        (25.0, 5.7349889462434506e-62),
        (40.0, 1.7210820563162622e-204),
        (200.0, 0.0),
    ])
    def test_outcomes_past_the_momentum_reach(self, y, density):
        # |1> under delta = 1.5, against the unclipped window's densities: from
        # y = 25 on the clipped window holds no node within TAIL classical sd
        # of y, and one node stands in for it.
        ket = np.array([0.0, 1.0])
        assert povm_density(np.outer(ket, ket), make_noise(0.5, 2.0), 0.3, y) == pytest.approx(
            density, rel=1e-12, abs=1e-15)


class TestQuadratureGrid:
    @pytest.mark.parametrize("half_width, nodes", [(0.0, 10), (-1.0, 10), (INF, 10), (6.0, 0)])
    def test_rejects_empty_window(self, half_width, nodes):
        with pytest.raises(ValidationError):
            QuadratureGrid(half_width, nodes)

    @pytest.mark.parametrize("nodes", [2.5, 48.0, True, np.float64(48.0), "48"])
    def test_rejects_node_counts_that_are_not_integers(self, nodes):
        # 2.5 nodes once passed and the entropy died in numpy with a TypeError.
        with pytest.raises(NonPositive):
            QuadratureGrid(8.0, nodes)

    def test_accepts_numpy_integers(self):
        assert QuadratureGrid(8.0, np.int64(24)).nodes_per_axis == 24

    @pytest.mark.parametrize("nodes", [1, 2, 47, 48])
    def test_axes_are_the_midpoints_of_equal_cells(self, nodes):
        (xs, ys), cell = _grid_axes((0.3, -1.0), (2.0, 0.5), QuadratureGrid(6.0, nodes))
        for m, s, axis in ((0.3, 2.0, xs), (-1.0, 0.5, ys)):
            width = 12.0 * s / nodes
            expect = m - 6.0 * s + width * (np.arange(nodes) + 0.5)
            assert np.allclose(axis, expect, rtol=0.0, atol=1e-14)
        assert cell == pytest.approx(12.0 * 2.0 / nodes * 12.0 * 0.5 / nodes, rel=1e-15)
        # Centred on 0, the nodes pair up exactly and an odd grid has x = 0.
        (centred,), _ = _grid_axes((0.0,), (1.3,), QuadratureGrid(6.0, nodes))
        assert np.array_equal(centred, -centred[::-1]) and (nodes % 2 == 0 or 0.0 in centred)


class TestNumericOutputEntropy:
    def test_type1_matches_analytic(self):
        beta = make_noise(0.5, 0.5)
        for aq, ap in [(0.5, 0.5), (1.0, 0.6)]:
            alpha = make_covariance(aq, ap)
            rho = gaussian_state_fock(alpha, n_max=60)
            h = numeric_output_entropy(rho, beta)
            assert h == pytest.approx(analytic_entropy(alpha, beta), abs=1e-7)

    def test_type2_matches_analytic(self):
        # beta_q = 0 is the sharp measurement; each entropy takes under 0.1 s.
        for aq, ap in [(0.5, 0.5), (1.4, 0.5), (1.0, 2.0)]:
            alpha = make_covariance(aq, ap)
            rho = gaussian_state_fock(alpha, n_max=60)
            for bq in (0.0, 1e-9, 1e-5, 1e-3, 1e-1, 0.2, 1e2):
                beta = make_noise(bq, INF)
                seconds = []
                for _ in range(3):  # the best of three, against a shared machine's noise
                    start = time.perf_counter()
                    h = numeric_output_entropy(rho, beta)
                    seconds.append(time.perf_counter() - start)
                assert min(seconds) < 0.1
                assert h == pytest.approx(analytic_entropy(alpha, beta), abs=1e-11)

    def test_non_gaussian_state_under_wide_noise(self):
        # 0.6 |cat><cat| + 0.4 |3><3| at dim 41.  Truncating rho_beta at the
        # state's dimension, as a noise-matrix route must, gave 3.8868242467.
        # The reference is the converged value: on a 16-sd window of 800 nodes
        # per axis the midpoint rule gives 3.8868231237469413 and the
        # Gauss-Legendre rule 3.8868231237469435.
        cat = (displaced_squeezed_vector(1.2, 0.0, 0.0, 41)
               + displaced_squeezed_vector(-1.2, 0.0, 0.0, 41))
        cat /= np.linalg.norm(cat)
        rho = 0.6 * np.outer(cat, cat.conj())
        rho[3, 3] += 0.4
        h = numeric_output_entropy(rho, make_noise(3.0, 0.2))
        assert h == pytest.approx(3.88682312374694, abs=1e-11)

    @pytest.mark.parametrize("n, beta, exact, tol", [
        (1, make_noise(0.5, 0.5), None, 2e-6),
        (3, make_noise(0.5, 0.5), None, 1e-9),
        (1, make_noise(0.0, INF), 1.3427277883861781, 2e-4),
    ])
    def test_number_states_against_exact_entropies(self, n, beta, exact, tol):
        # Number states on the default grid.  Under pure type-1 noise
        # with e^{2r} = 2 beta_q the entropy is ln 2 pi plus the Wehrl entropy
        # S_W(|n>) = n + 1 + ln n! - n psi(n + 1) (Lieb, Commun. Math. Phys. 62,
        # 35 (1978)); sharp position on |1> gives 3/2 - ln(2/sqrt(pi)) -
        # psi(3/2).  The default grid is off by 1.3e-6, 2.0e-10 and 9.7e-5;
        # the zeros of the densities slow its convergence.
        if exact is None:
            digamma = -np.euler_gamma + sum(1.0 / k for k in range(1, n + 1))
            exact = math.log(2.0 * math.pi) + n + 1 + math.lgamma(n + 1) - n * digamma
        assert abs(numeric_output_entropy(np.eye(8)[n], beta) - exact) <= tol

    def test_narrow_window_raises(self):
        rho = gaussian_state_fock(make_covariance(0.5, 0.5), n_max=30)
        with pytest.raises(NormalizationFailure):
            numeric_output_entropy(
                rho, make_noise(0.5, 0.5), QuadratureGrid(1.5, 60)
            )


class TestDiscreteEnsemble:
    def test_weight_validation(self):
        v = np.zeros(5)
        with pytest.raises(NonPositive, match="sum to"):
            DiscreteEnsemble(np.array([0.5, 0.6]), (v, v))
        with pytest.raises(NonPositive, match="positive"):
            DiscreteEnsemble(np.array([1.0, -0.0]), (v, v))
        with pytest.raises(NonPositive, match="length mismatch"):
            DiscreteEnsemble(np.array([1.0]), (v, v))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_weights_that_are_not_finite(self, bad):
        # "w <= 0" and the sum check are both False for a NaN weight.
        v = np.zeros(5)
        with pytest.raises(NonPositive):
            DiscreteEnsemble([bad, 0.5], (v, v))

    def test_weights_are_a_read_only_copy(self):
        v = np.zeros(5)
        given = np.array([0.5, 0.5])
        ens = DiscreteEnsemble(given, (v, v))
        given[0] = 0.9
        assert ens.weights.tolist() == [0.5, 0.5]
        with pytest.raises(ValueError):
            ens.weights[0] = 0.9
        listed = DiscreteEnsemble([0.25, 0.75], (v, v)).weights
        assert isinstance(listed, np.ndarray) and listed.dtype == np.float64
        assert listed.tolist() == [0.25, 0.75]

    @pytest.mark.parametrize("weights", [np.array([[0.5, 0.5]]), np.array(1.0),
                                         [[0.25, 0.25], [0.25, 0.25]]])
    def test_rejects_weights_that_are_not_1d(self, weights):
        v = np.zeros(5)
        with pytest.raises(NonPositive, match="1-D"):
            DiscreteEnsemble(weights, (v, v))

    def test_discretize_moments(self):
        spec = GaussianEnsembleSpec(0.325, 0.675, 0.0)
        ens = discretize_gaussian_ensemble(spec, nodes=11, n_max=40)
        assert len(ens) == 11
        mq, mp, vq, vp = _average_moments(ens.weights, ens.states)
        assert abs(mq) < 1e-10 and abs(mp) < 1e-10
        assert vq == pytest.approx(1.0, abs=1e-8)
        assert vp == pytest.approx(0.25 / 0.325, abs=1e-8)

    @pytest.mark.parametrize("nodes, n_max", [(0, 40), (-1, 40), (2.5, 40), (True, 40),
                                              (11, -1), (11, 2.5)])
    def test_discretize_rejects_sizes_that_are_not_counts(self, nodes, n_max):
        with pytest.raises(NonPositive):
            discretize_gaussian_ensemble(GaussianEnsembleSpec(0.325, 0.675, 0.0), nodes, n_max)

    @pytest.mark.parametrize("delta, gamma_q, gamma_p", [
        (0.0, 0.5, 0.5), (-0.1, 0.5, 0.5), (math.nan, 0.5, 0.5), (INF, 0.5, 0.5),
        (0.5, math.nan, 0.5), (0.5, 0.5, math.nan), (0.5, INF, 0.5), (0.5, 0.5, INF),
        (0.5, -0.1, 0.5), (0.5, 0.5, -0.1),
    ])
    def test_discretize_rejects_an_inadmissible_spec(self, delta, gamma_q, gamma_p):
        # delta <= 0 raised a bare ValueError; a NaN or infinite entry built
        # NaN states, which mutual_information reported as a numeric failure.
        with pytest.raises(NonPositive):
            discretize_gaussian_ensemble(GaussianEnsembleSpec(delta, gamma_q, gamma_p), 5, 10)


class TestMutualInformation:
    @pytest.mark.parametrize("nodes, gamma_p", [(200, 1.0), (400, 0.0)])
    def test_members_whose_weight_underflows_are_dropped(self, nodes, gamma_p):
        # The outermost Gauss-Hermite weights, or their products, underflow
        # to 0, which DiscreteEnsemble rejected as not positive.
        ens = discretize_gaussian_ensemble(GaussianEnsembleSpec(0.5, 1.0, gamma_p), nodes=nodes,
                                           n_max=2)
        assert np.all(ens.weights > 0.0)
        assert abs(ens.weights.sum() - 1.0) <= 1e-12
        assert len(ens) < nodes ** (2 if gamma_p else 1)

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

    def test_members_of_different_sizes(self):
        # The dim-25 member is zero-padded to dim 31, which is exact.
        small = displaced_squeezed_vector(0.5, 0.0, 0.0, 25)
        large = displaced_squeezed_vector(-0.5, 0.0, 0.0, 31)
        padded = np.pad(small, (0, 6))
        beta, grid, halves = make_noise(0.5, 0.5), QuadratureGrid(8.0, 80), np.array([0.5, 0.5])
        mi = mutual_information(DiscreteEnsemble(halves, (small, large)), beta, grid)
        same = mutual_information(DiscreteEnsemble(halves, (padded, large)), beta, grid)
        assert mi == same
        assert mi == pytest.approx(0.1114214821847, abs=1e-12)

    def test_traced_peak_of_the_oracle_ensemble(self):
        # Criterion 07's C case, 225 members on the default 200 x 200 grid:
        # the full density matrix alone would take 72 MB.  It traces about
        # 0.96 MB, and 1.37 MB while the reducer kept each block alive
        # until the next one had been computed.  The members' real stack of
        # conjugated columns, 0.22 MB, traces 0.26e6 B; built from a complex
        # copy, its negated imaginary part and a stack, it traced 0.58e6 B.
        spec = GaussianEnsembleSpec(0.5, 0.5, 0.5)
        ens = discretize_gaussian_ensemble(spec, nodes=15, n_max=60)
        assert traced_peak(lambda: mutual_information(ens, make_noise(0.5, 0.5))) < 1.1e6
        assert traced_peak(lambda: _state_components(ens.states, 61)) < 0.3e6

    def test_regime_r_discretized_capacity(self):
        # Criterion 07's R case: a 15-node discretization of the optimal
        # ensemble under beta = (5, 0.2).  A rho_beta truncated at dim 61 gave
        # a 3.3e-6 gap.
        alpha, beta = make_covariance(2.0, 1.0), make_noise(5.0, 0.2)
        d = optimal_squeezing(alpha, beta)
        spec = GaussianEnsembleSpec(d, max(alpha.alpha_q - d, 0.0),
                                    max(alpha.alpha_p - 0.25 / d, 0.0))
        ens = discretize_gaussian_ensemble(spec, nodes=15, n_max=60)
        assert abs(mutual_information(ens, beta) - capacity_alpha(alpha, beta)) <= 1e-7

    def test_traced_peak_of_the_rank_59_entropy(self):
        # Criterion 06's mixed noise, beta_q beta_p = 4: with a noise matrix
        # of rank 59, each outcome row once built a (61 levels x 59 noise
        # columns x inner nodes) product, 38 MB traced.  The trapezoidal rule
        # takes 242 inner nodes per row where Gauss-Legendre panels took 768,
        # so one x's vectors (0.24 MB) and the smearing bands (0.22 MB) leave
        # a peak of about 0.67 MB, where the panels traced 1.7 MB.
        rho = gaussian_state_fock(make_covariance(1.5, 0.6), n_max=60)
        assert traced_peak(lambda: numeric_output_entropy(rho, make_noise(2.0, 2.0))) < 1.0e6


def dense_information(weights, dens, cell):
    """(h(avg), MI, mass) from the whole (members, points) density matrix, each
    point weighted by the grid's cell."""

    def entropy(p):
        mask = p > 0
        return -cell * float(np.sum(p[mask] * np.log(p[mask])))

    avg = weights @ dens
    h_members = sum(wi * entropy(dens[i]) for i, wi in enumerate(weights))
    return entropy(avg), entropy(avg) - h_members, cell * float(np.sum(avg))


class TestStreamedReducer:
    """The row-streamed entropies and MI against one dense reduction."""

    @staticmethod
    def ensemble():
        mixed = gaussian_state_fock(make_covariance(1.2, 0.7), n_max=40).matrix
        return DiscreteEnsemble(
            np.array([0.3, 0.25, 0.45]),
            (displaced_squeezed_vector(0.8, -0.4, 0.3, 41),
             displaced_squeezed_vector(-0.6, 0.5, -0.2, 41, 0.4),
             FockOperator(mixed)),
        )

    @staticmethod
    def dense(weights, states, beta, grid):
        window = _output_window(_average_moments(weights, states), beta)
        nodes, cell = _grid_axes(*window, grid)
        dens = OutputSampler(beta, 41).bind(nodes)(states)
        return dens, dense_information(np.asarray(weights, dtype=float), dens, cell)

    @pytest.mark.parametrize("beta, grid", [
        (make_noise(0.5, 0.5), QuadratureGrid(8.0, 60)),
        (make_noise(1.0, 4.0), QuadratureGrid(8.0, 60)),
        (make_noise(1.0, 0.25 + 1e-4), QuadratureGrid(8.0, 60)),  # a Gauss-Hermite rule
        (make_noise(0.3, INF), QuadratureGrid()),
        (make_noise(0.0, INF), QuadratureGrid(8.0, 60)),  # the sharp measurement
        (make_noise(0.2, INF), QuadratureGrid(40.0, 200)),
    ])
    def test_matches_dense_reduction(self, beta, grid):
        ens = self.ensemble()
        dens, (_, mi, _) = self.dense(ens.weights, ens.states, beta, grid)
        assert mutual_information(ens, beta, grid) == pytest.approx(mi, abs=1e-12)
        # The 40-sigma window reaches densities <= 0, which the entropies skip.
        assert np.any(dens <= 0.0) == (grid.half_width == 40.0)
        for state in ens.states:
            _, (h, _, _) = self.dense([1.0], [state], beta, grid)
            assert numeric_output_entropy(state, beta, grid) == pytest.approx(h, abs=1e-12)

    def test_all_pure_ensemble_across_sub_blocks(self):
        # 324 complex pure members at dim 41: one 60-point outcome row spans
        # several sub-blocks of complex vectors.
        ens = discretize_gaussian_ensemble(GaussianEnsembleSpec(0.5, 0.5, 0.5), nodes=18, n_max=40)
        beta, grid = make_noise(0.5, 0.5), QuadratureGrid(8.0, 60)
        assert SUB_BLOCK_MULADDS // (2 * len(ens) * 41) < grid.nodes_per_axis
        _, (_, mi, _) = self.dense(ens.weights, ens.states, beta, grid)
        assert mutual_information(ens, beta, grid) == pytest.approx(mi, abs=1e-12)


class TestZeroNormStates:
    # A coherent state at x = 80 keeps nothing in |0>..|24>: its norm is 0.
    @pytest.mark.parametrize("beta", [make_noise(0.5, 0.5), make_noise(0.2, INF)])
    def test_raises_truncation_insufficient(self, beta):
        lost = displaced_squeezed_vector(80.0, 0.0, 0.0, 25)
        vacuum = displaced_squeezed_vector(0.0, 0.0, 0.0, 25)
        assert np.linalg.norm(lost) == 0.0
        ens = DiscreteEnsemble(np.array([0.5, 0.5]), (vacuum, lost))
        with pytest.raises(TruncationInsufficient):
            mutual_information(ens, beta, QuadratureGrid(6.0, 24))
        with pytest.raises(TruncationInsufficient):
            numeric_output_entropy(lost, beta, QuadratureGrid(6.0, 24))
        sampler = OutputSampler(beta, 25)
        with pytest.raises(TruncationInsufficient):
            sampler.bind((np.zeros(1),) * sampler.outcome_dim)([lost])


class TestOversizedStates:
    # A state wider than the sampler's dim cannot be zero-padded to it.
    @pytest.mark.parametrize("beta", [make_noise(1.0, 1.0), make_noise(0.5, 0.5),
                                      make_noise(0.2, INF)])
    def test_raises_truncation_insufficient(self, beta):
        wide = np.ones(81) / 9.0
        sampler = OutputSampler(beta, 61)
        axes = (np.zeros(1),) * sampler.outcome_dim
        with pytest.raises(TruncationInsufficient, match="81.*61"):
            sampler.bind(axes)([wide])
        with pytest.raises(TruncationInsufficient, match="81.*61"):
            sampler.bind(axes)([np.outer(wide, wide)])
        with pytest.raises(TruncationInsufficient, match="81.*61"):
            next(sampler.stream([wide], axes))


class TestStateFactor:
    """Density matrices enter as pivoted-Cholesky columns, with no eigensolver."""

    @staticmethod
    def states():
        gauss = [gaussian_state_fock(make_covariance(aq, ap), n_max=60).matrix
                 for aq, ap in [(0.5, 0.5), (1.0, 2.0), (2.0, 1.0), (1.5, 0.6), (2.0, 0.5)]]
        number = np.zeros((8, 8), dtype=complex)
        number[3, 3] = 1.0
        return gauss + [random_mixed_state(41, seed=13, rank=5), number]

    def test_columns_rebuild_the_state(self):
        # The columns reproduce rho up to the dropped part, whose entries a
        # positive semidefinite residual bounds by its trace, plus 1e-14 of
        # roundoff; the dropped trace is at most EIG_TOL of the trace.
        for rho in self.states():
            starts, bras = _state_components([rho], len(rho))
            cols = columns(bras)
            trace = np.trace(rho).real
            dropped = trace - np.sum(np.abs(cols) ** 2)
            assert -1e-14 * trace <= dropped <= EIG_TOL * trace
            assert np.abs(cols @ cols.conj().T - rho).max() <= max(dropped, 0.0) + 1e-14 * trace
            # One state: its columns start at 0.
            assert starts.tolist() == [0]
        assert [_state_components([rho], len(rho))[1].shape[1]
                for rho in self.states()[-2:]] == [5, 1]

    def test_membership_of_mixed_states_and_vectors(self):
        # A vector is its own column, as given: not divided by its norm.
        rho = random_mixed_state(20, seed=3, rank=2)
        vec = displaced_squeezed_vector(0.4, -0.2, 0.1, 12)
        starts, bras = _state_components([vec, rho], 20)
        assert starts.tolist() == [0, 1] and bras.shape[1] == 3
        cols = columns(bras)
        assert np.all(cols[12:, 0] == 0.0)
        assert np.all(cols[:12, 0] == vec)

    def test_rank_one_matrices_take_the_pure_path(self):
        vec = displaced_squeezed_vector(0.4, -0.2, 0.1, 12)
        starts, bras = _state_components([vec, np.outer(vec, vec.conj())], 12)
        assert starts.tolist() == [0, 1] and bras.shape == (2, 2, 12)
        col = columns(bras)[:, 1]
        assert np.abs(np.outer(col, col.conj()) - np.outer(vec, vec.conj())).max() <= 1e-15


class TestReduceDtypePairs:
    """_reduce's real products against the complex one, |U* V|^2, for real and
    complex vectors U and state columns V."""

    UNIT = [(0, np.ones((1, 1)))]  # width-1 smearing by 1

    @staticmethod
    def array(shape, kind, rng):
        a = rng.standard_normal(shape)
        return a + 1j * rng.standard_normal(shape) if kind is complex else a

    def vectors(self, rows, dim, kind, seed):
        # Column-major, one Fock level per column, as _vector_blocks gives them.
        return np.asfortranarray(self.array((rows, dim), kind, np.random.default_rng(seed)))

    def expected(self, starts, bras, u):
        overlaps = np.abs(u.conj() @ columns(bras)) ** 2
        return np.array([part.sum(axis=1) for part in np.split(overlaps, starts[1:], axis=1)])

    @pytest.mark.parametrize("vector_kind", [float, complex])
    @pytest.mark.parametrize("state_kind", [float, complex])
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_the_complex_product(self, vector_kind, state_kind, mixed):
        rng = np.random.default_rng(7)
        states = [self.array(12, state_kind, rng) for _ in range(3)]
        if mixed:  # a rank-3 density matrix and a vector
            g = self.array((12, 3), state_kind, rng)
            states[0] = g @ g.conj().T
        starts, bras = _state_components(states, 12)
        assert len(bras) == (2 if state_kind is complex else 1)
        assert starts.tolist() == ([0, 3, 4] if mixed else [0, 1, 2])
        u = self.vectors(50, 12, vector_kind, 1)
        got = np.concatenate([_reduce(starts, bras, u[:20], 1, self.UNIT),
                              _reduce(starts, bras, u[20:], 1, self.UNIT)], axis=1)
        expect = self.expected(starts, bras, u)
        assert got.shape == (3, 50)
        assert np.abs(got - expect).max() <= 1e-14 * expect.max()

    def test_a_row_across_several_products(self):
        # 200 complex members at dim 41: a sub-block holds 31 complex
        # vectors, so one row of 100 outcomes spans four products.
        rng = np.random.default_rng(8)
        starts, bras = _state_components([self.array(41, complex, rng) for _ in range(200)], 41)
        u = self.vectors(100, 41, complex, 2)
        assert SUB_BLOCK_MULADDS // (200 * 41 * 2) == 31
        got = _reduce(starts, bras, u, 1, self.UNIT)
        expect = self.expected(starts, bras, u)
        assert np.abs(got - expect).max() <= 1e-14 * expect.max()


class TestStatesTakenAsGiven:
    """A vector and its density matrix are one state: both keep their lost trace."""

    BETA = make_noise(0.5, 0.5)
    # The output entropy of every D(x, y) S(0.3)|0> under BETA.
    EXACT = 2.8822178363352857

    @pytest.mark.parametrize("x", [1.0, 1.5, 2.0])
    def test_entropy_of_a_vector_and_its_matrix(self, x):
        assert analytic_entropy(make_covariance(0.5 * math.exp(0.6), 0.5 * math.exp(-0.6)),
                                self.BETA) == pytest.approx(self.EXACT, abs=1e-15)
        # Cut to dim 12 the state keeps 0.99999 (x = 1) to 0.99897 (x = 2) of
        # its trace; the vector's entropy was renormalized to 1.8e-3 above EXACT.
        short = displaced_squeezed_vector(x, 0.5, 0.3, 12)
        for state in (short, np.outer(short, short.conj())):
            with pytest.raises(NormalizationFailure):
                numeric_output_entropy(state, self.BETA)
        vec = displaced_squeezed_vector(x, 0.5, 0.3, 41)
        h_vec = numeric_output_entropy(vec, self.BETA)
        h_mat = numeric_output_entropy(np.outer(vec, vec.conj()), self.BETA)
        assert h_vec == pytest.approx(h_mat, abs=1e-12)
        assert h_vec == pytest.approx(self.EXACT, abs=1e-6)

    def test_information_of_an_ensemble_of_vectors_and_matrices(self):
        grid = QuadratureGrid(8.0, 80)
        for dim in (12, 41):
            vecs = [displaced_squeezed_vector(x, 0.5, 0.3, dim) for x in (1.0, -2.0)]
            mats = [np.outer(v, v.conj()) for v in vecs]
            forms = [(vecs[0], mats[1]), (mats[0], vecs[1]), tuple(vecs), tuple(mats)]
            ensembles = [DiscreteEnsemble(np.array([0.5, 0.5]), states) for states in forms]
            if dim == 12:
                for ens in ensembles:
                    with pytest.raises(NormalizationFailure):
                        mutual_information(ens, self.BETA, grid)
                continue
            mi = [mutual_information(ens, self.BETA, grid) for ens in ensembles]
            assert max(mi) - min(mi) <= 1e-12
            assert 0.0 < mi[0] < math.log(2.0)

    def test_negative_state_raises(self):
        # diag(0.7, 0.5, -0.2) has trace 1 and a negative part far beyond
        # roundoff; the eigenvalue mask used to drop it silently.  So does
        # a matrix whose diagonal is positive but whose Schur complement is not.
        for rho in (np.diag([0.7, 0.5, -0.2]), np.array([[0.5, 0.6], [0.6, 0.5]])):
            for beta in (make_noise(0.5, 0.5), make_noise(1.0, 1.0), make_noise(0.3, INF)):
                with pytest.raises(NegativeDensity):
                    numeric_output_entropy(rho, beta, QuadratureGrid(8.0, 24))
                sampler = OutputSampler(beta, len(rho))
                with pytest.raises(NegativeDensity):
                    sampler.bind((np.zeros(1),) * sampler.outcome_dim)([rho])
                with pytest.raises(NegativeDensity):
                    povm_density(rho, beta, 0.3, 0.1)

    def test_no_eigensolver_on_the_density_path(self, monkeypatch):
        # Nor an SVD or other LAPACK routine anywhere in the package: the
        # dual check bounds its trace norm by the Hilbert-Schmidt norm, and
        # the stress search scores its states on the density path.
        def forbidden(*args, **kwargs):
            raise AssertionError("a LAPACK routine ran")

        for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "cholesky", "qr", "solve",
                     "lstsq", "inv", "pinv", "det", "slogdet"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        alpha = make_covariance(1.0, 2.0)
        rho = gaussian_state_fock(alpha, n_max=40)
        grid = QuadratureGrid(8.0, 60)
        for beta in (make_noise(1.0, 1.0), make_noise(0.3, INF)):
            h = numeric_output_entropy(rho, beta, grid)
            assert h == pytest.approx(analytic_entropy(alpha, beta), abs=1e-6)
        other = gaussian_state_fock(make_covariance(2.0, 1.0), n_max=40)
        ens = DiscreteEnsemble([0.5, 0.5], (rho, other))
        assert 0.0 < mutual_information(ens, make_noise(1.0, 1.0), grid) < math.log(2.0)
        assert povm_density(rho, make_noise(1.0, 1.0), 0.3, 0.1) > 0.0
        assert quantum_charfn(rho)(0.0, 0.0) == pytest.approx(1.0, abs=1e-8)
        assert dual_operator_check(make_covariance(1.0, 1.0), make_noise(0.2, 5.0), n_max=20) < 1e-4
        config = SearchConfig(members=2, starts=1, max_iter=10, n_max=12,
                              grid=QuadratureGrid(5.0, 24))
        report = hgm_search(make_covariance(1.0, 1.0), make_noise(0.5, 0.5), config)
        assert report.feasible and 0.0 < report.best_value_nats <= report.ceiling_nats + 1e-3
