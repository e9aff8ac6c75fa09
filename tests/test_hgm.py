import json
import math
import os

import numpy as np
import pytest
from scipy.optimize import minimize

from traced import traced_peak
from gausscap.core import NonPositive, make_covariance, make_noise
from gausscap.fock import displaced_squeezed_vector, state_moments
from gausscap.grids import OutputSampler, QuadratureGrid, _average_moments
from gausscap.hgm import (
    SearchConfig,
    SearchReport,
    _initial_points,
    _member_moments,
    _nelder_mead,
    _Objective,
    hgm_search,
)

FAST = SearchConfig(
    members=3, starts=2, max_iter=40, seed=7, n_max=16,
    grid=QuadratureGrid(5.0, 32),
)
CRITERION_08 = SearchConfig(members=4, starts=16, max_iter=200, seed=0, n_max=24,
                            grid=QuadratureGrid(6.0, 48))


class _RecordedBlock(np.ndarray):
    """A vector block, or a slice of one, that logs (block, first row, stop row)
    of every matmul it is an operand of."""

    def __array_finalize__(self, obj):
        self.origin = getattr(obj, "origin", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            for x in inputs:
                if isinstance(x, _RecordedBlock):
                    log, block, base = x.origin
                    first = (x.__array_interface__["data"][0] - base) // x.strides[0]
                    log.append((block, first, first + len(x)))
        plain = [x.view(np.ndarray) if isinstance(x, _RecordedBlock) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestHgmSearch:
    def test_center_regime_stays_below_ceiling(self):
        alpha, beta = make_covariance(1, 1), make_noise(0.5, 0.5)
        report = hgm_search(alpha, beta, FAST)
        assert report.regime == "C"
        assert not report.hypothetical
        assert report.feasible
        assert report.best_value_nats <= report.ceiling_nats + 2e-2
        assert not report.flagged_excess
        assert report.ceiling_nats == math.log(1.5)
        assert report.violation < 1e-6
        assert len(report.ensemble) == FAST.members

    def test_left_regime_marked_hypothetical(self):
        alpha, beta = make_covariance(1, 2), make_noise(0.2, math.inf)
        report = hgm_search(alpha, beta, FAST)
        assert report.regime == "L"
        assert report.hypothetical
        assert report.feasible
        assert report.best_value_nats <= report.ceiling_nats + 2e-2

    def test_deterministic_given_seed(self):
        alpha, beta = make_covariance(1, 1), make_noise(0.5, 0.5)
        r1 = hgm_search(alpha, beta, FAST)
        r2 = hgm_search(alpha, beta, FAST)
        assert r1.best_value_nats == r2.best_value_nats
        assert r1.evaluations == r2.evaluations

    def test_report_round_trips_through_json(self):
        alpha, beta = make_covariance(1, 1), make_noise(0.5, 0.5)
        report = hgm_search(alpha, beta, FAST)
        payload = json.loads(report.to_json())
        assert payload["seed"] == 7
        assert payload["starts"] == 2
        assert SearchReport(**payload).best_value_nats == report.best_value_nats

    def test_infeasible_report_keeps_its_floats_and_writes_null(self):
        cfg = SearchConfig(members=1, starts=1, max_iter=5, n_max=8, grid=QuadratureGrid(5.0, 12))
        report = hgm_search(make_covariance(1, 1), make_noise(0.5, 0.5), cfg)
        assert not report.feasible
        assert (report.best_value_nats, report.gap) == (-math.inf, -math.inf)
        assert (report.violation, report.min_kept_mass) == (math.inf, math.inf)
        payload = json.loads(report.to_json())
        assert [k for k, v in payload.items() if v is None] == [
            "best_value_nats", "gap", "violation", "min_kept_mass"]

    def test_zero_iterations_still_feasible(self):
        cfg = SearchConfig(members=3, starts=2, max_iter=0, seed=1, n_max=16,
                           grid=QuadratureGrid(5.0, 32))
        report = hgm_search(make_covariance(1, 1), make_noise(0.5, 0.5), cfg)
        assert report.feasible
        assert report.best_value_nats <= report.ceiling_nats + 1e-3

    @pytest.mark.parametrize("field, value", [("starts", 0), ("starts", -1), ("max_iter", -1)])
    def test_config_rejects_an_empty_budget(self, field, value):
        with pytest.raises(NonPositive):
            SearchConfig(**{field: value})

    @pytest.mark.parametrize("field", ["members", "starts", "max_iter", "n_max"])
    @pytest.mark.parametrize("value", [2.5, 4.0, True])
    def test_config_rejects_counts_that_are_not_integers(self, field, value):
        with pytest.raises(NonPositive):
            SearchConfig(**{field: value})

    def test_report_gives_the_squeezing_the_states_use(self):
        # unpack clips r to [-3, 3]; the report must describe the same states.
        obj = _Objective(make_covariance(1, 1), make_noise(0.5, 0.5), FAST)
        best = np.zeros((FAST.members, FAST.per_member))
        best[0, 3], best[1, 3], best[2, 3] = 5.0, -4.0, 0.25
        ensemble = obj.describe(best.ravel())
        assert [m["squeeze_r"] for m in ensemble] == [3.0, -3.0, 0.25]
        assert sum(m["weight"] for m in ensemble) == pytest.approx(1.0)

    def test_members_are_exact_projections(self):
        # (x, y, r, theta) = (2, 0.5, 3, 1) keeps 9.1 % of its mass in
        # |0>..|24>; the member is not renormalized.
        cfg = SearchConfig(members=1, n_max=24)
        obj = _Objective(make_covariance(1, 1), make_noise(0.5, 0.5), cfg)
        _, states = obj.unpack([0.0, 2.0, 0.5, 3.0, 1.0])
        assert states.shape == (1, 25)
        assert np.vdot(states[0], states[0]).real == pytest.approx(0.091342, abs=1e-6)

    def test_report_gives_the_smallest_kept_mass(self):
        report = hgm_search(make_covariance(1, 1), make_noise(0.5, 0.5), FAST)
        masses = []
        for m in report.ensemble:
            v = displaced_squeezed_vector(m["x"], m["y"], m["squeeze_r"], FAST.n_max + 1,
                                          m["photon_mix_angle"])
            masses.append(np.vdot(v, v).real)
        assert 0.0 < report.min_kept_mass <= 1.0
        assert report.min_kept_mass == pytest.approx(min(masses), abs=1e-15)

    def test_starts_explore_the_photon_mixing_angle(self):
        # In regime L the Gaussian optimum sits on the p-variance bound, so
        # the starts must squeeze less where they mix in a photon.
        alpha, beta = make_covariance(1, 2), make_noise(0.2, math.inf)
        cfg = SearchConfig(members=4, starts=8, n_max=16, grid=QuadratureGrid(5.0, 16))
        starts = _initial_points(alpha, beta, cfg, np.random.default_rng(0))
        theta = np.array([x0.reshape(cfg.members, cfg.per_member)[:, 4] for x0 in starts])
        assert np.std(theta) > 0.1
        obj = _Objective(alpha, beta, cfg)
        assert [obj.place(x0)[1] for x0 in starts] == [0.0] * cfg.starts


class TestConstraintSurface:
    def test_member_moments_match_the_states(self):
        rng = np.random.default_rng(5)
        for r, theta in rng.uniform(-1.2, 1.2, (8, 2)):
            offset, var_q, var_p = _member_moments(r, theta)
            moments = state_moments(displaced_squeezed_vector(0.3, -0.7, r, 301, theta))
            assert np.allclose(moments, (0.3 + offset, -0.7, var_q, var_p), rtol=0.0, atol=1e-13)

    def test_placed_ensembles_hold_the_average_covariance(self):
        # Random packed points, placed, have the target moments up to truncation.
        cfg = SearchConfig(members=4, n_max=60, grid=QuadratureGrid(5.0, 16))
        alpha = make_covariance(1.5, 2.0)
        obj = _Objective(alpha, make_noise(0.5, 0.5), cfg)
        rng = np.random.default_rng(3)
        for _ in range(10):
            raw = rng.standard_normal((cfg.members, cfg.per_member))
            raw[:, 3:] *= 0.3
            placed, excess = obj.place(raw.ravel())
            assert excess == 0.0
            w, states = obj.unpack(placed)
            assert np.allclose(_average_moments(w, states), (0.0, 0.0, 1.5, 2.0),
                               rtol=0.0, atol=1e-10)
            # Placing is idempotent, up to the last bit of the re-centering.
            again, excess = obj.place(placed)
            assert excess == 0.0
            assert np.allclose(again, placed, rtol=0.0, atol=1e-15)

    def test_members_wider_than_alpha_score_their_excess(self):
        obj = _Objective(make_covariance(1, 1), make_noise(0.5, 0.5), FAST)
        wide = np.zeros((FAST.members, FAST.per_member))
        wide[:, 1], wide[:, 2], wide[:, 3] = [-1.0, 0.0, 1.0], [1.0, 0.0, -1.0], 1.5
        # The q axis has room 1 - e^3/2 < 0; the p axis can be placed.
        assert obj(wide.ravel()) == pytest.approx(0.5 * math.exp(3.0) - 1.0)
        assert obj.best_params is None

    def test_traced_peak_of_the_c_objective(self):
        # The bound densities keep ten (26 levels x 5 x 48 points) complex
        # vector blocks, 1.0 MB (1.04e6 B traced).  Built as a list of blocks
        # and then concatenated, the vectors were held twice (1.96e6 B traced).
        alpha, beta = make_covariance(1, 1), make_noise(0.5, 0.5)
        _Objective(alpha, beta, SearchConfig())  # fills the Gauss-rule caches
        assert traced_peak(lambda: _Objective(alpha, beta, SearchConfig())) < 1.4e6

    @pytest.mark.parametrize("alpha, beta", [((1, 1), (0.5, 0.5)), ((1, 2), (0.2, math.inf))])
    def test_bound_products_stay_within_one_vector_block(self, monkeypatch, alpha, beta):
        # Criterion 08's C and L objectives.  Every overlap product of a bound
        # evaluation takes rows of one _vector_blocks block (C: 240 of the
        # 2304 vectors, 4 M N K = 4 * 240 * 25 * 4 = 96,000 for the complex
        # product, below OpenBLAS's threading cut-off), and the products
        # tile every block.
        log, sizes = [], []
        vector_blocks = OutputSampler._vector_blocks

        def recorded(self, xs, nodes, keep=False):
            for block in vector_blocks(self, xs, nodes, keep):
                sizes.append(len(block))
                rec = block.view(_RecordedBlock)
                rec.origin = (log, len(sizes) - 1, block.__array_interface__["data"][0])
                yield rec

        monkeypatch.setattr(OutputSampler, "_vector_blocks", recorded)
        alpha, beta = make_covariance(*alpha), make_noise(*beta)
        obj = _Objective(alpha, beta, CRITERION_08)
        x0 = _initial_points(alpha, beta, CRITERION_08, np.random.default_rng(0))[0]
        _, states = obj.unpack(obj.place(x0)[0])
        densities = obj.densities(states)
        assert densities.shape == (4, 48 ** (2 if beta.noise_type == 1 else 1))
        assert sum(sizes) == 48 * (48 if beta.noise_type == 1 else 25) and max(sizes) <= 256
        for block, size in enumerate(sizes):
            ranges = sorted((first, stop) for b, first, stop in log if b == block)
            assert [first for first, _ in ranges] == [0] + [stop for _, stop in ranges[:-1]]
            assert ranges[-1][1] == size

    def test_members_that_leave_the_truncation_score_their_lost_mass(self):
        # Logits (0, -25): placing sends the light member to x = y = 1.9e5,
        # where it keeps nothing of its norm.
        cfg = SearchConfig(members=2, allow_fock=False, n_max=24, grid=QuadratureGrid(5.0, 16))
        obj = _Objective(make_covariance(1, 1), make_noise(0.5, 0.5), cfg)
        point = np.array([[0.0, 0.0, 0.0, 0.0], [-25.0, 1.0, 1.0, 0.0]]).ravel()
        placed, excess = obj.place(point)
        assert excess == 0.0
        assert placed[5] == pytest.approx(1.9e5, rel=0.05)
        assert obj(point) == 1.0
        assert obj.best_params is None


def _recorded(f):
    """f, and the list of every point it is called with."""
    points = []

    def g(x):
        points.append(np.array(x))
        return f(x)

    return g, points


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestObjectivePins:
    def test_values_match_the_pinned_ones_bit_for_bit(self):
        # The objective scores each member as the normalized state of its
        # kept part; the density layer takes states as given.  200 points of
        # the criterion-08 cases at n_max = 14, where members may lose up to
        # KEPT_MASS_TOL of their norm^2, against values pinned before the
        # density layer stopped renormalizing vectors.
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "objective_pins.json")
        with open(path) as fh:
            pinned = json.load(fh)["values"]
        values = []
        for alpha, beta, seed in ((make_covariance(1, 1), make_noise(0.5, 0.5), 1),
                                  (make_covariance(1, 2), make_noise(0.2, math.inf), 2)):
            config = SearchConfig(members=4, starts=100, seed=seed, n_max=14,
                                  grid=QuadratureGrid(6.0, 48))
            obj = _Objective(alpha, beta, config)
            rng = np.random.default_rng(seed)
            values += [obj(x) for x in _initial_points(alpha, beta, config, rng)]
        assert len(values) == 200
        assert values == pinned


class TestNelderMead:
    """_nelder_mead visits the points scipy's adaptive Nelder-Mead visits, in order."""

    def run_both(self, f, x0, max_iter):
        ours, our_points = _recorded(f)
        best = _nelder_mead(ours, x0, max_iter)
        theirs, their_points = _recorded(f)
        res = minimize(theirs, x0, method="Nelder-Mead",
                       options={"maxiter": max_iter, "xatol": 1e-5, "fatol": 1e-8,
                                "adaptive": True})
        assert len(our_points) == len(their_points) == res.nfev
        for a, b in zip(our_points, their_points):
            assert np.array_equal(a, b)
        assert np.array_equal(best, res.x)
        return res

    def test_rosenbrock_10d(self):
        x0 = np.linspace(-1.2, 1.5, 10)
        res = self.run_both(_rosenbrock, x0, 400)
        assert res.nit == 400  # ran to the step limit

    def test_shrink_steps(self):
        # On a staircase the contracted point ties the worst vertex, so the
        # simplex shrinks: more than the two evaluations a step makes without.
        def staircase(x):
            return float(np.floor(2.0 * np.sum(x * x)))

        x0 = np.array([0.9, -1.3, 2.2, 0.4])
        res = self.run_both(staircase, x0, 200)
        assert res.nfev > x0.size + 1 + 2 * (res.nit - 1)

    def test_tolerance_break(self):
        def bowl(x):
            return float(np.sum((x - 0.5) ** 2))

        res = self.run_both(bowl, np.array([1.0, -2.0, 3.0]), 10_000)
        assert res.success
        assert res.nit < 10_000

    @pytest.mark.parametrize("max_iter", [0, 1, 2])
    def test_few_steps_and_zero_coordinates(self, max_iter):
        # A zero coordinate is perturbed to 0.00025 in the initial simplex;
        # max_iter 0 and 1 evaluate that simplex only.
        x0 = np.array([0.0, 1.5, 0.0, -0.7])
        res = self.run_both(_rosenbrock, x0, max_iter)
        assert (res.nfev == x0.size + 1) == (max_iter < 2)
