import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from pins import PATH, objective_values
from traced import traced_peak
from gausscap.core import NonPositive, make_covariance, make_noise
from gausscap.fock import displaced_squeezed_vector, state_moments
from gausscap.grids import (
    OutputSampler,
    QuadratureGrid,
    _average_moments,
    _grid_axes,
    _information,
    _output_window,
)
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
    """A vector block, or a view of some of its rows (transposed, perhaps as
    floats), that logs (block, first row, stop row) of every matmul it is an
    operand of."""

    def __array_finalize__(self, obj):
        self.origin = getattr(obj, "origin", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            for x in inputs:
                if isinstance(x, _RecordedBlock):
                    log, block, base, row = x.origin  # row: the block's row stride
                    first = (x.__array_interface__["data"][0] - base) // row
                    log.append((block, first, first + x.shape[-1] * x.strides[-1] // row))
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

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_config_rejects_seeds_that_are_not_counts(self, seed):
        with pytest.raises(NonPositive):
            SearchConfig(seed=seed)
        assert SearchConfig(seed=None).seed is None and SearchConfig(seed=0).seed == 0

    @pytest.mark.parametrize("field, value", [("grid", (6.0, 48)), ("grid", None),
                                              ("allow_fock", "no"), ("allow_fock", 1),
                                              ("allow_fock", None)])
    def test_config_rejects_a_grid_or_flag_of_another_type(self, field, value):
        # A tuple grid built and then failed in hgm_search with an
        # AttributeError; allow_fock "no" was taken as True.
        with pytest.raises(NonPositive):
            SearchConfig(**{field: value})

    def test_placed_rows_carry_the_clipped_squeezing(self):
        # _placed clips r to [-3, 3] in the rows that build the states.
        obj = _Objective(make_covariance(1, 1), make_noise(0.5, 0.5), FAST)
        point = np.zeros((FAST.members, FAST.per_member))
        point[0, 3], point[1, 3], point[2, 3] = 5.0, -4.0, 0.25
        w, rows, _ = obj._placed(point.ravel())
        assert list(rows[:, 3]) == [3.0, -3.0, 0.25]
        assert w.sum() == pytest.approx(1.0)

    def test_members_are_exact_projections(self):
        # (x, y, r, theta) = (2, 0.5, 3, 1) keeps 9.1 % of its mass in
        # |0>..|24>; the member is not renormalized.
        cfg = SearchConfig(members=1, n_max=24)
        obj = _Objective(make_covariance(1, 1), make_noise(0.5, 0.5), cfg)
        states = obj._states(np.array([[0.0, 2.0, 0.5, 3.0, 1.0]]))
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

    @pytest.mark.parametrize("max_iter", [0, 1, 40])
    def test_each_start_is_scored_once(self, monkeypatch, max_iter):
        # A start is Nelder-Mead's first vertex; with no steps the search scores it itself.
        alpha, beta = make_covariance(1, 1), make_noise(0.5, 0.5)
        cfg = FAST._replace(max_iter=max_iter)
        points, call = [], _Objective.__call__

        def recorded(self, x):
            points.append(np.array(x))
            return call(self, x)

        monkeypatch.setattr(_Objective, "__call__", recorded)
        report = hgm_search(alpha, beta, cfg)
        starts = _initial_points(alpha, beta, cfg, np.random.default_rng(cfg.seed))
        assert [sum(np.array_equal(x, x0) for x in points) for x0 in starts] == [1] * cfg.starts
        assert report.evaluations == len(points)
        assert (report.evaluations == cfg.starts) == (max_iter == 0)

    def test_starts_explore_the_photon_mixing_angle(self):
        # In regime L the Gaussian optimum sits on the p-variance bound, so
        # the starts must squeeze less where they mix in a photon.
        alpha, beta = make_covariance(1, 2), make_noise(0.2, math.inf)
        cfg = SearchConfig(members=4, starts=8, n_max=16, grid=QuadratureGrid(5.0, 16))
        starts = _initial_points(alpha, beta, cfg, np.random.default_rng(0))
        theta = np.array([x0.reshape(cfg.members, cfg.per_member)[:, 4] for x0 in starts])
        assert np.std(theta) > 0.1
        obj = _Objective(alpha, beta, cfg)
        assert [obj._placed(x0)[2] for x0 in starts] == [0.0] * cfg.starts


class TestConstraintSurface:
    def test_member_moments_match_the_states(self):
        rng = np.random.default_rng(5)
        for r, theta in rng.uniform(-1.2, 1.2, (8, 2)):
            offset, var_q, var_p = _member_moments(r, theta)
            moments = state_moments(displaced_squeezed_vector(0.3, -0.7, r, 301, theta))
            assert np.allclose(moments, (0.3 + offset, -0.7, var_q, var_p), rtol=0.0, atol=1e-13)

    def test_placed_ensembles_hold_the_target_moments(self):
        # Random packed points, placed, have the target moments up to truncation.
        cfg = SearchConfig(members=4, n_max=60, grid=QuadratureGrid(5.0, 16))
        alpha = make_covariance(1.5, 2.0)
        obj = _Objective(alpha, make_noise(0.5, 0.5), cfg)
        rng = np.random.default_rng(3)
        for _ in range(10):
            raw = rng.standard_normal((cfg.members, cfg.per_member))
            raw[:, 3:] *= 0.3
            w, rows, excess = obj._placed(raw.ravel())
            assert excess == 0.0
            assert np.allclose(_average_moments(w, obj._states(rows)), (0.0, 0.0, 1.5, 2.0),
                               rtol=0.0, atol=1e-10)
            # Placing is idempotent, up to the last bit of the re-centering.
            _, again, excess = obj._placed(rows[:, :cfg.per_member].ravel())
            assert excess == 0.0
            assert np.allclose(again, rows, rtol=0.0, atol=1e-15)

    def test_members_wider_than_alpha_score_their_excess(self):
        obj = _Objective(make_covariance(1, 1), make_noise(0.5, 0.5), FAST)
        wide = np.zeros((FAST.members, FAST.per_member))
        wide[:, 1], wide[:, 2], wide[:, 3] = [-1.0, 0.0, 1.0], [1.0, 0.0, -1.0], 1.5
        # The q axis has room 1 - e^3/2 < 0; the p axis can be placed.
        assert obj(wide.ravel()) == pytest.approx(0.5 * math.exp(3.0) - 1.0)
        assert obj.best is None

    @pytest.mark.parametrize("seed", [1, 47])
    def test_starts_on_the_variance_bound_are_placed(self, seed):
        # Starts clip the squeezing onto the bound, where the room alpha - w.v
        # may come out below 0 by roundoff: such a start is placed with no
        # spread on that axis, not scored as a 4.4e-16 excess.
        alpha, beta = make_covariance(1, 2), make_noise(0.2, math.inf)
        cfg = SearchConfig(members=3, starts=8, seed=seed, grid=QuadratureGrid(6.0, 2))
        obj = _Objective(alpha, beta, cfg)
        placed = [obj._placed(x0)
                  for x0 in _initial_points(alpha, beta, cfg, np.random.default_rng(seed))]
        assert [excess for _, _, excess in placed] == [0.0] * cfg.starts
        assert any(np.all(rows[:, 2] == 0.0) for _, rows, _ in placed)

    def test_traced_peak_of_the_c_objective(self):
        # The bound densities keep the vector blocks of the 24 xs >= 0, five
        # (26 levels x 5 x 48 points) complex blocks, 0.5 MB (0.535e6 B
        # traced).  Bound on all 48 xs they traced 1.04e6 B, and built as a
        # list of blocks and then concatenated, 1.96e6 B.
        alpha, beta = make_covariance(1, 1), make_noise(0.5, 0.5)
        _Objective(alpha, beta, SearchConfig())  # fills the Gauss-rule caches
        assert traced_peak(lambda: _Objective(alpha, beta, SearchConfig())) < 0.6e6

    @pytest.mark.parametrize("alpha, beta", [((1, 1), (0.5, 0.5)), ((1, 2), (0.2, math.inf))])
    def test_bound_products_stay_within_one_vector_block(self, monkeypatch, alpha, beta):
        # Criterion 08's C and L objectives, bound on the 24 xs >= 0.  Every
        # overlap product of a bound evaluation takes rows of one
        # _vector_blocks block (C: 240 of the 1152 vectors, whose real view
        # times each part of the 4 members is 4 * 25 * 480 = 48,000 real
        # multiply-adds, within SUB_BLOCK_MULADDS and OpenBLAS's threading
        # cut-off; L: the 103 trapezoid nodes that every x shares, where a
        # 25-node Hermite rule per x took 600), and the products tile every
        # block.
        log, sizes = [], []
        vector_blocks = OutputSampler._vector_blocks

        def recorded(self, xs, nodes, keep=False):
            for block in vector_blocks(self, xs, nodes, keep):
                sizes.append(len(block))
                rec = block.view(_RecordedBlock)
                rec.origin = (log, len(sizes) - 1, block.__array_interface__["data"][0],
                              block.strides[0])
                yield rec

        monkeypatch.setattr(OutputSampler, "_vector_blocks", recorded)
        alpha, beta = make_covariance(*alpha), make_noise(*beta)
        obj = _Objective(alpha, beta, CRITERION_08)
        x0 = _initial_points(alpha, beta, CRITERION_08, np.random.default_rng(0))[0]
        densities = obj.densities(obj._states(obj._placed(x0)[1]))
        assert densities.shape == (4, 24 * (48 if beta.noise_type == 1 else 1))
        assert sum(sizes) == (24 * 48 if beta.noise_type == 1 else 103) and max(sizes) <= 256
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
        _, rows, excess = obj._placed(point)
        assert excess == 0.0
        assert rows[1, 1] == pytest.approx(1.9e5, rel=0.05)
        assert obj(point) == 1.0
        assert obj.best is None


class TestMirrorSymmetry:
    """The objective binds the xs >= 0 of its centred window and scores each
    member's mirror image there: its values are those of the whole grid."""

    # Pure type 1, trapezoid-smeared type 1, type 1 with a Gauss-Hermite
    # inner rule, type 2 and type 3.
    NOISES = [(0.5, 0.5), (2.0, 3.0), (1.0, 0.25 + 1e-4), (0.2, math.inf), (0.0, math.inf)]

    @pytest.mark.parametrize("beta", NOISES, ids=str)
    @pytest.mark.parametrize("nodes", [1, 2, 47, 48])
    def test_values_match_the_full_grid(self, beta, nodes):
        # Against -MI of the same normalized members bound on every node.  A
        # one-node grid weighs its point by (2 half_width sd)^2, so the
        # entropies whose difference is the MI reach about 70 nats, where
        # 1e-14 is one ulp: there the bound is 4 ulp of the average's entropy.
        beta = make_noise(*beta)
        alpha = make_covariance(1, 1) if beta.noise_type == 1 else make_covariance(1, 2)
        config = SearchConfig(members=3, starts=8, seed=nodes, grid=QuadratureGrid(6.0, nodes))
        obj = _Objective(alpha, beta, config)
        axes, cell = _grid_axes(*_output_window((0.0, 0.0, *alpha), beta), config.grid)
        full = OutputSampler(beta, obj.dim).bind(axes)
        scored = 0
        for x0 in _initial_points(alpha, beta, config, np.random.default_rng(nodes)):
            w, p, excess = obj._placed(x0)
            assert excess == 0.0
            states = obj._states(p)
            assert np.all(p[:, 4] != 0.0)  # photon angles mixed in
            h, mi, _ = _information(w, [full(states / np.linalg.norm(states, axis=1)[:, None])],
                                    cell)
            assert abs(obj(x0) + mi) <= max(1e-14, 4 * np.spacing(h))
            scored += 1
        assert scored == config.starts and obj.best is not None

    @pytest.mark.parametrize("alpha, beta, grid", [
        ((1, 1), (0.5, 0.5), (6.0, 48)), ((1, 2), (0.2, math.inf), (6.0, 48)),
        ((1.5, 0.6), (2.0, 3.0), (8.0, 47)), ((3.0, 0.2), (0.0, math.inf), (5.0, 1)),
        ((0.7, 2.83), (0.2, 5.0), (4.5, 2))])
    def test_the_window_is_centred(self, monkeypatch, alpha, beta, grid):
        # The identity's precondition: the x nodes come in exact pairs +-x,
        # and the objective binds those >= 0.
        seen = []

        def grid_axes(*args):
            axes, cell = _grid_axes(*args)
            seen.append(axes[0])
            return axes, cell

        bind = OutputSampler.bind
        monkeypatch.setattr("gausscap.hgm._grid_axes", grid_axes)
        monkeypatch.setattr(OutputSampler, "bind", lambda self, axes: seen.append(axes[0])
                            or bind(self, axes))
        _Objective(make_covariance(*alpha), make_noise(*beta),
                   SearchConfig(n_max=8, grid=QuadratureGrid(*grid)))
        xs, bound = seen
        assert np.array_equal(xs, -xs[::-1])
        assert np.array_equal(bound, xs[len(xs) // 2:]) and np.all(bound >= 0.0)


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
        # KEPT_MASS_TOL of their norm^2, against the values pins.py wrote
        # (its "about" says how they were computed).
        with open(PATH) as fh:
            pinned = json.load(fh)["values"]
        values = objective_values()
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
