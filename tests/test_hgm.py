import json
import math

import numpy as np
import pytest

from gausscap.core import make_covariance, make_noise
from gausscap.fock import displaced_squeezed_vector
from gausscap.grids import QuadratureGrid
from gausscap.hgm import SearchConfig, SearchReport, _Objective, hgm_search

FAST = SearchConfig(
    members=3, starts=2, max_iter=40, seed=7, n_max=16,
    grid=QuadratureGrid(5.0, 32),
)


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
        assert report.violation < FAST.feasibility_tol
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

    def test_zero_iterations_still_feasible(self):
        cfg = SearchConfig(members=3, starts=2, max_iter=0, seed=1, n_max=16,
                           grid=QuadratureGrid(5.0, 32))
        report = hgm_search(make_covariance(1, 1), make_noise(0.5, 0.5), cfg)
        assert report.feasible
        assert report.best_value_nats <= report.ceiling_nats + 1e-3

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
