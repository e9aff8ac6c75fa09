import csv
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from gausscap.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args, env=None):
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 0, result.stderr
    return result


# Every command that takes --beta-p, with the other options it requires.
BETA_P_COMMANDS = {
    "capacity": ["--beta-q", "1", "-e", "1"],
    "regime": ["--alpha-q", "1", "--alpha-p", "1", "--beta-q", "1"],
    "dual": ["--alpha-q", "1", "--alpha-p", "1", "--beta-q", "1"],
    "sweep": ["--beta-q", "1"],
    "hgm-search": ["--alpha-q", "1", "--alpha-p", "1", "--beta-q", "1"],
}


class TestBetaPOption:
    @pytest.mark.parametrize("command", BETA_P_COMMANDS)
    def test_not_a_number_is_a_usage_error(self, runner, command):
        res = runner.invoke(main, [command, *BETA_P_COMMANDS[command], "--beta-p", "abc"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "Invalid value for '--beta-p'" in res.stderr

    @pytest.mark.parametrize("spelling", ["+inf", "Infinity", " INF "],
                             ids=["plus", "word", "padded"])
    def test_spellings_of_infinity(self, runner, spelling):
        # beta_q = 0 is valid only with beta_p = inf: the sharp position measurement.
        args = ["capacity", "--beta-q", "0", "-e", "1.0", "--beta-p"]
        assert run_ok(runner, args + [spelling]).output == run_ok(runner, args + ["inf"]).output

    def test_capacity_help_names_inf(self, runner):
        assert "'inf' for position-only" in run_ok(runner, ["capacity", "--help"]).output


class TestCapacityCommand:
    def test_sharp_position(self, runner):
        res = run_ok(runner, ["capacity", "--beta-q", "0", "--beta-p", "inf",
                              "-e", "1.0"])
        payload = json.loads(res.output)
        assert payload["capacity_nats"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert payload["regime"] == "L"
        assert payload["hypothetical"] is True

    def test_center_regime(self, runner):
        res = run_ok(runner, ["capacity", "--beta-q", "0.5", "--beta-p", "0.5",
                              "-e", "1.0"])
        payload = json.loads(res.output)
        assert payload["capacity_nats"] == pytest.approx(math.log(1.5), abs=1e-12)
        assert payload["regime"] == "C"
        assert payload["hypothetical"] is False
        assert payload["optimizer_check_nats"] == pytest.approx(
            payload["capacity_nats"], abs=1e-8
        )

    def test_bits_conversion(self, runner):
        res = run_ok(runner, ["capacity", "--beta-q", "0", "--beta-p", "inf",
                              "-e", "1.0", "--log-base", "bits"])
        payload = json.loads(res.output)
        assert payload["capacity"] == pytest.approx(1.0, abs=1e-12)
        assert payload["log_base"] == "bits"

    def test_large_energy_cross_check_exit_0(self, runner):
        # Used to exit 2: the shell cross-check left the uncertainty region.
        res = run_ok(runner, ["capacity", "--beta-q", "0.0012746083881221356",
                              "--beta-p", "196.13875314936692",
                              "-e", "158.41985233750944"])
        payload = json.loads(res.output)
        assert payload["optimizer_check_nats"] == pytest.approx(
            payload["capacity_nats"], abs=1e-9
        )

    def test_overflowing_noise_exit_0(self, runner):
        # Used to exit 1 with a traceback: the noisy-position radicand overflowed.
        res = run_ok(runner, ["capacity", "--beta-q", "1e200", "--beta-p", "inf", "-e", "1"])
        payload = json.loads(res.output)
        assert payload["capacity_nats"] == pytest.approx(0.0, abs=1e-15)
        assert payload["regime"] == "L"

    @pytest.mark.parametrize("beta_p", ["0.5", "inf"])
    def test_huge_energy_exit_0(self, runner, beta_p):
        # E*E overflowed in the cross-check, which exited 2 on valid input.
        res = run_ok(runner, ["capacity", "--beta-q", "0.5", "--beta-p", beta_p, "-e", "1.35e154"])
        assert math.isfinite(json.loads(res.output)["capacity_nats"])

    def test_overflowing_noise_product_exit_0(self, runner):
        # Used to exit 1 with a traceback: sqrt(beta_q beta_p) overflowed in regime C.
        res = run_ok(runner, ["capacity", "--beta-q", "1e300", "--beta-p", "1e300", "-e", "1e307"])
        payload = json.loads(res.output)
        assert payload["regime"] == "C"
        assert payload["capacity_nats"] == pytest.approx(math.log(1e307 / 1e300 + 1.0), rel=1e-13)

    def test_overflowing_center_covariance_exit_3(self, runner):
        # alpha_p = E + (beta_q - beta_p)/2 is no float here; this exited 2,
        # "covariance entries must be finite", on valid input.
        res = runner.invoke(main, ["capacity", "--beta-q", "1e308", "--beta-p", "1e3",
                                   "-e", "1.7e308"])
        assert res.exit_code == 3
        assert "NumericsError" in res.stderr and "float range" in res.stderr

    def test_invalid_energy_exit_2(self, runner):
        res = runner.invoke(main, ["capacity", "--beta-q", "0.5",
                                   "--beta-p", "0.5", "-e", "0.4"])
        assert res.exit_code == 2

    def test_invalid_noise_exit_2(self, runner):
        res = runner.invoke(main, ["capacity", "--beta-q", "0.1",
                                   "--beta-p", "0.1", "-e", "1.0"])
        assert res.exit_code == 2


class TestRegimeCommand:
    def test_left_case(self, runner):
        res = run_ok(runner, ["regime", "--alpha-q", "1", "--alpha-p", "2",
                              "--beta-q", "0.2", "--beta-p", "inf"])
        payload = json.loads(res.output)
        assert payload["regime"] == "L"
        assert payload["delta_opt"] == pytest.approx(0.125)
        assert payload["capacity_alpha_nats"] == pytest.approx(
            0.6531258267231771, abs=1e-12
        )


class TestDualCommand:
    def test_matches_capacity_in_left_regime(self, runner):
        res = run_ok(runner, ["dual", "--alpha-q", "1", "--alpha-p", "1",
                              "--beta-q", "0.2", "--beta-p", "5"])
        payload = json.loads(res.output)
        assert payload["regime"] == "L"
        assert payload["accessible_info_nats"] == pytest.approx(
            payload["capacity_alpha_nats"], abs=1e-12
        )
        assert payload["alpha_prime"]["q"] + payload["gamma_prime"]["q"] == \
            pytest.approx(1.0, abs=1e-12)

    def test_overflowing_kappa_squared_exit_0(self, runner):
        # kappa_q^2 = 1e320 overflowed in dual_ensemble, which printed a traceback.
        res = run_ok(runner, ["dual", "--alpha-q", "1e160", "--alpha-p", "1e160",
                              "--beta-q", "0.5", "--beta-p", "0.5"])
        payload = json.loads(res.output)
        assert payload["gamma_prime"]["q"] == pytest.approx(1e160, rel=1e-15)
        assert payload["alpha_prime"]["q"] == pytest.approx(0.5, rel=1e-15)
        assert math.isfinite(payload["accessible_info_nats"])

    def test_sharp_rejected_exit_2(self, runner):
        res = runner.invoke(main, ["dual", "--alpha-q", "1", "--alpha-p", "1",
                                   "--beta-q", "0", "--beta-p", "inf"])
        assert res.exit_code == 2


class TestSweepCommand:
    def test_csv_shape_and_values(self, runner):
        res = run_ok(runner, ["sweep", "--beta-q", "0.5", "--beta-p", "0.5",
                              "--energy-min", "0.5", "--energy-max", "2.0",
                              "--steps", "4"])
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert len(rows) == 4
        assert [r["energy"] for r in rows] == ["0.5", "1.0", "1.5", "2.0"]
        assert float(rows[1]["capacity"]) == pytest.approx(math.log(1.5), abs=1e-12)
        assert rows[1]["regime"] == "C"
        caps = [float(r["capacity"]) for r in rows]
        assert caps == sorted(caps)

    @pytest.mark.parametrize("steps", [1, 2, 4, 2000])
    def test_energy_column_matches_numpy_linspace(self, runner, steps):
        res = run_ok(runner, ["sweep", "--beta-q", "0.3", "--beta-p", "2.5",
                              "--energy-min", "0.7", "--energy-max", "13.3",
                              "--steps", str(steps)])
        energies = [r["energy"] for r in csv.DictReader(io.StringIO(res.output))]
        assert energies == [str(e) for e in np.linspace(0.7, 13.3, steps)]

    def test_removed_workers_option_is_a_usage_error(self, runner):
        res = runner.invoke(main, ["sweep", "--beta-q", "0.5", "--beta-p", "0.5",
                                   "--workers", "1"])
        assert res.exit_code == 2
        assert "--workers" in res.stderr


class TestBoundCommand:
    def test_sharp_bound(self, runner):
        res = run_ok(runner, ["bound", "--beta-q", "0", "-e", "1.0"])
        payload = json.loads(res.output)
        assert payload["upper_bound_nats"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_huge_energy_prints_finite_bound(self, runner):
        # 2(E + beta_q) overflowed, so the bound printed inf.
        res = run_ok(runner, ["bound", "--beta-q", "0.2", "-e", "1.7e308"])
        payload = json.loads(res.output)
        # ln(2(E + 0.2)/1.4) from 40-digit mpmath
        assert payload["upper_bound_nats"] == pytest.approx(710.0835118371670, rel=1e-15)

    @pytest.mark.parametrize("beta_q", ["-1", "nan", "inf"])
    def test_invalid_beta_q_exit_2(self, runner, beta_q):
        res = runner.invoke(main, ["bound", "--beta-q", beta_q, "-e", "1"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: NonPositive" in res.output


class TestHgmSearchCommand:
    def test_smoke_json_report(self, runner):
        res = run_ok(runner, ["hgm-search", "--alpha-q", "1", "--alpha-p", "1",
                              "--beta-q", "0.5", "--beta-p", "0.5",
                              "--members", "3", "--starts", "1", "--iters", "20",
                              "--seed", "3", "-n", "14", "--grid-nodes", "24"])
        payload = json.loads(res.output)
        assert payload["regime"] == "C"
        assert payload["seed"] == 3
        assert payload["best_value_nats"] <= payload["ceiling_nats"] + 2e-2

    def test_seed_env_var(self, runner):
        args = ["hgm-search", "--alpha-q", "1", "--alpha-p", "1",
                "--beta-q", "0.5", "--beta-p", "0.5",
                "--members", "3", "--starts", "1", "--iters", "0",
                "-n", "14", "--grid-nodes", "24"]
        res = run_ok(runner, args, env={"GAUSSCAP_SEED": "11"})
        assert json.loads(res.output)["seed"] == 11

    def test_infeasible_search_prints_valid_json(self, runner):
        # One pure member has no spread to fill the room, so nothing is feasible.
        def reject(name):
            raise ValueError(f"not RFC 8259 JSON: {name}")

        res = run_ok(runner, ["hgm-search", "--alpha-q", "1", "--alpha-p", "1",
                              "--beta-q", "0.5", "--beta-p", "0.5",
                              "--members", "1", "--starts", "1", "--iters", "20"])
        payload = json.loads(res.output, parse_constant=reject)
        assert payload["feasible"] is False
        for key in ("best_value_nats", "gap", "violation", "min_kept_mass"):
            assert payload[key] is None
        assert payload["ceiling_nats"] == pytest.approx(math.log(1.5))

    @pytest.mark.parametrize("flag", ["--members", "--truncation", "--grid-nodes"])
    def test_zero_size_exit_2(self, runner, flag):
        res = runner.invoke(main, ["hgm-search", "--alpha-q", "1", "--alpha-p", "1",
                                   "--beta-q", "0.5", "--beta-p", "0.5",
                                   "--starts", "1", "--iters", "0", flag, "0"])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)  # not an uncaught error
        assert "error: NonPositive" in res.output

    @pytest.mark.parametrize("flag, value", [("--starts", "0"), ("--starts", "-2"),
                                             ("--iters", "-1")])
    def test_empty_budget_exit_2(self, runner, flag, value):
        args = {"--starts": "1", "--iters": "0", flag: value}
        res = runner.invoke(main, ["hgm-search", "--alpha-q", "1", "--alpha-p", "1",
                                   "--beta-q", "0.5", "--beta-p", "0.5", "-n", "8",
                                   *(x for kv in args.items() for x in kv)])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: NonPositive" in res.output

    @pytest.mark.parametrize("seed, env, error", [
        ("-3", {}, "error: NonPositive"), (None, {"GAUSSCAP_SEED": "-3"}, "error: NonPositive"),
        (None, {"GAUSSCAP_SEED": "abc"}, "Invalid value for '--seed'"),
        (None, {"GAUSSCAP_SEED": "1.5"}, "Invalid value for '--seed'")])
    def test_bad_seed_exit_2(self, runner, seed, env, error):
        args = ["hgm-search", "--alpha-q", "1", "--alpha-p", "1", "--beta-q", "0.5",
                "--beta-p", "0.5", "--starts", "1", "--iters", "0", "-n", "8"]
        res = runner.invoke(main, args + ([] if seed is None else ["--seed", seed]), env=env)
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert error in res.output


class TestCltDemoCommand:
    def test_convergence_table(self, runner):
        res = run_ok(runner, ["clt-demo", "--n-list", "4,64", "--nodes", "21"])
        rows = list(csv.DictReader(io.StringIO(res.output)))
        assert [r["n"] for r in rows] == ["4", "64"]
        devs = [float(r["sup_deviation"]) for r in rows]
        assert devs[1] < devs[0]

    def test_bad_n_list_exit_2(self, runner):
        res = runner.invoke(main, ["clt-demo", "--n-list", "4,abc"])
        assert res.exit_code == 2

    def test_non_power_of_two_exit_2(self, runner):
        res = runner.invoke(main, ["clt-demo", "--n-list", "3"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("flag, value", [("--half-width", "nan"), ("--half-width", "0"),
                                             ("--half-width", "inf"), ("--nodes", "0")])
    def test_bad_grid_exit_2(self, runner, flag, value):
        res = runner.invoke(main, ["clt-demo", flag, value])
        assert res.exit_code == 2
        assert isinstance(res.exception, SystemExit)
        assert "error: NonPositive" in res.output
