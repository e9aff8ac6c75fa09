"""Self-test of the benchmark at tiny sizes: python3 -m pytest -q perfbench"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


# Each workload's own timings, printed by name and unit in every report.
TIMINGS = {
    "closed_form": {"closed_form_calls_per_s": "1/s", "cli_call_p50_ms": "ms",
                    "cli_call_tail_ms": "ms"},
    "fock_oracle": {"oracle_pass_s": "s"},
    "stress_search": {"search_s": "s", "search_eval_ms": "ms"},
}


@pytest.mark.parametrize("workload", sorted(TIMINGS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    spec = _spec()
    assert workload in [w["name"] for w in spec["workloads"]]
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    for name, unit in TIMINGS[workload].items():
        assert report[name]["unit"] == unit
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], float)
        if not trace:
            assert value["value"] > 0


def test_known_crash_counts_as_one_failed_operation():
    import closed_form
    import gausscap

    bq, bp, e = closed_form.KNOWN_CRASH
    try:
        gausscap.capacity_energy(gausscap.make_noise(bq, bp), e)
        expected = 0
    except gausscap.ValidationError:
        expected = 1
    report, result = _run("closed_form", 0)
    plan = closed_form.cli_plan(closed_form.build(gausscap, 1, tiny=True))
    assert plan[0][0] == "capacity" and plan[0][1][1:3] == ((bq, bp), e)
    assert report["failure_reasons"].get("cli capacity: exit 2", 0) == expected
    # The run went on: every later CLI call was made and checked.
    assert report["cli_call_tail_ms"]["samples"] == len(plan)
    assert result["failed"] >= expected
