"""The closed-form layer loads without the numpy/scipy engine or a process pool,
and the Fock engine, the stress search included, loads without scipy; the
stress search and a pure-state entropy load no numpy.polynomial either.  No
layer loads dataclasses (and with it inspect, ast, dis and tokenize)."""

import json
import os
import subprocess
import sys

import pytest

import gausscap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gausscap.__file__)))
HEAVY = ("numpy", "scipy", "multiprocessing")
ENGINE_HEAVY = ("scipy", "numpy.polynomial")  # what the Fock engine itself never loads

CLOSED_FORM_COMMANDS = {
    "capacity": ["capacity", "--beta-q", "0.5", "--beta-p", "0.5", "-e", "2.0"],
    "regime": ["regime", "--alpha-q", "1", "--alpha-p", "2",
               "--beta-q", "0.2", "--beta-p", "inf"],
    "dual": ["dual", "--alpha-q", "1", "--alpha-p", "1",
             "--beta-q", "0.2", "--beta-p", "5"],
    "bound": ["bound", "--beta-q", "0.2", "-e", "1.0"],
    "sweep": ["sweep", "--beta-q", "0.2", "--beta-p", "inf", "--steps", "5",
              "--workers", "2"],
}


def heavy_modules_after(code, heavy=HEAVY):
    """Run code in a fresh interpreter; the modules of heavy it left loaded."""
    script = (f"import json, sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
              f"print(json.dumps(sorted(m for m in {heavy!r} if m in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_engine():
    assert heavy_modules_after("import gausscap") == []


def test_import_loads_no_dataclasses_or_inspect():
    assert heavy_modules_after("import gausscap", ("dataclasses", "inspect")) == []


def test_fock_engine_loads_no_dataclasses():
    code = ("import numpy\n"
            "import gausscap.fock, gausscap.grids, gausscap.hgm, gausscap.clt, gausscap.dualcheck")
    assert heavy_modules_after(code, ("dataclasses",)) == []


@pytest.mark.parametrize("command", sorted(CLOSED_FORM_COMMANDS))
def test_closed_form_command_loads_no_engine(command):
    code = ("from gausscap.cli import main\n"
            f"main({CLOSED_FORM_COMMANDS[command]!r}, standalone_mode=False)")
    assert heavy_modules_after(code) == []


def test_engine_loads_on_first_use():
    assert "numpy" in heavy_modules_after("import gausscap\ngausscap.hgm_search")


def test_fock_engine_loads_no_scipy():
    code = "import gausscap.fock, gausscap.grids, gausscap.clt, gausscap.dualcheck, gausscap.hgm"
    assert "scipy" not in heavy_modules_after(code)


def test_stress_search_loads_no_scipy():
    code = ("from gausscap import make_covariance, make_noise\n"
            "from gausscap.hgm import SearchConfig, hgm_search\n"
            "hgm_search(make_covariance(1, 1), make_noise(0.5, 0.5),\n"
            "           SearchConfig(starts=1, max_iter=2, n_max=8))")
    assert heavy_modules_after(code, ENGINE_HEAVY) == []


def test_pure_state_entropy_loads_no_polynomial():
    # Gauss rules come from the engine's own recurrences, not numpy.polynomial.
    code = ("from gausscap import make_noise\n"
            "from gausscap.fock import displaced_squeezed_vector\n"
            "from gausscap.grids import numeric_output_entropy\n"
            "v = displaced_squeezed_vector(0.3, -0.2, 0.1, 30)\n"
            "for beta in (make_noise(0.5, 0.5), make_noise(0.2, float('inf'))):\n"
            "    numeric_output_entropy(v, beta)")
    assert heavy_modules_after(code, ENGINE_HEAVY) == []


def test_stress_search_command_loads_no_scipy():
    args = ["hgm-search", "--alpha-q", "1", "--alpha-p", "1", "--beta-q", "0.5",
            "--beta-p", "0.5", "--starts", "1", "--iters", "2", "-n", "8"]
    code = f"from gausscap.cli import main\nmain({args!r}, standalone_mode=False)"
    assert "scipy" not in heavy_modules_after(code)


def test_squeezed_state_entropy_loads_no_scipy():
    code = ("from gausscap import make_covariance, make_noise\n"
            "from gausscap.fock import gaussian_state_fock\n"
            "from gausscap.grids import QuadratureGrid, numeric_output_entropy\n"
            "rho = gaussian_state_fock(make_covariance(2.0, 0.5), n_max=40)\n"
            "numeric_output_entropy(rho, make_noise(0.5, 0.5), QuadratureGrid(8.0, 40))")
    assert "scipy" not in heavy_modules_after(code)


def test_every_export_is_its_submodule_object():
    for name in gausscap.__all__:
        obj = getattr(gausscap, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_matches_all():
    namespace = {}
    exec("from gausscap import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(gausscap.__all__)


def test_engine_submodules_and_unknown_names():
    assert gausscap.grids.QuadratureGrid is gausscap.QuadratureGrid
    assert {"fock", "hgm", "hgm_search"} <= set(dir(gausscap))
    with pytest.raises(AttributeError):
        gausscap.no_such_name
