"""The stress search's pinned outputs, from the one loop the pin tests run.

test_hgm.py compares objective_values() with tests/objective_pins.json, and
test_records.py compares search_report() with its PINNED_JSON, both bit for
bit.  After a change that moves them on purpose,

    PYTHONPATH=src python tests/pins.py --diff

prints by how much: the largest |difference| of the 200 values, per case,
and whether PINNED_JSON still matches.  Then

    PYTHONPATH=src python tests/pins.py --write

rewrites objective_pins.json and prints the report to paste as PINNED_JSON.
"""

import json
import math
import os
import sys

import numpy as np

from gausscap.core import make_covariance, make_noise
from gausscap.grids import QuadratureGrid
from gausscap.hgm import SearchConfig, _initial_points, _Objective, hgm_search

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "objective_pins.json")
ABOUT = ("_Objective values at the first 100 _initial_points of the criterion-08 C case "
         "(alpha (1, 1), beta (0.5, 0.5), seed 1) and then L case (alpha (1, 2), beta "
         "(0.2, inf), seed 2), members 4, n_max 14, grid (6.0, 48); computed with the "
         "density layer's overlaps as float64 products on real views, on the x >= 0 half "
         "of the midpoint grid with the members' mirror images, every node weighted by "
         "its cell; the L case's position densities smeared by the kernel of every noise "
         "type; a start on the variance bound by roundoff is placed with zero spread; "
         "written by tests/pins.py --write")
PINNED_CONFIG = SearchConfig(members=2, starts=2, max_iter=10, seed=3, n_max=10,
                             grid=QuadratureGrid(5.0, 16))


def objective_values():
    """The 200 objective values that objective_pins.json holds."""
    values = []
    for alpha, beta, seed in ((make_covariance(1, 1), make_noise(0.5, 0.5), 1),
                              (make_covariance(1, 2), make_noise(0.2, math.inf), 2)):
        config = SearchConfig(members=4, starts=100, seed=seed, n_max=14,
                              grid=QuadratureGrid(6.0, 48))
        obj = _Objective(alpha, beta, config)
        rng = np.random.default_rng(seed)
        values += [obj(x) for x in _initial_points(alpha, beta, config, rng)]
    return values


def search_report():
    """hgm_search(alpha = (1, 1), beta = (0.5, 0.5), PINNED_CONFIG) as JSON."""
    return hgm_search(make_covariance(1, 1), make_noise(0.5, 0.5), PINNED_CONFIG).to_json()


def diff():
    """Lines that say how far the pins moved."""
    from test_records import PINNED_JSON

    with open(PATH) as fh:
        pinned = json.load(fh)["values"]
    moved = [abs(a - b) for a, b in zip(objective_values(), pinned)]
    for name, part in (("C", moved[:100]), ("L", moved[100:])):
        changed = sum(d != 0.0 for d in part)
        yield f"{name} case: largest |difference| {max(part):.3g}, {changed} of 100 values differ"
    yield f"PINNED_JSON {'matches' if search_report() == PINNED_JSON else 'differs'}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print(*diff(), sep="\n")
    elif sys.argv[1:] == ["--write"]:
        with open(PATH, "w") as fh:
            json.dump({"about": ABOUT, "values": objective_values()}, fh, indent=0)
            fh.write("\n")
        print(search_report())
    else:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --diff | --write")
