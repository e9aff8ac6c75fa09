"""Record types: field order, construction, immutability, hashing and validation.

Scalar records are named tuples that validate in __new__ (and so in
_replace); FockOperator and DiscreteEnsemble hold arrays and are read-only
__slots__ classes.
"""

import math

import numpy as np
import pytest

from gausscap.capacity import CapacityResult, GaussianEnsembleSpec, Regime
from gausscap.core import (
    HeisenbergViolation,
    MeasurementNoise,
    NonPositive,
    OneModeCovariance,
    OutputGaussian,
    make_covariance,
    make_noise,
)
from gausscap.duality import DualEnsemble, KappaMatrix
from gausscap.fock import FockOperator
from gausscap.grids import DiscreteEnsemble, QuadratureGrid
from gausscap.hgm import SearchConfig, SearchReport, hgm_search

VACUUM = np.eye(3)[0]
SPEC = GaussianEnsembleSpec(0.5, 0.5, 1.0)

# type -> (field names in order, valid values)
RECORDS = {
    OneModeCovariance: (("alpha_q", "alpha_p"), (1.0, 2.0)),
    MeasurementNoise: (("beta_q", "beta_p"), (0.5, math.inf)),
    OutputGaussian: (("var_q", "var_p"), (1.5, 2.5)),
    GaussianEnsembleSpec: (("delta", "gamma_q", "gamma_p"), (0.5, 0.5, 1.0)),
    CapacityResult: (("capacity_nats", "optimal_alpha", "regime", "ensemble", "hypothetical",
                      "optimizer_check_nats", "cross_check_gap"),
                     (0.4, make_covariance(1, 1.5), Regime.C, SPEC, False, 0.4, 0.0)),
    KappaMatrix: (("kappa_q", "kappa_p"), (0.8, 0.9)),
    DualEnsemble: (("alpha_prime_q", "alpha_prime_p", "gamma_prime_q", "gamma_prime_p"),
                   (0.6, 0.7, 0.4, 0.3)),
    FockOperator: (("matrix",), (np.eye(3),)),
    QuadratureGrid: (("half_width", "nodes_per_axis"), (6.0, 48)),
    DiscreteEnsemble: (("weights", "states"), (np.array([0.5, 0.5]), (VACUUM, VACUUM))),
    SearchConfig: (("members", "allow_fock", "starts", "max_iter", "seed", "n_max", "grid"),
                   (2, False, 3, 10, 1, 8, QuadratureGrid(5.0, 16))),
    SearchReport: (("best_value_nats", "ceiling_nats", "gap", "regime", "hypothetical", "seed",
                    "ensemble", "feasible", "flagged_excess", "budget_exhausted", "violation",
                    "min_kept_mass", "starts", "evaluations"),
                   (0.3, 0.4, -0.1, "C", False, 0, [], True, False, False, 0.0, 1.0, 1, 5)),
}
ARRAY_RECORDS = (FockOperator, DiscreteEnsemble)
# A SearchReport holds its ensemble as a list and so has no hash.
HASHABLE = [t for t in RECORDS if t not in ARRAY_RECORDS + (SearchReport,)]

# type -> (one invalid set of field values, the exception class it raises)
INVALID = {
    OneModeCovariance: ((0.1, 0.1), HeisenbergViolation),
    MeasurementNoise: ((-1.0, 1.0), NonPositive),
    QuadratureGrid: ((0.0, 48), NonPositive),
    DiscreteEnsemble: ((np.array([0.5, 0.6]), (VACUUM, VACUUM)), NonPositive),
    SearchConfig: ((0, True, 16, 200, 0, 24, QuadratureGrid(6.0, 48)), NonPositive),
}

# hgm_search(alpha = (1, 1), beta = (0.5, 0.5), PINNED_CONFIG).to_json(), as
# printed by the dataclass records this module's types replaced, except that
# best_value_nats and gap moved by 8.9e-16 with the Gauss rules built from
# the engine's recurrences, by 8.9e-16 again with the density layer's
# overlaps taken as float64 products on real views, and by 8.9e-16 once more
# (up) with the objective scoring the x >= 0 half of its grid and the
# members' mirror images there; evaluations fell from 44 to 42 once each
# start was scored only as Nelder-Mead's first vertex.
PINNED_CONFIG = SearchConfig(members=2, starts=2, max_iter=10, seed=3, n_max=10,
                             grid=QuadratureGrid(5.0, 16))
PINNED_JSON = (
    '{"best_value_nats": 0.33688787514670393, "ceiling_nats": 0.4054651081081644, '
    '"gap": -0.06857723296146045, "regime": "C", "hypothetical": false, "seed": 3, '
    '"ensemble": [{"weight": 0.5146153352371768, "x": -1.0981377338712286, '
    '"y": -0.5990683961824271, "squeeze_r": -0.04265723696265227, '
    '"photon_mix_angle": 0.2700879542346533}, {"weight": 0.4853846647628231, '
    '"x": 0.8720694622214665, "y": 0.6351452897302784, "squeeze_r": -0.1013092283874223, '
    '"photon_mix_angle": -0.06059998574589373}], "feasible": true, "flagged_excess": false, '
    '"budget_exhausted": false, "violation": 1.5477424986619128e-13, '
    '"min_kept_mass": 0.9999999930310741, "starts": 2, "evaluations": 42}'
)


def field_values(record, fields):
    return tuple(getattr(record, f) for f in fields)


def stored_as_given(cls, name, stored, given):
    """Fields are stored as given, except DiscreteEnsemble's weights: a read-only copy."""
    if (cls, name) == (DiscreteEnsemble, "weights"):
        return (stored is not given and not stored.flags.writeable
                and np.array_equal(stored, given))
    return stored is given


@pytest.mark.parametrize("cls", RECORDS, ids=lambda t: t.__name__)
def test_keyword_and_positional_construction_agree(cls):
    fields, values = RECORDS[cls]
    positional = cls(*values)
    keyword = cls(**dict(zip(fields, values)))
    for record in (positional, keyword):
        assert all(stored_as_given(cls, f, a, b)
                   for f, a, b in zip(fields, field_values(record, fields), values))
    if cls not in ARRAY_RECORDS:
        assert cls._fields == fields
        assert tuple(positional) == values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda t: t.__name__)
def test_assignment_raises(cls):
    fields, values = RECORDS[cls]
    record = cls(*values)
    for name in (fields[0], "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
    assert stored_as_given(cls, fields[0], field_values(record, fields)[0], values[0])


@pytest.mark.parametrize("cls", HASHABLE, ids=lambda t: t.__name__)
def test_equal_records_hash_equal(cls):
    _, values = RECORDS[cls]
    a, b = cls(*values), cls(*values)
    assert a == b and a is not b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", INVALID, ids=lambda t: t.__name__)
def test_invalid_input_raises(cls):
    fields, values = RECORDS[cls]
    bad, error = INVALID[cls]
    with pytest.raises(error):
        cls(*bad)
    if cls not in ARRAY_RECORDS:
        with pytest.raises(error):
            cls(*values)._replace(**dict(zip(fields, bad)))


def test_records_are_tuples():
    noise = make_noise(0.5, 2.0)
    bq, bp = noise
    assert (bq, bp, len(noise)) == (0.5, 2.0, 2)
    assert noise._asdict() == {"beta_q": 0.5, "beta_p": 2.0}
    assert noise._replace(beta_p=math.inf).noise_type == 2
    assert SearchConfig().grid == QuadratureGrid(6.0, 48)
    assert len(DiscreteEnsemble(np.array([0.5, 0.5]), (VACUUM, VACUUM))) == 2


def test_search_report_json_is_pinned():
    report = hgm_search(make_covariance(1, 1), make_noise(0.5, 0.5), PINNED_CONFIG)
    assert report.to_json() == PINNED_JSON
