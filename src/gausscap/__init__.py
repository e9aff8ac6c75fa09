"""Classical capacity of one-mode Gaussian quantum measurement channels.

The closed-form layer (``core``, ``capacity``, ``duality``) needs only the
standard library and is imported eagerly.  The truncated-Fock engine
(``fock``, ``grids``, ``clt``, ``dualcheck``, ``hgm``) needs numpy alone;
it and its re-exported names load on first attribute access (PEP 562).
"""

import importlib

from .core import (
    EnergyBelowVacuum,
    GausscapError,
    HeisenbergViolation,
    InvalidForSharp,
    InvalidSharp,
    MeasurementNoise,
    NegativeDensity,
    NonPositive,
    NormalizationFailure,
    NumericsError,
    OneModeCovariance,
    OutOfInterval,
    OutputGaussian,
    TruncationInsufficient,
    ValidationError,
    make_covariance,
    make_noise,
    output_density,
    output_entropy_term,
)
from .capacity import (
    CapacityResult,
    GaussianEnsembleSpec,
    Regime,
    capacity_alpha,
    capacity_energy,
    classify_regime,
    e_closure,
    ensemble_objective,
    optimal_squeezing,
    threshold_energy,
    upper_bound,
)
from .duality import (
    DualEnsemble,
    KappaMatrix,
    accessible_info_sharp_position,
    dual_ensemble,
    kappa_matrix,
)

__version__ = "0.1.0"

# Engine name -> submodule that defines it.
_ENGINE_EXPORTS = {
    "FockOperator": "fock",
    "gaussian_state_fock": "fock",
    "quantum_charfn": "fock",
    "DiscreteEnsemble": "grids",
    "OutputSampler": "grids",
    "QuadratureGrid": "grids",
    "discretize_gaussian_ensemble": "grids",
    "mutual_information": "grids",
    "numeric_output_entropy": "grids",
    "povm_density": "grids",
    "clt_convergence_report": "clt",
    "clt_marginal_charfn": "clt",
    "gaussian_charfn": "clt",
    "dual_operator_check": "dualcheck",
    "SearchConfig": "hgm",
    "SearchReport": "hgm",
    "hgm_search": "hgm",
}
_ENGINE_MODULES = frozenset(_ENGINE_EXPORTS.values())

__all__ = [
    "EnergyBelowVacuum",
    "GausscapError",
    "HeisenbergViolation",
    "InvalidForSharp",
    "InvalidSharp",
    "MeasurementNoise",
    "NegativeDensity",
    "NonPositive",
    "NormalizationFailure",
    "NumericsError",
    "OneModeCovariance",
    "OutOfInterval",
    "OutputGaussian",
    "TruncationInsufficient",
    "ValidationError",
    "make_covariance",
    "make_noise",
    "output_density",
    "output_entropy_term",
    "CapacityResult",
    "GaussianEnsembleSpec",
    "Regime",
    "capacity_alpha",
    "capacity_energy",
    "classify_regime",
    "e_closure",
    "ensemble_objective",
    "optimal_squeezing",
    "threshold_energy",
    "upper_bound",
    "DualEnsemble",
    "KappaMatrix",
    "accessible_info_sharp_position",
    "dual_ensemble",
    "kappa_matrix",
    *_ENGINE_EXPORTS,
]


def __getattr__(name):
    if name in _ENGINE_MODULES:
        return importlib.import_module(f".{name}", __name__)
    if name in _ENGINE_EXPORTS:
        module = importlib.import_module(f".{_ENGINE_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | _ENGINE_MODULES)
