"""The peak memory that tracemalloc traces while one call runs.

Run as a script (PYTHONPATH=src python tests/traced.py), it prints the traced
peaks of the working sets that the tests bound and README quotes.
"""

import tracemalloc


def traced_peak(fn):
    """Peak bytes traced while fn() runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


if __name__ == "__main__":
    import math

    from gausscap.capacity import GaussianEnsembleSpec
    from gausscap.core import make_covariance, make_noise
    from gausscap.dualcheck import dual_operator_check
    from gausscap.fock import gaussian_state_fock
    from gausscap.grids import (
        discretize_gaussian_ensemble,
        mutual_information,
        numeric_output_entropy,
    )
    from gausscap.hgm import SearchConfig, _Objective

    ensemble = discretize_gaussian_ensemble(GaussianEnsembleSpec(0.5, 0.5, 0.5), 15, 60)
    rho = gaussian_state_fock(make_covariance(1.5, 0.6), n_max=60)
    c_case = make_covariance(1, 1), make_noise(0.5, 0.5)
    l_case = make_covariance(1, 2), make_noise(0.2, math.inf)
    dual_case = make_covariance(1.1, 1 / 1.1), make_noise(0.2, 5.0)
    for name, call in [
        ("Gaussian state at N = 60",
         lambda: gaussian_state_fock(make_covariance(1.5, 0.6), n_max=60)),
        ("Gaussian state at N = 540",
         lambda: gaussian_state_fock(make_covariance(30, 0.3), n_max=540)),
        ("criterion 08 C objective set-up", lambda: _Objective(*c_case, SearchConfig())),
        ("criterion 08 L objective set-up", lambda: _Objective(*l_case, SearchConfig())),
        ("criterion 07 mutual information",
         lambda: mutual_information(ensemble, make_noise(0.5, 0.5))),
        ("criterion 06 rank-59 entropy", lambda: numeric_output_entropy(rho, make_noise(2, 2))),
        ("type-2 entropy at N = 60",
         lambda: numeric_output_entropy(rho, make_noise(0.3, math.inf))),
        ("dual check at N = 60", lambda: dual_operator_check(*dual_case, n_max=60)),
    ]:
        call()  # fills the Gauss-rule caches
        print(f"{name:34} {traced_peak(call) / 1e6:6.3f} MB traced")
