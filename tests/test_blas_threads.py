"""The Fock engine keeps OpenBLAS on one thread and on its float64 kernels.

Every overlap and Gram product of a fock_oracle-shaped pass at N = 60 is a
float64 product below OpenBLAS's threading cut-off, so a worker thread,
which OpenBLAS starts at import, never wakes.  The pass runs in a fresh
process, and the CPU time of every thread but the main one is read from
/proc before and after it.  No complex product runs either: once a real
state has taken the float64 path, a complex one faults in no new OpenBLAS
code, as the resident pages of its mappings in /proc/self/smaps show.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest


def _skip_reason():
    if not sys.platform.startswith("linux"):
        return "reads /proc/self/task"
    if len(os.sched_getaffinity(0)) < 2:
        return "OpenBLAS runs no worker thread on one CPU"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 2 has no mode
        blas = ""
    if "scipy-openblas" not in blas:
        return "the threading cut-offs are those of numpy's bundled scipy-openblas"
    return None


SKIP = _skip_reason()

PASS = textwrap.dedent("""
    import os, time

    import numpy as np

    from gausscap.capacity import GaussianEnsembleSpec, optimal_squeezing
    from gausscap.clt import clt_convergence_report
    from gausscap.core import make_covariance, make_noise
    from gausscap.dualcheck import dual_operator_check
    from gausscap.fock import gaussian_state_fock, quantum_charfn
    from gausscap.grids import (discretize_gaussian_ensemble, mutual_information,
                                numeric_output_entropy)

    def worker_ticks():
        # utime + stime of every thread but the main one
        total = 0
        for task in os.listdir("/proc/self/task"):
            if int(task) != os.getpid():
                with open(f"/proc/self/task/{task}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
                total += int(fields[11]) + int(fields[12])
        return total

    time.sleep(0.5)
    before = worker_ticks()
    rho = gaussian_state_fock(make_covariance(1.3, 0.8), n_max=60)
    numeric_output_entropy(rho, make_noise(0.65, 0.5 / 1.3))  # pure type-1 noise
    numeric_output_entropy(rho, make_noise(2.4, 2.0 / 1.2))  # mixed, rank 59
    alpha, beta = make_covariance(1.2, 1 / 1.2), make_noise(0.6, 0.5 / 1.2)
    d = optimal_squeezing(alpha, beta)
    spec = GaussianEnsembleSpec(d, max(1.2 - d, 0.0), max(1 / 1.2 - 0.25 / d, 0.0))
    mutual_information(discretize_gaussian_ensemble(spec, nodes=15, n_max=60), beta)
    dual_operator_check(make_covariance(1.1, 1 / 1.1), make_noise(0.2, 5.0), n_max=60)
    number = np.zeros((8, 8), dtype=complex)
    number[2, 2] = 1.0
    clt_convergence_report(quantum_charfn(number), make_covariance(2.5, 2.5), [4, 1024])
    time.sleep(0.5)
    print(before, worker_ticks())
""")


def fresh_process(script):
    """The two integers that script prints, run in a fresh process on this tree's src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    return map(int, out.split())


@pytest.mark.skipif(SKIP is not None, reason=SKIP or "")
def test_a_verification_pass_wakes_no_blas_worker():
    before, after = fresh_process(PASS)
    assert after == before


CHARFN = textwrap.dedent("""
    import numpy as np

    from gausscap.fock import quantum_charfn

    def openblas_rss_kb():
        total, counting = 0, False
        with open("/proc/self/smaps") as fh:
            for line in fh:
                head = line.split()
                if not head[0].endswith(":"):  # a mapping's header line
                    counting = "openblas" in line
                elif counting and head[0] == "Rss:":
                    total += int(head[1])
        return total

    axis = np.linspace(-3.0, 3.0, 7)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    real = np.diag(np.linspace(1.0, 0.2, 8))
    real /= np.trace(real)
    quantum_charfn(real)(x, y)
    before = openblas_rss_kb()
    hermitian = real.astype(complex)
    hermitian[1, 2], hermitian[2, 1] = 0.3j, -0.3j
    quantum_charfn(hermitian)(x, y)
    print(before, openblas_rss_kb())
""")


@pytest.mark.skipif(SKIP is not None, reason=SKIP or "")
def test_a_complex_state_runs_no_complex_product():
    # A zgemm of the complex state with the real Hermite table faulted in
    # 320 KB of OpenBLAS code that the float64 products never touch.
    before, after = fresh_process(CHARFN)
    assert before > 0 and after == before
