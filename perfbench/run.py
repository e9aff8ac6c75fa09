"""gausscap benchmark: one workload per run, checked outputs, metrics as JSON.

Run from the root of a gausscap checkout:

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Workloads: closed_form, fock_oracle, stress_search (see each module).  The
library is imported from ``src/`` of the checkout, never from an installed
copy.  With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics, measured with
span wrappers around each layer's public functions, and the spans are written
to ``.perfbench/``.  Earlier stdout lines hold the run metadata and a report
with the workload's own metric names, failure reasons and tracing overhead.

Failure accounting: a library error on valid input, a nonzero CLI exit or an
output outside its correctness gate counts as one failed operation and the
run goes on.  ``correct`` is false only when an output could not be checked.
"""

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("closed_form", "fock_oracle", "stress_search")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Each workload's own timings, taken on the untraced half of a traced run,
# then the layer metrics.  A metric that does not apply to a workload reads 0.
WORKLOAD_TIMINGS = {
    "closed_form_calls_per_s": "1/s",
    "cli_call_p50_ms": "ms",
    "cli_call_tail_ms": "ms",
    "oracle_pass_s": "s",
    "search_s": "s",
    "search_eval_ms": "ms",
}

PER_LAYER = {
    **WORKLOAD_TIMINGS,
    "cli.import_s": "s",
    "cli.capacity_ms": "ms",
    "cli.sweep_ms": "ms",
    "cli.nonzero_exits": "count",
    "capacity.energy_us": "us",
    "capacity.energy_nocheck_us": "us",
    "capacity.alpha_us": "us",
    "capacity.validation_errors": "count",
    "duality.dual_us": "us",
    "fock.displacement_single_us.dim25": "us",
    "fock.displacement_single_us.dim61": "us",
    "fock.displacement_batch_us_per_point": "us",
    "fock.displacement_elements": "count",
    "fock.squeeze_ms": "ms",
    "fock.state_prep_us": "us",
    "fock.gaussian_state_ms": "ms",
    "fock.moments_us": "us",
    "fock.self_ms_per_eval": "ms",
    "grids.densities_s": "s",
    "grids.density_points": "count",
    "grids.noise_rank": "count",
    "grids.entropy_s": "s",
    "grids.mi_s": "s",
    "grids.discretize_s": "s",
    "grids.bind_ms": "ms",
    "grids.bound_densities_ms": "ms",
    "grids.self_ms_per_eval": "ms",
    "hgm.evaluations": "count",
    "hgm.self_ms_per_eval": "ms",
    "dualcheck.check_s": "s",
    "clt.report_ms": "ms",
}


class Context:
    def __init__(self, g):
        self.root = ROOT
        self.src = SRC
        self.validation_names = _subclass_names(g.core.ValidationError)


def _subclass_names(cls):
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _subclass_names(sub)
    return names


def import_gausscap():
    """Import gausscap from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import gausscap

    where = os.path.dirname(os.path.abspath(gausscap.__file__))
    if where != os.path.join(SRC, "gausscap"):
        raise ImportError(f"gausscap imported from {where}, not from {SRC}")
    return gausscap


def workload_module(name):
    return importlib.import_module(name)  # this directory is sys.path[0]


def setup_probe(args):
    """Fresh-process set-up: import gausscap, then build the workload's inputs."""
    t0 = time.perf_counter()
    g = import_gausscap()
    t1 = time.perf_counter()
    module = workload_module(args.workload)
    t2 = time.perf_counter()
    module.build(g, args.seed, args.tiny)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2)}))
    return 0


def run_probes(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    probes = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return probes


def _blas_threads():
    """BLAS thread count as found, read from the loaded OpenBLAS, else None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def metadata(args):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit or "unknown",
    }


def _peak_rss_mb():
    """Peak RSS of this process plus the largest peak among its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="minimal sizes, for the benchmark's own self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "gausscap")):
        print(f"error: no gausscap sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    probes = run_probes(args)
    g = import_gausscap()
    module = workload_module(args.workload)
    inputs = module.build(g, args.seed, args.tiny)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ledger, layers, detail = module.run(g, inputs, args.seconds, Context(g), tracer)

    setup = [p["setup_s"] for p in probes]
    if tracer is not None:
        path = os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        detail["spans"] = len(tracer.spans)
        detail["absent_targets"] = tracer.absent
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(layers)
        values.update({k: detail[k]["value"] or 0.0 for k in WORKLOAD_TIMINGS if k in detail})
        values["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setup), "peak_rss_mb": _peak_rss_mb()}
        metrics = {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"meta": metadata(args)}))
    print(json.dumps({"report": dict(detail, setup_probes_s=setup, **ledger.summary())}))
    print(json.dumps({"correct": not ledger.unchecked, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
