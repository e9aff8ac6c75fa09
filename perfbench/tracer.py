"""Spans around the public functions of each gausscap layer, recorded from outside.

Each target is patched under the name its callers read it by: a module
attribute that other modules bound at import time (``displacement_batch`` in
both ``gausscap.fock`` and ``gausscap.grids``), or a method on a class.  A
target whose module or attribute no longer exists is listed as absent and
skipped, so the traced run survives refactors that delete or rename paths.

A span records its name, start, end, parent span, the workload's operation id
and optional call details.  Spans stay in memory until ``write`` is called.
"""

import functools
import importlib
import json
import math
import os
import statistics
import time


def _displacement_info(args, kwargs, _result):
    zeta = args[0] if args else kwargs["zeta"]
    dim = args[1] if len(args) > 1 else kwargs["dim"]
    points = getattr(zeta, "size", None)
    return (len(zeta) if points is None else points, dim)


def _densities_info(_args, _kwargs, result):
    return int(result.size)


def _sampler_rank(args, _kwargs, _result):
    factor = getattr(args[0], "factor", None)
    return None if factor is None else factor.shape[1]


def _cross_check(args, kwargs, _result):
    return kwargs.get("cross_check", args[2] if len(args) > 2 else True)


# (span name, module, attribute path, details taken after the call).  The span
# name's prefix is the layer that owns the function.
TARGETS = [
    ("capacity.capacity_energy", "gausscap.capacity", "capacity_energy", _cross_check),
    ("capacity.capacity_alpha", "gausscap.capacity", "capacity_alpha", None),
    ("capacity.classify_regime", "gausscap.capacity", "classify_regime", None),
    ("capacity.e_closure", "gausscap.capacity", "e_closure", None),
    ("capacity.upper_bound", "gausscap.capacity", "upper_bound", None),
    ("duality.kappa_matrix", "gausscap.duality", "kappa_matrix", None),
    ("duality.dual_ensemble", "gausscap.duality", "dual_ensemble", None),
    ("duality.accessible_info_sharp_position", "gausscap.duality",
     "accessible_info_sharp_position", None),
    ("fock.displacement_batch", "gausscap.fock", "displacement_batch", _displacement_info),
    ("fock.displacement_batch", "gausscap.grids", "displacement_batch", _displacement_info),
    ("fock.squeeze_matrix", "gausscap.fock", "squeeze_matrix", None),
    ("fock.displaced_squeezed_vector", "gausscap.fock", "displaced_squeezed_vector", None),
    ("fock.displaced_squeezed_vector", "gausscap.hgm", "displaced_squeezed_vector", None),
    ("fock.displacement_fock", "gausscap.fock", "displacement_fock", None),
    ("fock.displacement_fock", "gausscap.dualcheck", "displacement_fock", None),
    ("fock.gaussian_state_fock", "gausscap.fock", "gaussian_state_fock", None),
    ("fock.gaussian_state_fock", "gausscap.grids", "gaussian_state_fock", None),
    ("fock.gaussian_state_fock", "gausscap.dualcheck", "gaussian_state_fock", None),
    ("fock.state_moments", "gausscap.fock", "state_moments", None),
    ("fock.state_moments", "gausscap.grids", "state_moments", None),
    ("fock.state_moments", "gausscap.hgm", "state_moments", None),
    ("fock.quantum_charfn", "gausscap.fock", "quantum_charfn", None),
    ("grids.sampler_init", "gausscap.grids", "OutputSampler.__init__", _sampler_rank),
    ("grids.densities", "gausscap.grids", "OutputSampler.densities", _densities_info),
    ("grids.bind", "gausscap.grids", "OutputSampler.bind", None),
    ("grids.bound_densities", "gausscap.grids", "_BoundSampler.densities", _densities_info),
    ("grids.numeric_output_entropy", "gausscap.grids", "numeric_output_entropy", None),
    ("grids.mutual_information", "gausscap.grids", "mutual_information", None),
    ("grids.discretize_gaussian_ensemble", "gausscap.grids",
     "discretize_gaussian_ensemble", None),
    ("hgm.hgm_search", "gausscap.hgm", "hgm_search", None),
    ("dualcheck.dual_operator_check", "gausscap.dualcheck", "dual_operator_check", None),
    ("clt.clt_convergence_report", "gausscap.clt", "clt_convergence_report", None),
]

NAME, START, END, PARENT, OP, INFO = range(6)


def _resolve(module_name, path):
    """(owner object, attribute name), or None when either no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, "__dict__", {}).get(attr)):
        return None
    return owner, attr


class Tracer:
    """Installs span wrappers for the duration of a ``with`` block."""

    def __init__(self):
        self.spans = []
        self.op = 0
        self.absent = []
        self._stack = []
        self._saved = []

    def __enter__(self):
        self.absent = []
        for name, module_name, path, info in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            owner, attr = found
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))
        return self

    def __exit__(self, *_exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "info"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class Summary:
    """Durations, details and per-layer self time of the spans of some operations."""

    def __init__(self, spans, ops):
        ops = set(ops)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self.durations = {}
        self.infos = {}
        self.self_time = {}
        for i, span in enumerate(spans):
            if span[OP] not in ops:
                continue
            dur = span[END] - span[START]
            self.durations.setdefault(span[NAME], []).append(dur)
            self.infos.setdefault(span[NAME], []).append((span[INFO], dur))
            layer = span[NAME].split(".")[0]
            self.self_time[layer] = self.self_time.get(layer, 0.0) + dur - child_time[i]

    def median(self, name, scale=1.0):
        vals = self.durations.get(name)
        return statistics.median(vals) * scale if vals else 0.0

    def total(self, name, scale=1.0):
        return math.fsum(self.durations.get(name, [])) * scale

    def layer_self(self, layer, scale=1.0):
        return self.self_time.get(layer, 0.0) * scale
