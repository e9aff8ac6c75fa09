"""Failure accounting and sample statistics shared by the workloads."""

import math
import statistics
from collections import Counter

import numpy as np


class Ledger:
    """Operations attempted and failed, with each failure counted by its reason.

    A library error on valid input, a nonzero CLI exit and an output outside
    its correctness gate all count as one failed operation; the run goes on.
    ``unchecked`` counts outputs the benchmark could not check at all (for
    example CLI output that does not parse): those make the run incorrect.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = Counter()
        self.unchecked = Counter()

    def fail(self, kind, reason):
        self.failed += 1
        self.reasons[f"{kind}: {reason}"] += 1

    def check(self, kind, gate, output, what="outside gate"):
        """Count an output that misses its gate as failed; returns whether it passed."""
        try:
            ok = bool(gate(output))
        except Exception:  # an output of an unexpected shape cannot be checked
            self.unchecked[kind] += 1
            ok, what = False, "output could not be checked"
        if not ok:
            self.fail(kind, what)
        return ok

    def summary(self):
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failure_reasons": dict(sorted(self.reasons.items())),
            "unchecked_outputs": dict(sorted(self.unchecked.items())),
        }


def rng(seed, stream):
    """Independent generator per (workload seed, input stream)."""
    return np.random.default_rng([seed, stream])


def log_uniform(gen, lo, hi, size=None):
    return np.exp(gen.uniform(math.log(lo), math.log(hi), size))


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile of the sample with at least 10 samples beyond it.

    Returns (value, percentile, sample count); the value is None when the
    sample has fewer than 11 entries.
    """
    n = len(values)
    if n < 11:
        return None, None, n
    k = n - 11
    return sorted(values)[k], math.floor(100.0 * (k + 1) / n), n


def close(a, b, rel=1e-12, abs_tol=0.0):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)
