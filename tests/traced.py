"""The peak memory that tracemalloc traces while one call runs."""

import tracemalloc


def traced_peak(fn):
    """Peak bytes traced while fn() runs, its result included."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
