"""The few statistics the benchmark reports, defined once."""

from __future__ import annotations

import math
import statistics
from time import perf_counter


def percentile(ordered, share):
    """Nearest-rank percentile of an ascending list (``share`` in 0..1)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * share)))
    return ordered[rank - 1]


def quartiles(values):
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them — the rule the acceptance check uses.  One value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def late_early_ratio(latencies):
    """Median latency of the last decile of units over the first decile's.

    1.0 means per-unit cost is flat in run length.
    """
    decile = max(1, len(latencies) // 10)
    early = statistics.median(latencies[:decile])
    late = statistics.median(latencies[-decile:])
    return late / early if early else 0.0


def calibration_ms(repeats=15):
    """A fixed pure-Python loop, best of ``repeats``: lets a trajectory be
    normalised across machines.  Short and repeated often, so that the
    best run is one no neighbour interrupted."""
    best = None
    for _ in range(repeats):
        start = perf_counter()
        total = 0
        table = {}
        for i in range(60_000):
            table[i & 1023] = total
            total += i * i % 7
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best * 1000.0
