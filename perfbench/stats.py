"""Order statistics shared by the benchmark runner and its compare printout."""
from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def quartiles(values) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def tail_percentile(samples, min_beyond: int = MIN_BEYOND) -> tuple:
    """Highest whole percentile that has at least ``min_beyond`` samples beyond it.

    Uses the nearest-rank rule: the p-th percentile is the ``ceil(p*N/100)``-th
    smallest sample, and the samples ranked after it are beyond it.  Returns
    ``(percentile, value, samples_beyond)``.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if rank >= 1 and n - rank >= min_beyond:
            return p, xs[rank - 1], n - rank
    raise ValueError(f"a tail needs more than {min_beyond} samples, got {n}")
