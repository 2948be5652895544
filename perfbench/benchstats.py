"""Order statistics for the steadiness tool, with the rules the benchmark's
acceptance check uses.

- quartiles(): Python's statistics.quantiles(values, n=4) (its default
  'exclusive' method), extended to one value, where every quartile is that
  value.
- spread(): (q3 - q1) / median, the run-to-run spread a metric's bound is
  compared against.

The percentile rule for latency samples (p50_us, p90_us) is the runner's
own nearest_rank (runner/common.hpp); test_benchstats.py tests it there.
"""

import math
import statistics


def quartiles(values):
    """(q1, median, q3) of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median (inf at median 0)."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`.
    Negative when it is better."""
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change
