"""Order statistics shared by ``run.py`` and ``compare.py``.

Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
method), so the spread a run reports is the one a reader recomputes from
the raw values with the standard library.
"""

from __future__ import annotations

import statistics

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    vals = list(values)
    if not vals:
        raise ValueError("quartiles of an empty sample")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def p90(values):
    """The 90th percentile, or None while fewer than :data:`MIN_BEYOND`
    samples lie beyond it (fewer than 100 samples)."""
    vals = list(values)
    if len(vals) * (100 - 90) / 100 < MIN_BEYOND:
        return None
    return statistics.quantiles(vals, n=10)[-1]


def summarize(values) -> dict:
    """Median, quartiles and sample count."""
    vals = [float(v) for v in values]
    q1, median, q3 = quartiles(vals)
    return {"n": len(vals), "median": median, "q1": q1, "q3": q3}


def spread(summary: dict) -> float:
    """Interquartile range as a share of the median (0 for a 0 median)."""
    median = summary["median"]
    if median == 0:
        return 0.0
    return (summary["q3"] - summary["q1"]) / abs(median)
