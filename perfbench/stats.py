"""Summary statistics and the before/after verdict rule."""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def _rank(pct: float, n: int) -> int:
    # rounding keeps e.g. 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with pct% at or below it."""
    ordered = sorted(samples)
    return ordered[_rank(pct, len(ordered)) - 1]


def tail_percentile(samples):
    """The highest percentile of TAIL_LADDER with at least 10 samples beyond it.

    Returns (percentile, value), or None when fewer than 20 samples exist.
    """
    n = len(samples)
    for pct in TAIL_LADDER:
        if n - _rank(pct, n) >= TAIL_MIN_BEYOND:
            return pct, percentile(samples, pct)
    return None


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric on one workload.

    ``parent`` and ``change`` are runs on matched seeds, in pair order.  A side
    wins when it wins at least 9 of 10 pairs (ties count for neither) and the
    medians differ by more than the parent's interquartile range.  Otherwise the
    result is unresolved when the parent's own spread or the median worsening
    exceeds ``bound`` (a share of the parent's median), else unchanged.
    """
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    q1, med_p, q3 = quartiles(list(parent))
    spread = q3 - q1
    gap = sign * (statistics.median(change) - med_p)
    if sum(g > 0 for g in gains) >= WIN_SHARE * n and gap > spread:
        return "better"
    if sum(g < 0 for g in gains) >= WIN_SHARE * n and -gap > spread:
        return "worse"
    if spread > bound * abs(med_p) or -gap > bound * abs(med_p):
        return "unresolved"
    return "unchanged"
