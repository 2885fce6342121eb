"""Order statistics shared by the runner and the compare mode."""

from __future__ import annotations

import math
import statistics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated q-th percentile, 0 <= q <= 100."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def verdict(parent: list[float], change: list[float], better: str) -> tuple[str, float, int, int]:
    """Pair run i of the parent with run i of the change.

    The change wins a metric when it is better in at least 9 of every 10
    pairs (ties count for neither side) and the medians differ by more
    than the parent's interquartile distance; it loses by the mirror
    rule; otherwise the metric is unresolved. Returns the verdict, the
    ratio of medians (change / parent), and the pairs won and lost.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs)
    lost = sum(sign * (c - p) < 0 for p, c in pairs)
    p1, pm, p3 = quartiles(parent)
    cm = quartiles(change)[1]
    ratio = cm / pm if pm else math.inf
    apart = abs(cm - pm) > (p3 - p1)
    if pairs and won >= 0.9 * len(pairs) and apart:
        return "better", ratio, won, lost
    if pairs and lost >= 0.9 * len(pairs) and apart:
        return "worse", ratio, won, lost
    return "unresolved", ratio, won, lost
