"""Order statistics the benchmark reports (standard library only).

Quartiles follow :func:`statistics.quantiles` with ``n=4`` (the
default "exclusive" method), so a spread computed here matches the
one a reader computes from the same values by hand.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence

__all__ = ["median", "quartiles", "spread", "tail_percentile"]


def median(values: Sequence[float]) -> float:
    """The median of *values* (at least one)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles; the exclusive method needs
    at least two.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_percentile(
    values: Sequence[float], beyond: int = 10
) -> tuple[int, float] | None:
    """The highest whole percentile with *beyond* samples above it.

    Returns ``(p, value)`` where ``value`` is the sample at rank
    ``ceil(p/100 * n)`` and at least *beyond* samples lie strictly
    after that rank; ``None`` when fewer than ``beyond + 1`` samples
    exist. Candidates are 99, 98, ... 50, so with 8 000 samples the
    answer is p99 (80 beyond) and with 100 it is p90.
    """
    ordered = sorted(values)
    count = len(ordered)
    for percentile in range(99, 49, -1):
        rank = math.ceil(percentile * count / 100)
        if rank >= 1 and count - rank >= beyond:
            return percentile, ordered[rank - 1]
    return None
