"""Summary statistics: medians, the tail rule, self time."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int] | None:
    """Highest candidate percentile with at least ten samples beyond it.

    Uses the nearest-rank percentile: the value at rank ceil(p/100 * n) of
    the sorted samples, with the samples ranked after it counted as beyond.
    Returns (percentile, value, sample count) or None when no candidate has
    ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return p, float(ordered[rank - 1]), n
    return None


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total, end = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` holds objects with ``id``, ``parent``, ``start`` and ``end``;
    child intervals are clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None:
            lo, hi = max(s.start, parent.start), min(s.end, parent.end)
            if hi > lo:
                children[parent.id].append((lo, hi))
    return {s.id: (s.end - s.start) - _covered(children[s.id]) for s in spans}
