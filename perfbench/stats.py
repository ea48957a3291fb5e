"""Latency summaries shared by the runner and its tests."""

from __future__ import annotations

import statistics

TAIL_MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, min_beyond: int = TAIL_MIN_BEYOND) -> dict:
    """Latency at the highest percentile with at least ``min_beyond`` samples beyond it.

    Nearest rank: the k-th smallest of N samples with k = N - min_beyond.
    The rank never falls to the median or below (k >= N // 2 + 1), so a
    run too short for ``min_beyond`` samples beyond its median reports
    the sample above the median and the smaller count beyond it.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("no samples")
    rank = max(count - min_beyond, count // 2 + 1)
    return {
        "value": float(ordered[rank - 1]),
        "percentile": 100.0 * rank / count,
        "samples": count,
        "beyond": count - rank,
    }
