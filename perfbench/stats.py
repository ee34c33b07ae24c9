"""Latency summaries and failure arithmetic for the benchmark.

A percentile is reported only when enough samples lie beyond it: the
p90 of 99 samples has 9 samples above it and is therefore refused. The
rule keeps a tail figure from resting on a handful of outliers.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Samples a reported percentile needs strictly above it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), interpolated between closest ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie strictly above the ``q``-th
    percentile's rank."""
    if n <= 0:
        return 0
    return n - math.floor(q / 100.0 * (n - 1)) - 1


def min_samples(q: float, beyond: int = MIN_BEYOND) -> int:
    """The fewest samples for which the ``q``-th percentile has ``beyond``
    samples above it."""
    n = 1
    while samples_beyond(n, q) < beyond:
        n += 1
    return n


def summarise_ms(seconds: Sequence[float],
                 tail: float = 90.0) -> Dict[str, float]:
    """Median and tail of host latencies (seconds in, milliseconds out).

    Raises ``ValueError`` when the tail percentile lacks
    :data:`MIN_BEYOND` samples beyond it.
    """
    n = len(seconds)
    beyond = samples_beyond(n, tail)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{tail:g} of {n} samples has {beyond} beyond it; "
            f"needs {MIN_BEYOND} ({min_samples(tail)} samples)"
        )
    return {
        "p50": percentile(seconds, 50.0) * 1e3,
        f"p{tail:g}": percentile(seconds, tail) * 1e3,
        "n": n,
        "beyond": beyond,
    }


def fail_ratio(failed: int, attempted: int) -> float:
    """Ops with a wrong answer or an exception, per op attempted."""
    if attempted <= 0:
        raise ValueError("fail ratio of no attempted ops")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed out of {attempted} attempted")
    return failed / attempted
