"""The tail percentile the benchmark reports."""

from __future__ import annotations

TAIL_BEYOND = 10


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile): with n sorted samples that is the sample
    with exactly ``beyond`` samples after it, at percentile 100 * (n - beyond) / n.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n
