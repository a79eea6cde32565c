"""Latency summaries: the median and the tail percentile rule.

The tail is reported at the highest of p99 / p95 / p90 that still
leaves at least :data:`MIN_BEYOND` samples above it, so a tail figure
is never one or two unlucky requests.  Each workload also pins the
percentile its sample count supports at the benchmark's run length
(``Workload.tail_q``); a run takes the lower of the pin and the rule,
so the reported percentile cannot flip between runs of one length.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Candidate tail percentiles, highest first.
TAIL_QUANTILES = (0.99, 0.95, 0.90)

#: Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def beyond(samples: int, q: float) -> int:
    """How many of *samples* distinct values lie above their
    :func:`quantile` *q*."""
    return samples - 1 - math.floor(_position(q, samples))


def tail_quantile(samples: int) -> float:
    """The highest candidate percentile leaving ``MIN_BEYOND`` samples
    beyond it.  Short smoke runs that cannot support even p90 get p90."""
    for q in TAIL_QUANTILES:
        if beyond(samples, q) >= MIN_BEYOND:
            return q
    return TAIL_QUANTILES[-1]


def _position(q: float, count: int) -> float:
    # Rounded so that e.g. 0.95 * 180 is 171, not 170.99999999999997.
    return round(q * (count - 1), 9)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile *q* of *values* (numpy's default)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = _position(q, len(ordered))
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)
