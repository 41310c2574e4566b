"""Summary statistics with the benchmark's sample-count rule."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: a percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples lie beyond the requested percentile."""


def min_samples(q: float) -> int:
    """Smallest sample count whose nearest-rank ``q``-th percentile has
    ``MIN_BEYOND`` samples above it."""
    n = MIN_BEYOND
    while n - math.ceil(q / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Raises :class:`InsufficientSamples` unless at least ``MIN_BEYOND`` samples
    lie above the rank it returns, so a tail figure always rests on ten
    or more observations.
    """
    if not 0 < q < 100:
        raise ValueError("q must be in (0, 100)")
    ordered = sorted(values)
    n = len(ordered)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples leaves {max(0, n - rank)} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(q)} samples)"
        )
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    if not values:
        raise InsufficientSamples("median of no samples")
    return float(statistics.median(values))
