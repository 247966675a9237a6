"""Percentiles that are only reported when the sample supports them."""

from __future__ import annotations

import math

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q`` percentile (0 < q < 1) of ``values``.

    Raises ValueError unless at least ``min_beyond`` samples lie above the
    returned rank, so a tail figure is never read off a handful of points.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it; need {min_beyond}"
        )
    return ordered[rank - 1]
