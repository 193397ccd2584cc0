"""Pure summary arithmetic: percentiles, spreads, the freshness mapping."""

from __future__ import annotations

import bisect
import math
import statistics
from itertools import accumulate
from typing import Sequence

median = statistics.median

#: Candidate tail percentiles, lowest first, with the fewest samples that
#: leave 10 beyond them.
TAILS = ((90.0, 100), (99.0, 1000), (99.9, 10_000))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def best_decile(values: Sequence[float]) -> float:
    """The 10th percentile: the floor of a sample too large for its minimum
    to repeat (an outlier on the fast side moves a minimum, not a decile)."""
    return percentile(values, 10)


def lower_quartile(values: Sequence[float]) -> float:
    """The 25th percentile: what a sample of ten is typically like when the
    noise only ever adds."""
    return percentile(values, 25)


def tail_percentile(n_samples: int) -> float | None:
    """The highest percentile in :data:`TAILS` with >= 10 samples beyond it.

    ``None`` when even p90 is not supported (fewer than 100 samples): the
    sample then backs a median only.
    """
    supported = [p for p, needed in TAILS if n_samples >= needed]
    return supported[-1] if supported else None


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    gap = (second - first) / first
    return gap if better == "lower" else -gap


def visible_at(
    event_times: Sequence[float], changed_claims: Sequence[int], n_claims: int
) -> list[float | None]:
    """When each fed claim became visible, from cumulative ``changed_claims``.

    Every fed claim is a new ``(source, item)``, so epoch event ``i`` covers
    exactly the fed claims ``cum[i-1] <= j < cum[i]`` in feed order.  A claim
    no event covers maps to ``None``.
    """
    cumulative = list(accumulate(changed_claims))
    out: list[float | None] = []
    for j in range(n_claims):
        i = bisect.bisect_right(cumulative, j)
        out.append(event_times[i] if i < len(cumulative) else None)
    return out
