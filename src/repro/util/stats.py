"""Empirical distribution and survival-analysis helpers.

The paper's Figures 6 and 7 are empirical CDFs of staleness periods and
Figure 8 is a survival curve (proportion of certificates not yet stale after
*n* days). These classes provide exact, dependency-light implementations with
the evaluation operations the analysis layer needs (quantiles, evaluation at
a point, proportion exceeding a threshold).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    """Exact median (mean of middle two for even counts)."""
    return percentile(values, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile, ``pct`` in ``[0, 100]``."""
    return percentile_sorted(sorted(values), pct)


def percentile_sorted(ordered: Sequence[float], pct: float) -> float:
    """:func:`percentile` over an **already sorted** sequence (no copy).

    Interpolates as ``a + (b - a) * f`` clamped to ``[a, b]``; the
    ``a * (1 - f) + b * f`` form underflows on subnormals, putting
    ``median([5e-324, 5e-324])`` at ``0.0``.
    """
    if not ordered:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    position = (pct / 100.0) * (len(ordered) - 1)
    lower = int(position)
    low = float(ordered[lower])
    if lower == position:
        return low
    high = float(ordered[lower + 1])
    return min(max(low + (high - low) * (position - lower), low), high)


def quantiles(values: Sequence[float], points: Iterable[float]) -> List[float]:
    """Evaluate several percentiles over the same sorted copy."""
    ordered = sorted(values)
    return [percentile_sorted(ordered, p) for p in points]


class Ecdf:
    """Empirical cumulative distribution function over numeric samples."""

    def __init__(self, samples: Iterable[float]) -> None:
        self._sorted: List[float] = sorted(samples)
        if not self._sorted:
            raise ValueError("ECDF requires at least one sample")

    def __len__(self) -> int:
        return len(self._sorted)

    def evaluate(self, x: float) -> float:
        """P(X <= x)."""
        return bisect_right(self._sorted, x) / len(self._sorted)

    def proportion_above(self, x: float) -> float:
        """P(X > x); the paper's 'over 50% exceed 90 days' style statements."""
        return 1.0 - self.evaluate(x)

    def quantile(self, q: float) -> float:
        """Inverse CDF for ``q`` in ``(0, 1]`` (left-continuous):
        the smallest sample x with F(x) >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q} outside (0, 1]")
        index = max(0, math.ceil(q * len(self._sorted)) - 1)
        index = min(index, len(self._sorted) - 1)
        return self._sorted[index]

    @property
    def median_value(self) -> float:
        return percentile_sorted(self._sorted, 50.0)

    def curve(self, points: int = 200) -> List[Tuple[float, float]]:
        """Sampled ``(x, F(x))`` pairs for plotting/reporting."""
        lo, hi = self._sorted[0], self._sorted[-1]
        if lo == hi:
            return [(lo, 1.0)]
        step = (hi - lo) / (points - 1)
        return [(lo + i * step, self.evaluate(lo + i * step)) for i in range(points)]


@dataclass(frozen=True)
class SurvivalPoint:
    """One step of a survival curve: fraction surviving past ``time``."""

    time: float
    survival: float


class SurvivalCurve:
    """Survival function S(t) = P(T > t) over observed event times.

    The paper's Figure 8 reads off S(90) and S(215) to estimate the share of
    stale certificates whose invalidation event happens more than 90/215 days
    after issuance (and would therefore be eliminated by a shorter lifetime).
    All observations here are uncensored: every sample is an observed
    time-to-invalidation.
    """

    def __init__(self, event_times: Iterable[float]) -> None:
        self._sorted: List[float] = sorted(event_times)
        if not self._sorted:
            raise ValueError("survival curve requires at least one event time")

    def __len__(self) -> int:
        return len(self._sorted)

    def survival_at(self, t: float) -> float:
        """S(t): proportion of events occurring strictly after *t*."""
        return 1.0 - bisect_right(self._sorted, t) / len(self._sorted)

    def reduction_if_capped(self, cap: float) -> float:
        """Fraction of events eliminated by a maximum lifetime of *cap* days.

        Events occurring after day *cap* of the certificate lifetime would be
        prevented outright (the certificate would already have expired), so
        this equals S(cap). The paper calls this an optimistic upper bound.
        """
        return self.survival_at(cap)

    def steps(self) -> List[SurvivalPoint]:
        """Distinct (time, survival) step points, time-ascending."""
        points: List[SurvivalPoint] = []
        n = len(self._sorted)
        seen_upto = 0
        last_time = None
        for i, t in enumerate(self._sorted):
            if t != last_time:
                if last_time is not None:
                    points.append(SurvivalPoint(last_time, 1.0 - seen_upto / n))
                last_time = t
            seen_upto = i + 1
        points.append(SurvivalPoint(last_time, 1.0 - seen_upto / n))
        return points


def histogram_by(keys: Iterable, values: Iterable[float] = None) -> Dict:
    """Count (or sum *values*) grouped by key; tiny helper for time series."""
    counts: Dict = {}
    if values is None:
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
    else:
        for key, value in zip(keys, values):
            counts[key] = counts.get(key, 0.0) + value
    return counts
