"""Ring-buffer time-series windows.

The live plane cannot afford the offline path's "keep every event, fold
at the end" shape: a streamed campaign never ends.  A
:class:`RollingWindow` keeps the last N ``(time, value)`` readings of one
series in a ring buffer — O(N) memory forever — and answers the questions
the status surface asks (count, mean, min/max, p50/p95/p99, per-second
rate).
"""

from __future__ import annotations

import math
from collections import deque

__all__ = ["RollingWindow"]


class RollingWindow:
    """The last ``maxlen`` ``(time_s, value)`` readings of one series."""

    def __init__(self, maxlen: int = 256) -> None:
        if maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.maxlen = int(maxlen)
        self._ring: deque[tuple[float, float]] = deque(maxlen=self.maxlen)
        #: Readings ever pushed (the ring only keeps the tail).
        self.total = 0

    def push(self, time_s: float, value: float) -> None:
        self._ring.append((float(time_s), float(value)))
        self.total += 1

    def __len__(self) -> int:
        return len(self._ring)

    def __bool__(self) -> bool:
        return bool(self._ring)

    @property
    def values(self) -> list[float]:
        return [v for _, v in self._ring]

    @property
    def last(self) -> float | None:
        return self._ring[-1][1] if self._ring else None

    @property
    def mean(self) -> float:
        if not self._ring:
            return 0.0
        return sum(v for _, v in self._ring) / len(self._ring)

    @property
    def min(self) -> float:
        return min((v for _, v in self._ring), default=0.0)

    @property
    def max(self) -> float:
        return max((v for _, v in self._ring), default=0.0)

    @property
    def sum(self) -> float:
        return sum(v for _, v in self._ring)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile (``q`` in [0, 100]) over the
        windowed values; 0.0 for an empty window."""
        if not self._ring:
            return 0.0
        ordered = sorted(v for _, v in self._ring)
        if len(ordered) == 1:
            return ordered[0]
        pos = (q / 100.0) * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def rate_per_s(self) -> float:
        """Windowed sum divided by the windowed time span (0.0 when the
        window spans no time) — admit/evict *rates* for counter-ish
        series whose pushes carry per-interval deltas."""
        if len(self._ring) < 2:
            return 0.0
        span = self._ring[-1][0] - self._ring[0][0]
        if span <= 0:
            return 0.0
        return self.sum / span

    def snapshot(self) -> dict:
        """The JSON-encodable rollup the status surface renders."""
        return {
            "count": len(self._ring),
            "total": self.total,
            "last": self.last,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }
