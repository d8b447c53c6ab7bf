"""Time-series recording helpers (throughput over time, utilisation traces).

Used for the timeline-style figures: Fig 9 (KVCache lifecycle), Fig 15
(throughput around a machine failure) and Fig 16 (repack on/off generation
throughput).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class TimeSeries:
    """A simple (time, value) series with window aggregation helpers."""

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1] - 1e-9:
            raise ValueError("timestamps must be non-decreasing")
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def window_mean(self, start: float, end: float) -> float:
        """Mean of the values recorded in ``[start, end)``; NaN if there are none."""
        if end <= start:
            raise ValueError("end must exceed start")
        selected = [v for t, v in zip(self.times, self.values) if start <= t < end]
        if not selected:
            return math.nan
        return sum(selected) / len(selected)


@dataclass
class EventCounterSeries:
    """Counts discrete events (e.g. tokens generated) and derives rates."""

    name: str
    times: List[float] = field(default_factory=list)
    counts: List[float] = field(default_factory=list)

    def record(self, time: float, count: float) -> None:
        if self.times and time < self.times[-1] - 1e-9:
            raise ValueError("timestamps must be non-decreasing")
        self.times.append(time)
        self.counts.append(count)

    def rate_series(self, bucket: float, horizon: Optional[float] = None) -> TimeSeries:
        """Aggregate counts into a per-``bucket``-second rate series."""
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        series = TimeSeries(name=f"{self.name}_rate")
        if not self.times:
            return series
        horizon = horizon if horizon is not None else max(self.times)
        num_buckets = int(horizon // bucket) + 1
        totals = [0.0] * num_buckets
        for time, count in zip(self.times, self.counts):
            index = min(num_buckets - 1, int(time // bucket))
            totals[index] += count
        for index, total in enumerate(totals):
            series.record(index * bucket, total / bucket)
        return series

    def total(self) -> float:
        return sum(self.counts)
