"""Inherent-staleness bookkeeping (§6, Fig 10).

Under trajectory-level asynchrony each trajectory's staleness is *emergent*:
it equals the number of actor updates that completed while the trajectory was
being generated.  This module tracks per-trajectory staleness at completion
time and aggregates the distribution over finish-time ranges, which is exactly
what Figure 10 plots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..types import Trajectory


@dataclass
class StalenessSample:
    """Staleness of one trajectory at the moment its generation finished."""

    traj_id: int
    finish_time: float
    generation_latency: float
    staleness: int


@dataclass
class StalenessTracker:
    """Collects staleness samples and produces Fig 10-style histograms."""

    samples: List[StalenessSample] = field(default_factory=list)

    def record(self, trajectory: Trajectory, actor_version_at_finish: int) -> StalenessSample:
        if trajectory.finish_time is None:
            raise ValueError("trajectory has no finish_time yet")
        sample = StalenessSample(
            traj_id=trajectory.traj_id,
            finish_time=trajectory.finish_time,
            generation_latency=trajectory.finish_time - trajectory.start_time,
            staleness=trajectory.inherent_staleness(actor_version_at_finish),
        )
        self.samples.append(sample)
        return sample

    # -- aggregation -----------------------------------------------------------
    def distribution(self) -> Dict[int, float]:
        """Overall staleness distribution as fractions summing to 1."""
        if not self.samples:
            return {}
        counts = Counter(s.staleness for s in self.samples)
        total = len(self.samples)
        return {staleness: count / total for staleness, count in sorted(counts.items())}

    def max_staleness(self) -> int:
        return max((s.staleness for s in self.samples), default=0)

    def mean_staleness(self) -> float:
        if not self.samples:
            return 0.0
        return sum(s.staleness for s in self.samples) / len(self.samples)

    def by_finish_time_bucket(
        self, bucket_seconds: float = 1800.0
    ) -> Dict[Tuple[float, float], Dict[int, float]]:
        """Staleness distribution per finish-time range (Fig 10 x-axis buckets).

        Figure 10 uses half-hour buckets over an 8-hour run; the bucket width
        is configurable so scaled-down simulations produce meaningful plots.
        """
        if bucket_seconds <= 0:
            raise ValueError("bucket_seconds must be positive")
        buckets: Dict[Tuple[float, float], Counter] = {}
        for sample in self.samples:
            index = int(sample.finish_time // bucket_seconds)
            key = (index * bucket_seconds, (index + 1) * bucket_seconds)
            buckets.setdefault(key, Counter())[sample.staleness] += 1
        result: Dict[Tuple[float, float], Dict[int, float]] = {}
        for key in sorted(buckets):
            counter = buckets[key]
            total = sum(counter.values())
            result[key] = {s: c / total for s, c in sorted(counter.items())}
        return result

    def fraction_at_most(self, staleness: int) -> float:
        """Fraction of trajectories with staleness <= the given value."""
        if not self.samples:
            return 0.0
        hits = sum(1 for s in self.samples if s.staleness <= staleness)
        return hits / len(self.samples)
