"""Result containers shared by every simulated RL system.

The paper's headline metric is training throughput in tokens/second: total
prompt+response tokens in a global training batch divided by the RL iteration
time (the span between consecutive actor update completions), averaged over
several iterations after a warm-up (§8 "Metrics").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..trainer.trainer import IterationRecord


@dataclass
class StageBreakdown:
    """Per-iteration decomposition of where the time went (Fig 1b / Fig 3)."""

    generation_time: float = 0.0
    training_time: float = 0.0
    weight_sync_time: float = 0.0
    experience_prep_time: float = 0.0
    bubble_time: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.generation_time
            + self.training_time
            + self.weight_sync_time
            + self.experience_prep_time
            + self.bubble_time
        )

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {}
        return {
            "generation": self.generation_time / total,
            "training": self.training_time / total,
            "weight_sync": self.weight_sync_time / total,
            "experience_prep": self.experience_prep_time / total,
            "bubble": self.bubble_time / total,
        }


@dataclass
class SystemRunResult:
    """Outcome of simulating one system on one configuration."""

    system: str
    model: str
    task: str
    total_gpus: int
    trainer_gpus: int
    rollout_gpus: int
    iterations: List[IterationRecord] = field(default_factory=list)
    breakdowns: List[StageBreakdown] = field(default_factory=list)
    #: Inherent staleness samples of all trained trajectories.
    staleness_samples: List[int] = field(default_factory=list)
    #: Wall-clock duration of the simulated run.
    wall_clock: float = 0.0
    #: Optional extra per-system measurements (repack stats, sync times, ...).
    extras: Dict[str, float] = field(default_factory=dict)

    def throughput(self, warmup_iterations: int = 0) -> float:
        """Mean tokens/s over iterations after ``warmup_iterations``."""
        records = self.iterations[warmup_iterations:]
        if not records:
            return 0.0
        total_tokens = sum(r.tokens_trained for r in records)
        total_time = sum(r.duration for r in records)
        if total_time <= 0:
            return 0.0
        return total_tokens / total_time

    def steady_throughput(self, last_k: int = 2) -> float:
        """Tokens/s over the last ``last_k`` iterations.

        Continuously-generating systems (AReaL, Laminar) start with a filled
        in-flight pipeline, so their first iterations consume that backlog and
        look faster than steady state.  Iteration durations grow monotonically
        toward the steady-state value as the backlog drains; the final
        iterations therefore give the best steady-state estimate.
        """
        if last_k <= 0:
            raise ValueError("last_k must be positive")
        records = self.iterations[-last_k:]
        if not records:
            return 0.0
        total_tokens = sum(r.tokens_trained for r in records)
        total_time = sum(r.duration for r in records)
        return total_tokens / total_time if total_time > 0 else 0.0

    def mean_iteration_time(self, warmup_iterations: int = 0) -> float:
        records = self.iterations[warmup_iterations:]
        if not records:
            return 0.0
        return sum(r.duration for r in records) / len(records)

    def mean_staleness(self) -> float:
        if not self.staleness_samples:
            return 0.0
        return sum(self.staleness_samples) / len(self.staleness_samples)

    def max_staleness(self) -> int:
        return max(self.staleness_samples) if self.staleness_samples else 0

    def mean_breakdown(self) -> StageBreakdown:
        if not self.breakdowns:
            return StageBreakdown()
        n = len(self.breakdowns)
        return StageBreakdown(
            generation_time=sum(b.generation_time for b in self.breakdowns) / n,
            training_time=sum(b.training_time for b in self.breakdowns) / n,
            weight_sync_time=sum(b.weight_sync_time for b in self.breakdowns) / n,
            experience_prep_time=sum(b.experience_prep_time for b in self.breakdowns) / n,
            bubble_time=sum(b.bubble_time for b in self.breakdowns) / n,
        )
