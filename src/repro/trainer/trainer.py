"""Actor trainer: mini-batch update loop, weight versioning, checkpointing.

The trainer samples a global batch from the experience buffer, runs the
configured number of mini-batch optimizer steps (16 in §8), bumps the actor
weight version, and publishes the new weights (to the master relay in Laminar,
or via a blocking global synchronization in the baselines).  Both the
iteration-level baseline simulators and the Laminar DES use this class so that
training costs are identical across systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..data.experience_buffer import ExperienceBuffer
from ..llm.model_spec import ModelSpec
from ..llm.parallelism import ParallelConfig
from ..llm.training_model import TrainingModel
from ..types import Experience


@dataclass(frozen=True)
class TrainerConfig:
    """Hyperparameters of the training stage relevant to system behaviour."""

    global_batch_size: int = 8192
    num_minibatches: int = 16
    checkpoint_interval_iterations: int = 5
    checkpoint_write_time: float = 20.0
    #: Time to restore a trainer from its latest checkpoint after a failure.
    checkpoint_restore_time: float = 120.0

    def __post_init__(self) -> None:
        if self.global_batch_size <= 0:
            raise ValueError("global_batch_size must be positive")
        if self.num_minibatches <= 0:
            raise ValueError("num_minibatches must be positive")
        if self.global_batch_size % self.num_minibatches != 0:
            raise ValueError("global_batch_size must be divisible by num_minibatches")


@dataclass
class IterationRecord:
    """Timing and data statistics of one completed RL training iteration."""

    iteration: int
    start_time: float
    end_time: float
    tokens_trained: int
    trajectories: int
    mean_reward: float
    mean_staleness: float
    max_staleness: int
    weight_version: int

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time

    @property
    def throughput_tokens_per_s(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.tokens_trained / self.duration


class Trainer:
    """Stateful actor trainer shared by all simulated systems."""

    def __init__(
        self,
        model: ModelSpec,
        parallel: ParallelConfig,
        config: Optional[TrainerConfig] = None,
        training_model: Optional[TrainingModel] = None,
    ) -> None:
        self.model = model
        self.parallel = parallel
        self.config = config or TrainerConfig()
        self.training_model = training_model or TrainingModel(model=model, config=parallel)
        self.weight_version = 0
        self.iterations: List[IterationRecord] = []
        self.last_checkpoint_version = 0
        self.checkpoints_written = 0

    # -- cost queries -------------------------------------------------------------
    def minibatch_time(self, tokens_in_minibatch: float) -> float:
        return self.training_model.minibatch_step_time(tokens_in_minibatch)

    def iteration_compute_time(self, total_tokens: float) -> float:
        """Pure training-stage time for one iteration over ``total_tokens``."""
        return self.training_model.iteration_time(
            total_tokens, self.config.num_minibatches
        )

    # -- state transitions -----------------------------------------------------------
    def record_iteration(
        self,
        batch: Sequence[Experience],
        start_time: float,
        end_time: float,
    ) -> IterationRecord:
        """Account a finished iteration and bump the weight version."""
        if not batch:
            raise ValueError("cannot record an iteration over an empty batch")
        self.weight_version += 1
        staleness = [exp.trajectory.inherent_staleness(self.weight_version) for exp in batch]
        record = IterationRecord(
            iteration=len(self.iterations) + 1,
            start_time=start_time,
            end_time=end_time,
            tokens_trained=sum(exp.tokens for exp in batch),
            trajectories=len(batch),
            mean_reward=sum(exp.reward for exp in batch) / len(batch),
            mean_staleness=sum(staleness) / len(staleness),
            max_staleness=max(staleness),
            weight_version=self.weight_version,
        )
        self.iterations.append(record)
        if record.iteration % self.config.checkpoint_interval_iterations == 0:
            self.last_checkpoint_version = self.weight_version
            self.checkpoints_written += 1
        return record

    def train_from_buffer(
        self, buffer: ExperienceBuffer, start_time: float
    ) -> IterationRecord:
        """Sample one global batch from ``buffer`` and account the iteration."""
        batch = buffer.sample(self.config.global_batch_size)
        tokens = sum(exp.tokens for exp in batch)
        end_time = start_time + self.iteration_compute_time(tokens)
        return self.record_iteration(batch, start_time, end_time)
