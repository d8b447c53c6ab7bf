"""Core data types shared across every module of the reproduction.

The lifecycle mirrors the paper's Data Module (§3.1):

``Prompt`` -> in-flight ``Trajectory`` (partial response pool) ->
completed ``Trajectory`` -> ``Experience`` (experience buffer) -> sampled
training batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Prompt:
    """A single training prompt (math question, coding task, ...)."""

    prompt_id: int
    #: GRPO group: prompts are replicated ``group_size`` times; all copies of
    #: the same question share ``group_id``.
    group_id: int
    prompt_tokens: int
    #: Difficulty in [0, 1]; drives both response length and solve probability.
    difficulty: float = 0.5
    #: Multi-turn (tool-calling) task marker and its turn budget.
    multi_turn: bool = False
    max_turns: int = 1


@dataclass
class Trajectory:
    """One response being generated (or already generated) for a prompt."""

    traj_id: int
    prompt: Prompt
    #: Total response tokens this trajectory will eventually contain.
    target_tokens: int
    #: Response tokens generated so far.
    generated_tokens: int = 0
    #: Actor weight version in use when generation (re)started.
    weight_version: int = 0
    #: Every distinct weight version that contributed tokens (len > 1 only for
    #: partial-rollout systems, which mix policy versions inside a trajectory).
    versions_used: List[int] = field(default_factory=list)
    #: Environment turns completed so far (multi-turn tasks).
    turns_done: int = 0
    #: Simulation timestamps.
    start_time: float = 0.0
    finish_time: Optional[float] = None
    #: Identifier of the rollout replica that finished the trajectory.
    replica_id: Optional[int] = None
    #: Number of times the trajectory was migrated by the repack mechanism.
    repack_count: int = 0
    #: Number of times partial-rollout re-prefilled this trajectory's cache.
    reprefill_count: int = 0

    def __post_init__(self) -> None:
        if self.target_tokens <= 0:
            raise ValueError("target_tokens must be positive")
        if not self.versions_used:
            self.versions_used = [self.weight_version]

    # -- progress -----------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.generated_tokens >= self.target_tokens

    @property
    def total_tokens(self) -> int:
        """Prompt + response tokens (the throughput metric counts both)."""
        return self.prompt.prompt_tokens + self.generated_tokens

    def advance(self, tokens: int, weight_version: int) -> None:
        """Record ``tokens`` newly generated under ``weight_version``."""
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        self.generated_tokens = min(self.target_tokens, self.generated_tokens + tokens)
        if weight_version not in self.versions_used:
            self.versions_used.append(weight_version)

    @property
    def mixed_versions(self) -> bool:
        """True if more than one policy version produced this trajectory."""
        return len(set(self.versions_used)) > 1

    def inherent_staleness(self, actor_version_at_finish: int) -> int:
        """Staleness as defined in §6: actor version at completion minus the
        version the trajectory was generated with (its oldest version)."""
        return max(0, actor_version_at_finish - min(self.versions_used))


@dataclass
class Experience:
    """A completed, scored trajectory ready for sampling by the trainer."""

    trajectory: Trajectory
    reward: float = 0.0
    #: Actor version when the experience entered the buffer.
    actor_version_at_completion: int = 0

    @property
    def staleness(self) -> int:
        return self.trajectory.inherent_staleness(self.actor_version_at_completion)

    @property
    def tokens(self) -> int:
        return self.trajectory.total_tokens
