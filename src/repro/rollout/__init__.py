"""Rollout module: replica generation engine, environments, replica sizing."""

from .generation import (
    ReplicaBatchView,
    ReplicaGenerationState,
    ReplicaStats,
    SequenceState,
    SequenceStatus,
    TurnSchedule,
    build_sequence_states,
)
from .environment import SimulatedEnvironment, TrajectoryFactory, difficulty_to_turns
from .replica_config import RolloutReplicaConfig

__all__ = [
    "ReplicaBatchView",
    "ReplicaGenerationState",
    "ReplicaStats",
    "SequenceState",
    "SequenceStatus",
    "TurnSchedule",
    "build_sequence_states",
    "SimulatedEnvironment",
    "TrajectoryFactory",
    "difficulty_to_turns",
    "RolloutReplicaConfig",
]
