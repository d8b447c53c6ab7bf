"""Rollout module: replica generation engine, environments, replica sizing."""

from .generation import (
    DECODING,
    ENV_WAIT,
    QUEUED,
    ReplicaBatchView,
    ReplicaGenerationState,
    ReplicaStats,
    SequenceBatch,
)
from .environment import SimulatedEnvironment, TrajectoryFactory, difficulty_to_turns
from .replica_config import RolloutReplicaConfig

__all__ = [
    "DECODING",
    "ENV_WAIT",
    "QUEUED",
    "ReplicaBatchView",
    "ReplicaGenerationState",
    "ReplicaStats",
    "SequenceBatch",
    "SimulatedEnvironment",
    "TrajectoryFactory",
    "difficulty_to_turns",
    "RolloutReplicaConfig",
]
