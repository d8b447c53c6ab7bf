"""Partial response pool: centrally stores in-progress trajectories.

§3.1/§3.3: every rollout streams the tokens of its in-flight trajectories to
this CPU-side pool so that a rollout-machine failure loses no work — the
rollout manager simply redirects the interrupted trajectories to healthy
replicas holding the same weight version.  The pool also backs the repack
mechanism: moving a trajectory between replicas is a metadata operation plus
a KVCache re-prefill of the already-streamed tokens on the destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..types import Trajectory


@dataclass
class PartialResponsePool:
    """Tracks every in-progress trajectory and which replica owns it."""

    _entries: Dict[int, Trajectory] = field(default_factory=dict)
    _owner: Dict[int, int] = field(default_factory=dict)
    #: Cumulative counters for observability / tests.
    total_registered: int = 0
    total_completed: int = 0
    total_migrated: int = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, traj_id: int) -> bool:
        return traj_id in self._entries

    # -- registration -----------------------------------------------------------
    def register(self, trajectory: Trajectory, replica_id: int) -> None:
        """Start tracking an in-progress trajectory owned by ``replica_id``."""
        if trajectory.traj_id in self._entries:
            raise KeyError(f"trajectory {trajectory.traj_id} already registered")
        self._entries[trajectory.traj_id] = trajectory
        self._owner[trajectory.traj_id] = replica_id
        self.total_registered += 1

    def complete(self, traj_id: int) -> Trajectory:
        """Remove a finished trajectory from the pool and return it."""
        trajectory = self._entries.pop(traj_id, None)
        if trajectory is None:
            raise KeyError(f"trajectory {traj_id} is not registered")
        self._owner.pop(traj_id, None)
        self.total_completed += 1
        return trajectory

    def discard(self, traj_id: int) -> None:
        """Drop a trajectory without completing it (e.g. evicted prompt)."""
        self._entries.pop(traj_id, None)
        self._owner.pop(traj_id, None)

    # -- ownership / migration ----------------------------------------------------
    def owner(self, traj_id: int) -> int:
        try:
            return self._owner[traj_id]
        except KeyError:
            raise KeyError(f"trajectory {traj_id} is not registered") from None

    def migrate(self, traj_id: int, new_replica_id: int) -> Trajectory:
        """Reassign an in-progress trajectory to another replica (repack/failover)."""
        trajectory = self._entries.get(traj_id)
        if trajectory is None:
            raise KeyError(f"trajectory {traj_id} is not registered")
        self._owner[traj_id] = new_replica_id
        trajectory.repack_count += 1
        self.total_migrated += 1
        return trajectory
