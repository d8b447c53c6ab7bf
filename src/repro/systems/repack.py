"""Dynamic trajectory repacking (§5, Algorithm 1).

When a rollout replica is stuck on a handful of long-tail trajectories it is
barely using its GPUs (decode is memory-bound, see Fig 4) and, worse, it
cannot update to fresher weights.  The repack mechanism consolidates those
in-flight trajectories from several such replicas onto a few destination
replicas of the *same weight version*, releasing the sources to pull the
latest weights and start fresh, on-policy generation.

This module implements:

* the idleness signal (§5.2): a replica is a repack candidate when its
  KVCache utilisation is below ``C_max``, non-increasing, and its remaining
  request count is below the roofline batch bound ``B``;
* Algorithm 1 — Best-Fit trajectory consolidation — verbatim;
* :class:`RepackExecutor`, which applies a plan to live replica states and
  accounts the (small) migration overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..rollout.generation import ReplicaGenerationState


@dataclass
class ReplicaSnapshot:
    """Metrics the rollout manager collects from one replica (§5.1 step 1)."""

    replica_id: int
    weight_version: int
    #: KVCache utilisation in [0, 1] (C_used).
    kvcache_used: float
    #: KVCache utilisation at the previous observation (C_prev).
    kvcache_prev: float
    #: Number of in-flight trajectories (N_reqs).
    num_requests: int
    #: True when the replica still has waiting (unadmitted) trajectories.
    has_waiting: bool = False

    def is_candidate(self, c_max: float, batch_bound: int) -> bool:
        """Line 3 of Algorithm 1: ramp-down phase and below the batch bound."""
        if self.has_waiting or self.num_requests == 0:
            return False
        return (
            self.kvcache_used < min(c_max, self.kvcache_prev)
            and self.num_requests < batch_bound
        )


@dataclass
class RepackPlan:
    """The consolidation plan P: ordered (source, destination) replica pairs."""

    pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def sources(self) -> List[int]:
        return [s for s, _ in self.pairs]

    @property
    def destinations(self) -> List[int]:
        return sorted({d for _, d in self.pairs})

    @property
    def num_released(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)


def best_fit_consolidation(
    snapshots: Sequence[ReplicaSnapshot],
    c_max: float,
    batch_bound: int,
) -> RepackPlan:
    """Algorithm 1: Best-Fit Trajectory Consolidation.

    ``snapshots`` must all belong to the same weight-version group (§5.1 step 1
    groups replicas by version before calling the packing algorithm).
    """
    if batch_bound <= 0:
        raise ValueError("batch_bound must be positive")
    versions = {snap.weight_version for snap in snapshots}
    if len(versions) > 1:
        raise ValueError(
            f"repack operates within one weight-version group, got versions {sorted(versions)}"
        )

    # Line 3: candidate set S.
    candidates = [s for s in snapshots if s.is_candidate(c_max, batch_bound)]
    # Line 4: release the smallest KVCache footprints first.
    candidates.sort(key=lambda s: (s.kvcache_used, s.replica_id))

    plan = RepackPlan()
    emptied: set[int] = set()
    # Loads already assigned to each destination by the current plan.
    assigned_cache: Dict[int, float] = {}
    assigned_reqs: Dict[int, int] = {}
    by_id = {s.replica_id: s for s in candidates}

    def can_fit(dest: ReplicaSnapshot, src: ReplicaSnapshot) -> bool:
        cache_load = dest.kvcache_used + assigned_cache.get(dest.replica_id, 0.0)
        req_load = dest.num_requests + assigned_reqs.get(dest.replica_id, 0)
        return (
            cache_load + src.kvcache_used <= c_max
            and req_load + src.num_requests <= batch_bound
        )

    for source in candidates:
        if source.replica_id in emptied:
            continue
        valid = [
            d for d in candidates
            if d.replica_id not in emptied
            and d.replica_id != source.replica_id
            and can_fit(d, source)
        ]
        if not valid:
            continue
        # Line 11: choose the destination that becomes most densely packed.
        best = max(
            valid,
            key=lambda d: (
                d.kvcache_used + assigned_cache.get(d.replica_id, 0.0),
                -d.replica_id,
            ),
        )
        plan.pairs.append((source.replica_id, best.replica_id))
        emptied.add(source.replica_id)
        assigned_cache[best.replica_id] = (
            assigned_cache.get(best.replica_id, 0.0) + source.kvcache_used
        )
        assigned_reqs[best.replica_id] = (
            assigned_reqs.get(best.replica_id, 0) + source.num_requests
        )
    return plan


def group_by_version(snapshots: Sequence[ReplicaSnapshot]) -> Dict[int, List[ReplicaSnapshot]]:
    """§5.1 step 1: group replica snapshots by their weight version."""
    groups: Dict[int, List[ReplicaSnapshot]] = {}
    for snap in snapshots:
        groups.setdefault(snap.weight_version, []).append(snap)
    return groups


def plan_repack(
    snapshots: Sequence[ReplicaSnapshot],
    c_max: float,
    batch_bound: int,
) -> Dict[int, RepackPlan]:
    """Run Algorithm 1 independently inside every weight-version group."""
    plans: Dict[int, RepackPlan] = {}
    for version, group in group_by_version(snapshots).items():
        plan = best_fit_consolidation(group, c_max, batch_bound)
        if plan:
            plans[version] = plan
    return plans


@dataclass
class RepackStats:
    """Cumulative repack accounting (Table 1)."""

    num_repacks: int = 0
    replicas_released: int = 0
    trajectories_moved: int = 0
    total_overhead: float = 0.0

    def mean_overhead(self) -> float:
        if self.num_repacks == 0:
            return 0.0
        return self.total_overhead / self.num_repacks


class RepackExecutor:
    """Applies repack plans to live replica generation states."""

    #: Fixed control-plane overhead per executed plan (metric collection +
    #: planning + RPC fan-out); Table 1 reports 0.69 s end-to-end.
    plan_overhead: float = 0.2
    #: Per-moved-trajectory transfer overhead (tokens are already in the
    #: partial response pool; only metadata and KVCache handoff remain).
    per_trajectory_overhead: float = 0.002

    def __init__(self) -> None:
        self.stats = RepackStats()

    def execute(
        self,
        plan: RepackPlan,
        replicas: Dict[int, ReplicaGenerationState],
    ) -> float:
        """Move trajectories per ``plan``; returns the overhead charged.

        Destinations re-prefill the migrated contexts (charged to the
        destination replica), sources are left empty and free to pull new
        weights.
        """
        if not plan:
            return 0.0
        moved = 0
        for source_id, dest_id in plan.pairs:
            source = replicas.get(source_id)
            dest = replicas.get(dest_id)
            if source is None or dest is None:
                continue
            batch = source.remove_all()
            batch.reprefill[:] = True
            for trajectory in batch.trajectories:
                trajectory.repack_count += 1
            dest.add_sequences(batch)
            moved += len(batch)
        overhead = self.plan_overhead + self.per_trajectory_overhead * moved
        self.stats.num_repacks += 1
        self.stats.replicas_released += plan.num_released
        self.stats.trajectories_moved += moved
        self.stats.total_overhead += overhead
        return overhead
