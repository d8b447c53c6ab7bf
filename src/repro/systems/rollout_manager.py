"""Rollout manager: monitoring, repack triggering and failover (§3.1, §5.1).

The rollout manager runs on a CPU machine, isolated from GPU failures.  It
periodically collects progress metrics from every rollout replica, groups them
by weight version, runs the Best-Fit consolidation algorithm inside each
group, and executes the resulting plans.  It also reacts to machine failures:
the in-progress trajectories of a failed machine (safe in the partial response
pool) are redirected to healthy replicas holding the same weight version.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.partial_response_pool import PartialResponsePool
from ..rollout.generation import ReplicaGenerationState, SequenceBatch
from .fault_tolerance import FailureEvent, RecoveryModel, RecoveryRecord
from .repack import (
    RepackExecutor,
    RepackPlan,
    ReplicaSnapshot,
    RepackStats,
    plan_repack,
)


@dataclass
class RolloutManager:
    """Control-plane coordinator for all rollout replicas."""

    c_max: float = 0.99
    batch_bound: int = 512
    repack_interval: float = 5.0
    recovery: RecoveryModel = field(default_factory=RecoveryModel)
    executor: RepackExecutor = field(default_factory=RepackExecutor)
    last_check_time: float = 0.0
    recovery_records: List[RecoveryRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ monitoring
    def collect_snapshots(
        self, replicas: Dict[int, ReplicaGenerationState]
    ) -> List[ReplicaSnapshot]:
        """§5.1 step 1: gather per-replica progress metrics."""
        snapshots: List[ReplicaSnapshot] = []
        for replica_id, replica in replicas.items():
            prev = replica.prev_utilization
            current = replica.observe_utilization()
            snapshots.append(
                ReplicaSnapshot(
                    replica_id=replica_id,
                    weight_version=replica.weight_version,
                    kvcache_used=current,
                    kvcache_prev=prev,
                    num_requests=replica.num_sequences,
                    has_waiting=replica.num_queued > 0,
                )
            )
        return snapshots

    def due_for_check(self, now: float) -> bool:
        return now - self.last_check_time >= self.repack_interval - 1e-9

    # ------------------------------------------------------------------ repack
    def maybe_repack(
        self,
        replicas: Dict[int, ReplicaGenerationState],
        now: float,
        force: bool = False,
    ) -> Tuple[List[int], float]:
        """Run the repack check (periodic, or forced after a trainer update).

        Returns ``(released_replica_ids, overhead_seconds)``.
        """
        if not force and not self.due_for_check(now):
            return [], 0.0
        self.last_check_time = now
        snapshots = self.collect_snapshots(replicas)
        plans = plan_repack(snapshots, self.c_max, self.batch_bound)
        released: List[int] = []
        overhead = 0.0
        for plan in plans.values():
            overhead += self.executor.execute(plan, replicas)
            released.extend(plan.sources)
        return released, overhead

    @property
    def repack_stats(self) -> RepackStats:
        return self.executor.stats

    # ------------------------------------------------------------------ failover
    def handle_machine_failure(
        self,
        event: FailureEvent,
        failed_replica_ids: Sequence[int],
        replicas: Dict[int, ReplicaGenerationState],
        partial_pool: Optional[PartialResponsePool],
        now: float,
    ) -> RecoveryRecord:
        """Redirect the failed machine's in-flight work to healthy replicas.

        In-progress trajectories are recovered from the partial response pool
        (their streamed tokens are intact) and handed to healthy replicas with
        the same weight version; if none exists, they are re-queued on the
        least-loaded healthy replica (which re-prefixes them with its version,
        equivalent to waiting for a replacement machine but simpler to model).
        """
        detected_at = now + self.recovery.heartbeat_interval
        orphans: List[SequenceBatch] = []
        for replica_id in failed_replica_ids:
            replica = replicas.pop(replica_id, None)
            if replica is None:
                continue
            orphans.append(replica.remove_all())
        redirected = 0
        lost = 0
        healthy = list(replicas.values())
        for batch in orphans:
            if not healthy:
                lost += len(batch)
                if partial_pool is not None:
                    for trajectory in batch.trajectories:
                        partial_pool.discard(trajectory.traj_id)
                continue
            batch.reprefill[:] = True
            self.redirect(healthy, batch, partial_pool)
            redirected += len(batch)
        record = RecoveryRecord(
            event=event,
            detected_at=detected_at,
            recovered_at=event.time + self.recovery.rollout_recovery_time(event),
            trajectories_redirected=redirected,
            trajectories_lost=lost,
        )
        self.recovery_records.append(record)
        return record

    @staticmethod
    def redirect(
        healthy: List[ReplicaGenerationState],
        batch: SequenceBatch,
        partial_pool: Optional[PartialResponsePool],
    ) -> None:
        """Hand every row of ``batch`` to a healthy replica, one intake per target.

        A row goes to the replica with the fewest sequences among those
        holding the weight version it started under (``min(versions_used)``),
        or among all of ``healthy`` when none does; the counts include the
        rows already placed, and ties go to the first replica in ``healthy``
        order.  Every row is placed before any is added, then each target
        takes its rows, in batch order, in one ``add_sequences`` call.
        Admission is FIFO, so the queues, admissions and KV ledgers equal
        those of adding the rows one at a time.
        """
        counts = [replica.num_sequences for replica in healthy]
        # (count, position) min-heaps per weight version and over the whole
        # fleet.  A replica's count only grows, so an entry left behind by a
        # placement through the other heap is refreshed when it surfaces.
        pools: Dict[int, List[Tuple[int, int]]] = {}
        for index, replica in enumerate(healthy):
            pools.setdefault(replica.weight_version, []).append((counts[index], index))
        everyone = [(count, index) for index, count in enumerate(counts)]
        for heap in pools.values():
            heapq.heapify(heap)
        heapq.heapify(everyone)
        placed: List[List[int]] = [[] for _ in healthy]
        for row, trajectory in enumerate(batch.trajectories):
            heap = pools.get(min(trajectory.versions_used), everyone)
            count, index = heap[0]
            while count != counts[index]:
                heapq.heapreplace(heap, (counts[index], index))
                count, index = heap[0]
            counts[index] = count + 1
            heapq.heapreplace(heap, (count + 1, index))
            placed[index].append(row)
        trajectories = batch.trajectories
        for replica, rows in zip(healthy, placed):
            if not rows:
                continue
            replica.add_sequences(batch.take(np.array(rows, dtype=np.int64)))
            if partial_pool is not None:
                for row in rows:
                    traj_id = trajectories[row].traj_id
                    if traj_id in partial_pool:
                        partial_pool.migrate(traj_id, replica.replica_id)
