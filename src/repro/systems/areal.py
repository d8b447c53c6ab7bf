"""AReaL-style partial-rollout baseline (Fig 3d).

Rollouts generate continuously at full concurrency (no per-iteration barrier):
every replica is stepped on its own event clock and tops itself up with fresh
prompts, and the trainer process consumes a global batch from the experience
buffer the instant enough trajectories have completed.  Whenever the actor
publishes new weights, every rollout is interrupted: all in-flight
trajectories switch to the new policy version mid-generation, which requires
rebuilding (re-prefilling) their KVCache.  A single trajectory may therefore
mix several policy versions (``Trajectory.versions_used``), the re-prefill
storm costs GPU time on every iteration, and the trajectory staleness is
unbounded.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from ..metrics.results import StageBreakdown, SystemRunResult
from ..rollout.generation import ReplicaGenerationState
from ..runtime.harness import ReplicaFleet
from ..sim.engine import Environment
from ..types import Trajectory
from .base import System, SystemCapabilities, register


class _ContinuousFleet(ReplicaFleet):
    """Fleet hooks: top-up on idle, score completions straight into the buffer.

    ``ReplicaFleet.spawn`` steps every replica from one ``FleetStepper``
    process; these hooks run once per replica wake-up.
    """

    def __init__(self, env: Environment, system: "PartialRollout") -> None:
        super().__init__(env)
        self.system = system
        self._by_id = {replica.replica_id: replica for replica in system.replicas}

    def replica(self, replica_id: int) -> Optional[ReplicaGenerationState]:
        return self._by_id.get(replica_id)

    def refill(self, replica: ReplicaGenerationState) -> None:
        self.system._top_up(replica)

    def on_advance(self, replica: ReplicaGenerationState, completed: List[Trajectory]) -> None:
        system = self.system
        if completed:
            system.score_and_buffer(completed, system.trainer.weight_version)
            if system.buffer.can_sample(system.config.global_batch_size):
                self.notify_data()
        system._top_up(replica)


@register
class PartialRollout(System):
    """Continuous generation with pause-and-sync partial rollouts (AReaL)."""

    name = "areal"
    capabilities = SystemCapabilities(
        description="AReaL partial rollout: continuous generation, "
                    "pause-and-sync weight updates, unbounded staleness",
        continuous=True,
        weight_sync="global",
        staleness="unbounded",
        default_staleness_bound=10 ** 6,
        default_max_concurrency=1024,
        throughput_method="areal_fixed_point",
        trace_spans=("iteration", "training", "weight_sync"),
    )

    def __init__(self, config) -> None:
        super().__init__(config)
        self.replicas: List[ReplicaGenerationState] = []
        self._target_inflight = 0

    # ------------------------------------------------------------------ helpers
    def _concurrency_target(self) -> int:
        """How many sequences to keep queued+in-flight per replica.

        Enough to keep the KVCache saturated (so freed space is refilled
        immediately) without building an unbounded waiting queue.
        """
        if self._target_inflight:
            return self._target_inflight
        kv_tokens = self.workload.kvcache_config.total_tokens
        mean_reserved = self.task.length_dist.mean() + 512.0
        capacity = max(1, int(kv_tokens / mean_reserved))
        self._target_inflight = min(
            self.config.max_concurrency_per_replica, int(capacity * 1.3) + 1
        )
        return self._target_inflight

    def _run_ahead_budget(self) -> int:
        return self.run_ahead_budget(self.replicas, self._concurrency_target())

    def _top_up(self, replica: ReplicaGenerationState) -> None:
        deficit = self._concurrency_target() - replica.num_sequences
        deficit = min(deficit, self._run_ahead_budget())
        if deficit <= 0:
            return
        prompts = self.dataset.sample_batch(
            max(1, -(-deficit // self.task.group_size)), self.rng
        )[:deficit]
        replica.add_sequences(self.factory.make(prompts, weight_version=replica.weight_version))

    # ------------------------------------------------------------------ main loop
    def build(self, env: Environment, result: SystemRunResult,
              num_iterations: int) -> Generator:
        tracer = env.tracer
        sync_time = self.global_sync_time()
        self.replicas = self.make_replicas(self.num_generation_replicas(), weight_version=0)
        fleet = _ContinuousFleet(env, self)
        for replica in self.replicas:
            fleet.spawn(replica.replica_id)

        total_reprefill_stall = 0.0
        for _ in range(num_iterations):
            iteration_start = env.now
            # --- wait for a global batch of completed trajectories --------------
            # The drivers score completions into the buffer as they happen; the
            # wake-up lands at the exact completion timestamp of the last
            # trajectory needed.
            while not self.buffer.can_sample(self.config.global_batch_size):
                yield fleet.data_event()
            batch = self.buffer.sample(self.config.global_batch_size)
            fleet.notify_refill()  # run-ahead budget freed
            tokens = sum(exp.tokens for exp in batch)
            train_time = self.trainer.iteration_compute_time(tokens)

            # Generation continues (the drivers keep running) while the actor
            # computes its update.  Bring every replica up to the update
            # instant *before* recording it, so trajectories that completed
            # during the training window are scored with the pre-update
            # actor version.
            train_start = env.now
            yield env.timeout(train_time)
            for replica in self.replicas:
                fleet.catch_up(replica)
            record = self.trainer.record_iteration(batch, iteration_start, env.now)

            # --- partial rollout: interrupt, sync weights, re-prefill -----------
            reprefill_stall = 0.0
            for replica in self.replicas:
                replica.inject_stall(sync_time, busy=False)
                reprefill_stall += replica.reprefill_all_inflight()
                replica.set_weight_version(self.trainer.weight_version)
            fleet.touch()  # stalled replicas: drivers recompute their next event
            total_reprefill_stall += reprefill_stall

            result.iterations.append(record)
            result.breakdowns.append(
                StageBreakdown(
                    generation_time=record.duration,
                    training_time=train_time,
                    weight_sync_time=sync_time,
                    bubble_time=reprefill_stall / max(1, len(self.replicas)),
                )
            )
            self.record_batch_staleness(env, result, batch)
            result.extras["mixed_version_fraction"] = float(
                np.mean([exp.trajectory.mixed_versions for exp in batch])
            )
            if tracer.enabled:
                tracer.span("trainer", "training", train_start,
                            train_start + train_time, args={"tokens": tokens})
                tracer.span("sync", "weight_sync", env.now, env.now + sync_time,
                            args={"mechanism": "pause_and_sync"})
                tracer.instant("rollout", "reprefill", env.now,
                               args={"stall": reprefill_stall})
                tracer.span("trainer", "iteration", iteration_start, env.now,
                            args={"iteration": len(result.iterations)})
        # The pause-and-sync stall of the final update is still outstanding on
        # the replica clocks; the run ends at the last update completion.
        result.extras["global_sync_time"] = sync_time
        result.extras["total_reprefill_stall"] = total_reprefill_stall
