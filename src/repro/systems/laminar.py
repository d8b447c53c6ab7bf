"""Laminar: trajectory-level asynchronous RL post-training (§3-§6).

This module is the whole Laminar orchestration — the *policy*
(:class:`LaminarSystem`: placement, refill, failover, repack accounting) and
the *mechanism* (:class:`LaminarRuntime`: the discrete-event processes) that
previous revisions split across ``core/laminar.py`` and
``runtime/laminar_runtime.py``.  The runtime expresses the control flow as
four kinds of processes on one environment:

* one **fleet stepper** for every rollout replica
  (:class:`~repro.runtime.harness.FleetStepper`): wakes each replica at its
  own next internal event, pulls the newest weights from the colocated relay
  and refills with fresh prompts whenever the replica goes idle;
* a **trainer process**: waits for the experience buffer to hold a global
  batch, computes for the exact iteration time, publishes the new weights to
  the master relay, and triggers the post-update repack (§5.1);
* a **rollout-manager process**: the periodic repack check and the KVCache
  utilisation observers (Fig 9), on the configured check interval;
* a **failure process** plus one **recovery process** per outage (§3.3):
  failures land at their exact injected timestamps; a trainer failure
  interrupts the trainer process with the checkpoint-restore time as the
  interrupt cause.

Repack pulls and stall injections mutate replicas between their wake-ups;
the runtime ``touch``es the affected replicas so the stepper recomputes
their next event.  The repack path broadcasts a ``touch`` to *every* replica
(sources were emptied, destinations grew, and the shared migration stall
moved all the clocks) — that is affordable because the engine's next-event
reductions are cached against its per-replica mutation counter, so replicas
that were not actually mutated re-derive their event in O(1) instead of
re-scanning their decode batch.  ``touch`` / ``notify_refill`` / retirement
(``replica()`` returning ``None``) are the only stepping hooks used here.

Simulated time jumps from event to event (trajectory completions, trainer
updates, repack checks, failures), so trainer/failure/repack timestamps are
exact rather than aligned to simulation rounds.

:class:`LaminarNoRepack` is the registered repack ablation (Fig 16 /
Table 1): the same system with the repack mechanism disabled, as a composable
registry variant rather than a post-construction hack.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import Dict, Generator, List, Optional

import numpy as np

from ..config import SystemConfig
from ..data.partial_response_pool import PartialResponsePool
from ..metrics.results import StageBreakdown, SystemRunResult
from ..metrics.timeline import EventCounterSeries, TimeSeries
from ..rollout.generation import ReplicaGenerationState
from ..runtime.components import CompletionPipeline, RelayWeightSync
from ..runtime.harness import ReplicaFleet, _EPS
from ..sim.cluster import GPUS_PER_MACHINE
from ..sim.engine import Environment, Interrupt
from ..types import Trajectory
from .base import System, SystemCapabilities, register
from .fault_tolerance import FailureEvent, FailureInjector, FailureKind, RecoveryModel
from .rollout_manager import RolloutManager
from .staleness import StalenessTracker


@register
class LaminarSystem(System):
    """End-to-end simulator of the Laminar architecture."""

    name = "laminar"
    capabilities = SystemCapabilities(
        description="Laminar: trajectory-level asynchronous RL with relay "
                    "weight sync, repack and fault isolation",
        continuous=True,
        weight_sync="relay",
        staleness="unbounded",
        repack=True,
        fault_tolerant=True,
        default_staleness_bound=0,
        default_max_concurrency=1024,
        throughput_method="laminar_cycle",
        trace_spans=("iteration", "training", "weight_sync", "weight_pull"),
        straggler_policy="preempt_requeue",
        sync_retry="bounded_backoff",
    )

    #: Safety cap on simulated time (seconds).
    max_sim_time: float = 2.0e6

    #: Straggler slowdown factor at/above which the graceful-degradation
    #: policy preempts the machine's in-flight work and requeues it on
    #: healthy replicas instead of waiting the slowdown out (repro.faults).
    STRAGGLER_PREEMPT_FACTOR: float = 2.0

    def __init__(
        self,
        config: SystemConfig,
        failure_injector: Optional[FailureInjector] = None,
        recovery: Optional[RecoveryModel] = None,
    ) -> None:
        if config.rollout_gpus <= 0:
            raise ValueError("Laminar requires a disaggregated placement (rollout_gpus > 0)")
        super().__init__(config)
        self.relay = self.weight_sync.relay
        self.recovery = recovery or RecoveryModel()
        self.failures = failure_injector or FailureInjector(recovery=self.recovery)
        self.failures.recovery = self.recovery

        # Rollout machines and replicas.
        self.num_rollout_machines = max(1, config.rollout_gpus // GPUS_PER_MACHINE)
        self.replicas: Dict[int, ReplicaGenerationState] = {}
        self.replica_machine: Dict[int, int] = {}
        total_replicas = config.num_rollout_replicas()
        for machine in range(self.num_rollout_machines):
            for _ in range(self._replicas_per_machine()):
                if len(self.replicas) >= total_replicas:
                    break
                self._create_replica(machine_id=machine, weight_version=0)

        batch_bound = self.decode_model.batch_bound_for_latency_slack(
            context_length=int(self.task.length_dist.mean()) + 512, slack=2.0
        )
        self.manager = RolloutManager(
            c_max=self.workload.kvcache_config.c_max,
            batch_bound=max(8, batch_bound),
            repack_interval=config.repack_interval,
            recovery=self.recovery,
        )
        if not config.repack_enabled:
            self._disable_repack()
        self._per_replica_batch = self._compute_per_replica_batch()
        # Observability.
        self.generation_tokens = EventCounterSeries(name="generation_tokens")
        self.training_tokens = EventCounterSeries(name="training_tokens")
        self.kvcache_series: Dict[int, TimeSeries] = {}
        self._failure_happened = False
        self._result: Optional[SystemRunResult] = None
        # Adversarial-infrastructure state (repro.faults).
        self.straggling_machines: Dict[int, float] = {}
        self.draining_machines: set[int] = set()
        self.stragglers_handled = 0
        self.straggler_requeues = 0
        self.preemption_warnings = 0
        self.spot_preemptions = 0
        self.network_events = 0

    # ------------------------------------------------------------------ construction hooks
    def _build_pipeline(self) -> CompletionPipeline:
        self.partial_pool = PartialResponsePool()
        self.staleness = StalenessTracker()
        return CompletionPipeline(
            environment=self.environment,
            buffer=self.buffer,
            staleness=self.staleness,
            partial_pool=self.partial_pool,
        )

    def _build_weight_sync(self) -> RelayWeightSync:
        return RelayWeightSync.from_config(self.config, self.model)

    # ------------------------------------------------------------------ setup helpers
    def _disable_repack(self) -> None:
        """Turn off both repack triggers and the (now never-paid) overhead."""
        self.manager.repack_interval = float("inf")
        self.manager.batch_bound = 1
        self.manager.executor.plan_overhead = 0.0

    def _replicas_per_machine(self) -> int:
        """Rollout replicas hosted per machine.

        A machine hosts one replica per tensor-parallel group of its GPUs, but
        never more GPUs than the configuration actually allocates to rollouts
        (``rollout_gpus < 8`` means a partially-populated machine).  Initial
        placement and failure recovery must agree on this number — recovery
        used to recompute it without the ``rollout_gpus`` clamp, so a
        recovered machine could come back hosting more replicas than it
        originally did.
        """
        gpus_on_machine = min(GPUS_PER_MACHINE, self.config.rollout_gpus)
        return max(1, gpus_on_machine // self.config.rollout_tensor_parallel)

    def _create_replica(self, machine_id: int, weight_version: int) -> ReplicaGenerationState:
        replica = self.workload.make_replica(self._next_replica_id, weight_version)
        self.replicas[self._next_replica_id] = replica
        self.replica_machine[self._next_replica_id] = machine_id
        self._next_replica_id += 1
        return replica

    def _compute_per_replica_batch(self) -> int:
        """Per-replica prompt batch: saturate the KVCache with a waiting queue."""
        kv_tokens = self.workload.kvcache_config.total_tokens
        mean_reserved = self.task.length_dist.mean() + 512.0
        capacity = max(1, int(kv_tokens / mean_reserved))
        return int(min(self.config.max_concurrency_per_replica, max(capacity * 1.5, 8)))

    def _run_ahead_budget(self) -> int:
        return self.run_ahead_budget(list(self.replicas.values()), self._per_replica_batch)

    # ------------------------------------------------------------------ replica intake
    def _refill_replica(self, replica: ReplicaGenerationState, now: float) -> bool:
        """Give an idle replica a fresh prompt batch with the newest weights.

        Returns False when the run-ahead budget is exhausted (the replica's
        driver then sleeps until the trainer consumes a batch), or when the
        replica's machine is draining (spot warning, or a straggler the
        preempt-and-requeue policy took out of rotation).
        """
        if self.replica_machine[replica.replica_id] in self.draining_machines:
            return False
        budget = self._run_ahead_budget()
        if budget <= 0:
            return False
        count = min(self._per_replica_batch, budget)
        # Pull the newest weights from the colocated relay (any time, PCIe).
        machine_id = self.replica_machine[replica.replica_id]
        pull = self.weight_sync.pull(machine_id, now, replica.replica_id)
        replica.set_weight_version(max(replica.weight_version, pull.version))
        replica.inject_stall(pull.wait_time, busy=True)
        prompts = self.dataset.sample_batch(
            max(1, -(-count // self.task.group_size)), self.rng
        )[:count]
        batch = self.factory.make(prompts, weight_version=replica.weight_version,
                                  start_time=now)
        replica.add_sequences(batch)
        for trajectory in batch.trajectories:
            self.partial_pool.register(trajectory, replica.replica_id)
        return True

    # ------------------------------------------------------------------ completions
    def _handle_completions(self, completed: List[Trajectory]) -> None:
        self.pipeline.process(completed, self.trainer.weight_version)

    # ------------------------------------------------------------------ repack / failures
    def _charge_repack_overhead(self, released: List[int], overhead: float) -> None:
        if overhead <= 0:
            return
        destinations = [r for r in self.replicas.values() if not r.is_idle]
        if destinations:
            share = overhead / len(destinations)
            for replica in destinations:
                replica.inject_stall(share, busy=True)

    def _apply_rollout_failure(self, event: FailureEvent, now: float) -> float:
        """Fail a rollout machine; returns the time its replacement is up."""
        self._failure_happened = True
        failed_ids = [
            rid for rid, machine in self.replica_machine.items()
            if machine == event.target and rid in self.replicas
        ]
        self.manager.handle_machine_failure(
            event, failed_ids, self.replicas, self.partial_pool, now
        )
        for rid in failed_ids:
            self.replica_machine.pop(rid, None)
        # Relay chain rebuild is sub-second and does not block rollouts.
        self.relay.fail_machine(event.target)
        return event.time + self.recovery.rollout_recovery_time(event)

    # ------------------------------------------------------------------ degradation (repro.faults)
    def _machine_replicas(self, machine_id: int) -> List[int]:
        return [rid for rid, machine in self.replica_machine.items()
                if machine == machine_id and rid in self.replicas]

    def _drain_machine(self, machine_id: int, now: float) -> int:
        """Migrate a machine's in-flight work to healthy replicas.

        The graceful sibling of :meth:`_apply_rollout_failure`: the machine's
        replicas stay alive (and stop being refilled via
        ``draining_machines``), their sequences move to the least-loaded
        healthy replica of the same weight version (one intake per source
        replica and target, :meth:`RolloutManager.redirect`), and nothing is
        lost —
        there is no detection latency because the trigger was a warning or a
        policy decision, not a crash.
        """
        drain_ids = set(self._machine_replicas(machine_id))
        healthy = [
            replica for rid, replica in self.replicas.items()
            if rid not in drain_ids
            and self.replica_machine.get(rid) not in self.draining_machines
        ]
        if not healthy:
            return 0
        moved = 0
        for rid in sorted(drain_ids):
            batch = self.replicas[rid].remove_all()
            batch.reprefill[:] = True
            self.manager.redirect(healthy, batch, self.partial_pool)
            moved += len(batch)
        return moved

    def _apply_straggler(self, event: FailureEvent, now: float) -> tuple:
        """Degrade a machine; apply the declared straggler policy.

        Below :attr:`STRAGGLER_PREEMPT_FACTOR` the policy is *wait* (the
        slowdown is tolerated; repack keeps consolidating around it).  At or
        above it, the machine's work is preempted and requeued on healthy
        replicas and the machine drains until the slowdown clears.
        """
        machine_id = event.target
        self.straggling_machines[machine_id] = event.factor
        self.stragglers_handled += 1
        policy, moved = "wait", 0
        if (event.factor >= self.STRAGGLER_PREEMPT_FACTOR
                and machine_id not in self.draining_machines):
            moved = self._drain_machine(machine_id, now)
            self.draining_machines.add(machine_id)
            self.straggler_requeues += moved
            policy = "preempt_requeue"
        for rid in self._machine_replicas(machine_id):
            self.replicas[rid].set_slowdown(decode=event.factor, env=event.factor)
        return policy, moved

    def _clear_straggler(self, machine_id: int) -> None:
        self.straggling_machines.pop(machine_id, None)
        self.draining_machines.discard(machine_id)
        for rid in self._machine_replicas(machine_id):
            self.replicas[rid].set_slowdown(decode=1.0, env=1.0)

    def _apply_spot_warning(self, event: FailureEvent, now: float) -> int:
        """Drain a machine ahead of its announced preemption (zero loss)."""
        self.preemption_warnings += 1
        moved = self._drain_machine(event.target, now)
        self.draining_machines.add(event.target)
        return moved

    def _apply_spot_preemption(self, event: FailureEvent, now: float) -> float:
        """Reclaim a spot machine; returns when its replacement is up.

        If a warning drained it first, the failover finds empty replicas and
        loses nothing; an unwarned preemption degenerates to the crash path.
        """
        self._failure_happened = True
        self.spot_preemptions += 1
        failed_ids = self._machine_replicas(event.target)
        self.manager.handle_machine_failure(
            event, failed_ids, self.replicas, self.partial_pool, now
        )
        for rid in failed_ids:
            self.replica_machine.pop(rid, None)
        self.draining_machines.discard(event.target)
        self.straggling_machines.pop(event.target, None)
        self.relay.fail_machine(event.target)
        return event.time + self.recovery.spot_recovery_time()

    def _apply_network(self, event: FailureEvent) -> None:
        """Degraded-network events mutate the relay's link model in place."""
        self.network_events += 1
        if event.kind == FailureKind.NETWORK_DEGRADED:
            self.relay.set_bandwidth_factor(event.factor)
        elif event.kind == FailureKind.NETWORK_RESTORED:
            self.relay.set_bandwidth_factor(1.0)
        elif event.kind == FailureKind.LINK_FLAP:
            self.relay.start_flap(event.target, event.time + event.duration)

    def _recover_machine(self, machine_id: int, now: float) -> List[ReplicaGenerationState]:
        """Re-admit a machine: catch up its relay, then re-host its replicas."""
        self.relay.recover_machine(machine_id, now)
        created: List[ReplicaGenerationState] = []
        for _ in range(self._replicas_per_machine()):
            if len(self.replicas) >= self.config.num_rollout_replicas():
                break
            replica = self._create_replica(machine_id, self.trainer.weight_version)
            replica.clock = now
            created.append(replica)
        return created

    # ------------------------------------------------------------------ main loop
    def build(self, env: Environment, result: SystemRunResult,
              num_iterations: int) -> Generator:
        """Process body: spawn the runtime's processes and wait for the run
        to finish (``num_iterations`` trainer updates or the time cap)."""
        self._result = result
        runtime = LaminarRuntime(self, env)
        done = runtime.start(num_iterations)
        yield env.any_of([done, env.timeout(self.max_sim_time)])

    def run(self, num_iterations: Optional[int] = None) -> SystemRunResult:
        """Simulate ``num_iterations`` trainer updates on the event engine."""
        result = super().run(num_iterations)
        self._finalise(result.wall_clock)
        return result

    # ------------------------------------------------------------------ results
    def record_kvcache_sample(self, replica_id: int, time: float, utilization: float) -> None:
        """KVCache utilisation observer (Fig 9), fed by the manager process."""
        series = self.kvcache_series.setdefault(
            replica_id, TimeSeries(name=f"kvcache_{replica_id}")
        )
        series.record(time, utilization)

    def _finalise(self, now: float) -> None:
        result = self._result
        result.wall_clock = now
        stats = self.manager.repack_stats
        result.extras.update(
            {
                "repacks": float(stats.num_repacks),
                "replicas_released": float(stats.replicas_released),
                "trajectories_moved": float(stats.trajectories_moved),
                "repack_overhead_total": stats.total_overhead,
                "repack_overhead_mean": stats.mean_overhead(),
                "relay_mean_pull_wait": self.relay.mean_pull_wait(),
                "relay_best_pull_wait": self.relay.best_pull_wait(),
                "actor_stall_total": self.relay.total_actor_stall(),
                "max_inherent_staleness": float(self.staleness.max_staleness()),
                "mean_inherent_staleness": self.staleness.mean_staleness(),
                "failures_handled": float(len(self.manager.recovery_records)),
            }
        )
        # Adversarial-infrastructure extras only appear on runs that actually
        # saw chaos, so nominal runs keep their committed metric sets.
        if (self.stragglers_handled or self.preemption_warnings
                or self.spot_preemptions or self.network_events
                or self.relay.sync_retries):
            result.extras.update(
                {
                    "stragglers_handled": float(self.stragglers_handled),
                    "straggler_requeues": float(self.straggler_requeues),
                    "preemption_warnings": float(self.preemption_warnings),
                    "spot_preemptions": float(self.spot_preemptions),
                    "network_events": float(self.network_events),
                    "sync_retries": float(self.relay.sync_retries),
                    "retry_backoff_total": self.relay.retry_backoff_total,
                }
            )

    # -- convenience accessors ---------------------------------------------------
    def generation_rate_series(self, bucket: float = 60.0) -> TimeSeries:
        return self.generation_tokens.rate_series(bucket)

    def mean_kvcache_utilization(self) -> float:
        series = list(self.kvcache_series.values())
        if not series:
            return 0.0
        values = [v for s in series for v in s.values]
        return float(np.mean(values)) if values else 0.0


@register
class LaminarNoRepack(LaminarSystem):
    """Laminar with the repack mechanism ablated (Fig 16 / Table 1).

    The registry variant proving orchestration composability: identical
    placement, relay sync and fault model, but neither the periodic nor the
    post-update repack trigger ever fires and no repack overhead is charged.
    """

    name = "laminar_norepack"
    capabilities = SystemCapabilities(
        description="Laminar repack ablation: identical orchestration with "
                    "the repack mechanism disabled",
        continuous=True,
        weight_sync="relay",
        staleness="unbounded",
        repack=False,
        fault_tolerant=True,
        default_staleness_bound=0,
        default_max_concurrency=1024,
        placement_like="laminar",
        throughput_method="laminar_cycle",
        trace_spans=("iteration", "training", "weight_sync", "weight_pull"),
        straggler_policy="preempt_requeue",
        sync_retry="bounded_backoff",
    )

    def __init__(self, config: SystemConfig, **kwargs) -> None:
        if config.repack_enabled:
            config = dataclass_replace(config, repack_enabled=False)
        super().__init__(config, **kwargs)


class LaminarRuntime(ReplicaFleet):
    """Discrete-event main loop for one :class:`LaminarSystem` run.

    Pure mechanism: all policy (what to refill, how to score, who hosts which
    replica) stays on the system object.  The runtime shares the run's
    environment with :meth:`LaminarSystem.build`, which joins on the
    :meth:`start`-returned completion event.
    """

    def __init__(self, system: LaminarSystem, env: Environment) -> None:
        super().__init__(env)
        self.system = system
        self._num_iterations = 0
        self._trainer_ready = 0.0
        self._last_completion = 0.0
        self._tokens_seen = {rid: 0 for rid in system.replicas}
        self._trainer_process = None
        self._done = self.env.event()

    # ------------------------------------------------------------------ entry point
    def start(self, num_iterations: int):
        """Spawn the runtime's processes; returns the run-completion event."""
        env, system = self.env, self.system
        self._num_iterations = num_iterations
        for replica_id in list(system.replicas):
            self.spawn(replica_id)
        self._trainer_process = env.process(self._trainer(), name="trainer")
        env.process(self._manager(), name="rollout-manager")
        env.process(self._failures(), name="failure-injector")
        return self._done

    # ------------------------------------------------------------------ fleet hooks
    def replica(self, replica_id: int) -> Optional[ReplicaGenerationState]:
        return self.system.replicas.get(replica_id)

    def refill(self, replica: ReplicaGenerationState) -> None:
        env = self.env
        tracer = env.tracer
        if not tracer.enabled:
            self.system._refill_replica(replica, env.now)
            return
        # The refill's only clock movement is the relay pull stall, so the
        # clock delta *is* the pull wait — observed, not recomputed.
        clock_before = replica.clock
        if self.system._refill_replica(replica, env.now):
            tracer.span(f"replica-{replica.replica_id}", "weight_pull",
                        env.now, env.now + (replica.clock - clock_before),
                        args={"version": replica.weight_version})

    def on_advance(self, replica: ReplicaGenerationState, completed: List[Trajectory]) -> None:
        system = self.system
        generated = replica.stats.tokens_generated
        delta = generated - self._tokens_seen.get(replica.replica_id, 0)
        self._tokens_seen[replica.replica_id] = generated
        if delta > 0:
            system.generation_tokens.record(self.env.now, delta)
        if completed:
            system._handle_completions(completed)
            if system.buffer.can_sample(system.config.global_batch_size):
                self.notify_data()

    # ------------------------------------------------------------------ trainer
    def _trainer(self):
        env, system = self.env, self.system
        batch_size = system.config.global_batch_size
        while len(system.trainer.iterations) < self._num_iterations:
            # Idle phase: wait out any checkpoint restore, then wait for data.
            while True:
                wait = self._trainer_ready - env.now
                if wait > _EPS:
                    try:
                        yield env.timeout(wait)
                    except Interrupt as interrupt:
                        self._restore_while_idle(float(interrupt.cause))
                    continue
                if system.buffer.can_sample(batch_size):
                    break
                try:
                    yield self.data_event()
                except Interrupt as interrupt:
                    self._restore_while_idle(float(interrupt.cause))
            batch = system.buffer.sample(batch_size)
            self.notify_refill()  # run-ahead budget freed
            tokens = sum(exp.tokens for exp in batch)
            compute = system.trainer.iteration_compute_time(tokens)
            train_begin = env.now
            finish = env.now + compute
            while finish - env.now > _EPS:
                try:
                    yield env.timeout(finish - env.now)
                except Interrupt as interrupt:
                    # Trainer failure mid-iteration: the restore slips the
                    # completion of the current update (§3.3).
                    finish += float(interrupt.cause)
            # Bring every replica up to the update instant before the version
            # bump: trajectories that completed during the training window are
            # scored with the pre-update actor version.
            for replica in list(system.replicas.values()):
                self.catch_up(replica)
            # Publish to the master relay; the actor stalls only for the push.
            publication = system.weight_sync.publish(system.trainer.weight_version + 1, env.now)
            completion = env.now + publication.actor_stall
            record = system.trainer.record_iteration(batch, self._last_completion, completion)
            system.training_tokens.record(completion, record.tokens_trained)
            result = system._result
            result.iterations.append(record)
            result.breakdowns.append(
                StageBreakdown(
                    generation_time=max(0.0, record.duration - compute),
                    training_time=compute,
                    weight_sync_time=publication.actor_stall,
                )
            )
            system.record_batch_staleness(env, result, batch)
            if env.tracer.enabled:
                # The training span covers checkpoint-restore slips too (the
                # trainer really occupied its GPUs until ``finish``).
                env.tracer.span("trainer", "training", train_begin, env.now,
                                args={"tokens": tokens, "compute": compute})
                env.tracer.span("sync", "weight_sync", env.now, completion,
                                args={"mechanism": "relay",
                                      "actor_stall": publication.actor_stall})
                env.tracer.span("trainer", "iteration", record.start_time,
                                completion,
                                args={"iteration": len(result.iterations)})
            self._last_completion = completion
            # §5.1: a repack is also triggered right after each trainer update.
            self._repack(force=True)
        if not self._done.triggered:
            self._done.succeed()

    def _restore_while_idle(self, restore: float) -> None:
        self._trainer_ready = max(self._trainer_ready, self.env.now + restore)

    # ------------------------------------------------------------------ repack / manager
    def _repack(self, force: bool) -> None:
        env, system = self.env, self.system
        if not force and not system.manager.due_for_check(env.now):
            return
        for replica in list(system.replicas.values()):
            self.catch_up(replica)
        released, overhead = system.manager.maybe_repack(system.replicas, env.now, force=force)
        system._charge_repack_overhead(released, overhead)
        if released and env.tracer.enabled:
            env.tracer.span("manager", "repack", env.now, env.now + overhead,
                            args={"released": len(released),
                                  "overhead": overhead, "forced": force})
        if released:
            # Sources were emptied and destinations grew (plus the shared
            # migration stall): every sleeping driver must recompute.
            self.touch()
            self.notify_refill()

    def _manager(self):
        env, system = self.env, self.system
        while True:
            # The configured interval, not the manager's: the repack ablation
            # sets the latter to inf, and its KV observations must go on.
            # ``_repack(force=False)`` stays gated by ``due_for_check``.
            yield env.timeout(system.config.repack_interval)
            self._repack(force=False)
            self._observe_kvcache()

    def _observe_kvcache(self) -> None:
        system = self.system
        tracer = self.env.tracer
        for replica_id in list(system.replicas)[:4]:
            replica = system.replicas[replica_id]
            utilization = replica.kvcache_utilization
            system.record_kvcache_sample(replica_id, self.env.now, utilization)
            if tracer.enabled:
                tracer.counter(f"replica-{replica_id}", "kvcache_utilization",
                               self.env.now, utilization)

    # ------------------------------------------------------------------ failures
    def _failures(self):
        env, system = self.env, self.system
        while True:
            next_time = system.failures.next_failure_time()
            if next_time is None:
                return
            if next_time > env.now:
                # Absolute-time wake-up: ``timeout(next - now)`` can land a
                # float ulp *below* the injected timestamp, in which case
                # ``due(now)`` pops nothing and this loop would spin without
                # ever yielding again.
                yield env.timeout_until(next_time)
            for event in system.failures.due(env.now):
                self._apply_failure(event)

    def _apply_failure(self, event: FailureEvent) -> None:
        env, system = self.env, self.system
        if env.tracer.enabled:
            if event.kind == FailureKind.TRAINER:
                track = "trainer"
            elif event.target < 0:
                track = "network"
            else:
                track = f"machine-{event.target}"
            env.tracer.instant(track, "failure", env.now,
                               args={"kind": str(event.kind),
                                     "target": event.target})
        if event.kind == FailureKind.ROLLOUT_MACHINE:
            # Bring every replica up to the failure instant so the streamed
            # tokens in the partial response pool are exact, then fail over.
            for replica in list(system.replicas.values()):
                self.catch_up(replica)
            recovery_at = system._apply_rollout_failure(event, env.now)
            if env.tracer.enabled:
                # The recovery deadline is known the instant the failure is
                # applied, so the outage is recordable as one complete span —
                # trace analytics attributes it to the "recovery" family.
                env.tracer.span(f"machine-{event.target}", "recovery",
                                env.now, max(env.now, recovery_at),
                                args={"kind": str(event.kind)})
            env.process(
                self._recovery(recovery_at, event.target),
                name=f"recover-machine-{event.target}",
            )
            self.touch()
            self.notify_refill()
        elif event.kind == FailureKind.RELAY:
            system.relay.fail_machine(event.target)
            relay_recovery_at = event.time + system.recovery.relay_recovery_time()
            if env.tracer.enabled:
                env.tracer.span(f"machine-{event.target}", "recovery",
                                env.now, max(env.now, relay_recovery_at),
                                args={"kind": str(event.kind)})
            env.process(
                self._relay_recovery(relay_recovery_at, event.target),
                name=f"recover-relay-{event.target}",
            )
        elif event.kind == FailureKind.TRAINER:
            # The trainer restarts from its checkpoint; rollouts keep going.
            # Mid-iteration the completion slips; while idle the next
            # iteration may not start until the restore finishes.
            restore = system.recovery.trainer_recovery_time()
            if self._trainer_process is not None and self._trainer_process.is_alive:
                if env.tracer.enabled:
                    env.tracer.span("trainer", "recovery", env.now,
                                    env.now + restore,
                                    args={"kind": str(event.kind)})
                self._trainer_process.interrupt(cause=restore)
        elif event.kind == FailureKind.STRAGGLER:
            for replica in list(system.replicas.values()):
                self.catch_up(replica)
            policy, moved = system._apply_straggler(event, env.now)
            if env.tracer.enabled:
                env.tracer.instant(f"machine-{event.target}", "straggler", env.now,
                                   args={"factor": event.factor,
                                         "policy": policy, "requeued": moved})
            self.touch()
            self.notify_refill()
        elif event.kind == FailureKind.STRAGGLER_CLEAR:
            for replica in list(system.replicas.values()):
                self.catch_up(replica)
            system._clear_straggler(event.target)
            if env.tracer.enabled:
                env.tracer.instant(f"machine-{event.target}", "straggler_clear",
                                   env.now, args={})
            self.touch()
            self.notify_refill()
        elif event.kind == FailureKind.SPOT_WARNING:
            for replica in list(system.replicas.values()):
                self.catch_up(replica)
            moved = system._apply_spot_warning(event, env.now)
            if env.tracer.enabled:
                env.tracer.instant(f"machine-{event.target}", "spot_warning",
                                   env.now, args={"drained": moved,
                                                  "lead": event.duration})
            self.touch()
            self.notify_refill()
        elif event.kind == FailureKind.SPOT_PREEMPTION:
            for replica in list(system.replicas.values()):
                self.catch_up(replica)
            recovery_at = system._apply_spot_preemption(event, env.now)
            if env.tracer.enabled:
                env.tracer.span(f"machine-{event.target}", "recovery",
                                env.now, max(env.now, recovery_at),
                                args={"kind": str(event.kind)})
            env.process(
                self._recovery(recovery_at, event.target),
                name=f"recover-machine-{event.target}",
            )
            self.touch()
            self.notify_refill()
        elif event.kind in (FailureKind.NETWORK_DEGRADED,
                            FailureKind.NETWORK_RESTORED,
                            FailureKind.LINK_FLAP):
            # Pure link-model mutations: replica clocks are untouched, so no
            # catch-up or driver wake-up is needed — the next publish/pull
            # simply sees the degraded network.
            system._apply_network(event)

    def _recovery(self, at: float, machine_id: int):
        env, system = self.env, self.system
        if at - env.now > _EPS:
            yield env.timeout(at - env.now)
        created = system._recover_machine(machine_id, env.now)
        if env.tracer.enabled:
            env.tracer.instant(f"machine-{machine_id}", "recovery", env.now,
                               args={"replicas": len(created)})
        for replica in created:
            self._tokens_seen.setdefault(replica.replica_id, 0)
            self.spawn(replica.replica_id)
        self.notify_refill()

    def _relay_recovery(self, at: float, machine_id: int):
        """A relay outage rebuilds only the relay chain: the machine's rollout
        replicas never died, so no replicas may be (re)hosted here — doing so
        used to hand a concurrently-failed machine's replica budget to the
        relay's machine."""
        env, system = self.env, self.system
        if at - env.now > _EPS:
            yield env.timeout(at - env.now)
        system.relay.recover_machine(machine_id, env.now)
        if env.tracer.enabled:
            env.tracer.instant(f"machine-{machine_id}", "recovery", env.now,
                               args={"component": "relay"})
