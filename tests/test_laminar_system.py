"""Tests for Laminar's core: repack (Algorithm 1), relays, staleness, failover,
and the end-to-end LaminarSystem."""

from dataclasses import replace

import numpy as np
import pytest

from repro.systems import (
    FailureEvent,
    FailureInjector,
    FailureKind,
    LaminarSystem,
    RecoveryModel,
    RelayService,
    RepackExecutor,
    ReplicaSnapshot,
    RolloutManager,
    StalenessTracker,
    best_fit_consolidation,
    broadcast_breakdown,
    broadcast_latency,
    figure18_series,
    plan_repack,
    rollout_wait_comparison,
)
from repro.experiments import make_system_config
from repro.llm import QWEN_7B, QWEN_32B, QWEN_72B
from repro.types import Prompt, Trajectory


# --------------------------------------------------------------------------- Algorithm 1
def snap(rid, used, prev, reqs, version=0, waiting=False):
    return ReplicaSnapshot(replica_id=rid, weight_version=version, kvcache_used=used,
                           kvcache_prev=prev, num_requests=reqs, has_waiting=waiting)


def test_best_fit_consolidates_underutilised_replicas():
    snapshots = [
        snap(0, 0.10, 0.20, 10),
        snap(1, 0.15, 0.30, 12),
        snap(2, 0.20, 0.40, 20),
        snap(3, 0.95, 0.99, 200, waiting=True),  # busy replica: not a candidate
    ]
    plan = best_fit_consolidation(snapshots, c_max=0.99, batch_bound=128)
    assert plan.num_released >= 2
    assert 3 not in plan.sources and 3 not in plan.destinations
    # Sources are released in ascending KVCache order (smallest footprint first).
    assert plan.sources[0] == 0


def test_best_fit_respects_cache_and_request_bounds():
    snapshots = [snap(0, 0.6, 0.7, 100), snap(1, 0.6, 0.7, 100)]
    # Together they would exceed the request bound, so no consolidation.
    plan = best_fit_consolidation(snapshots, c_max=0.99, batch_bound=150)
    assert plan.num_released == 0
    # Raise the bound and they consolidate.
    plan = best_fit_consolidation(snapshots, c_max=1.3, batch_bound=400)
    assert plan.num_released == 1


def test_best_fit_prefers_densest_destination():
    snapshots = [snap(0, 0.05, 0.1, 5), snap(1, 0.50, 0.6, 50), snap(2, 0.30, 0.4, 30)]
    plan = best_fit_consolidation(snapshots, c_max=0.99, batch_bound=500)
    # Replica 0 (smallest) is packed into replica 1 (densest that still fits).
    assert plan.pairs[0] == (0, 1)


def test_plan_repack_groups_by_version():
    snapshots = [snap(0, 0.1, 0.2, 5, version=3), snap(1, 0.1, 0.2, 5, version=3),
                 snap(2, 0.1, 0.2, 5, version=4), snap(3, 0.1, 0.2, 5, version=4)]
    plans = plan_repack(snapshots, c_max=0.99, batch_bound=100)
    assert set(plans) == {3, 4}
    for version, plan in plans.items():
        for source, dest in plan.pairs:
            source_version = [s for s in snapshots if s.replica_id == source][0].weight_version
            dest_version = [s for s in snapshots if s.replica_id == dest][0].weight_version
            assert source_version == dest_version == version


def test_best_fit_rejects_mixed_version_group():
    with pytest.raises(ValueError):
        best_fit_consolidation([snap(0, 0.1, 0.2, 5, version=1), snap(1, 0.1, 0.2, 5, version=2)],
                               c_max=0.99, batch_bound=64)


def test_candidate_condition_matches_paper_line3():
    c_max, bound = 0.99, 64
    assert snap(0, 0.5, 0.6, 10).is_candidate(c_max, bound)
    assert not snap(0, 0.5, 0.4, 10).is_candidate(c_max, bound)   # utilisation increasing
    assert not snap(0, 0.995, 1.0, 10).is_candidate(c_max, bound)  # above C_max
    assert not snap(0, 0.5, 0.6, 65).is_candidate(c_max, bound)    # too many requests
    assert not snap(0, 0.5, 0.6, 10, waiting=True).is_candidate(c_max, bound)


# --------------------------------------------------------------------------- relays
def test_relay_publish_and_pull_semantics():
    relay = RelayService(QWEN_32B, rollout_machine_ids=[0, 1, 2, 3], rollout_tensor_parallel=4)
    publication = relay.publish(1, time=100.0)
    assert publication.actor_stall < 5.0  # the actor barely stalls (§8.3)
    assert publication.master_available_at < publication.broadcast_complete_at
    # Just after publication only the master machine has version 1.
    t = publication.master_available_at + 1e-6
    assert relay.available_version(0, t) == 1
    assert relay.available_version(3, t) in (0, 1)
    # After the broadcast completes every machine sees version 1.
    t_done = publication.broadcast_complete_at + 1e-6
    assert all(relay.available_version(m, t_done) == 1 for m in range(4))
    # Pulls never block on the broadcast: they return the resident version.
    record = relay.pull_latency(3, publication.master_available_at + 1e-6, replica_id=9)
    assert record.local_hit
    assert record.wait_time < 1.0
    assert relay.mean_pull_wait() > 0


def test_relay_versions_must_be_published_in_order():
    relay = RelayService(QWEN_7B, [0], 1)
    relay.publish(1, 0.0)
    with pytest.raises(ValueError):
        relay.publish(3, 1.0)
    with pytest.raises(ValueError):
        relay.publish(1, 1.0)


def test_relay_failover_and_master_reelection():
    relay = RelayService(QWEN_7B, [0, 1, 2], 1)
    repair = relay.fail_machine(0)  # the master
    assert repair <= 2.0
    assert relay.master_machine == 1
    assert relay.master_failovers == 1
    relay.publish(1, 10.0)
    catch_up = relay.recover_machine(0, 50.0)
    assert catch_up >= 50.0
    assert relay.available_version(0, catch_up + 1e-6) == 1


def test_relay_publish_rides_out_a_link_flap_with_bounded_backoff():
    """A flapping non-master link delays only that machine's arrival, by
    exactly the retry policy's backoff through the remaining outage."""
    machines, flapping = [0, 1, 2, 3], 2
    nominal = RelayService(QWEN_32B, machines, 4).publish(1, time=100.0).available_at
    relay = RelayService(QWEN_32B, machines, 4)
    relay.start_flap(flapping, until=nominal[flapping] + 3.0)
    outage = relay.flap_remaining(flapping, nominal[flapping])
    wait, retries = relay.retry_policy.wait_through(outage)
    assert outage > 0.0 and retries > 0
    before_retries, before_wait = relay.sync_retries, relay.retry_backoff_total
    arrival = relay.publish(1, time=100.0).available_at
    assert arrival[flapping] == nominal[flapping] + wait
    assert relay.sync_retries == before_retries + retries
    assert relay.retry_backoff_total == before_wait + wait
    for machine in machines:
        if machine != flapping:
            assert arrival[machine] == nominal[machine]


# --------------------------------------------------------------------------- broadcast model
def test_broadcast_latency_matches_paper_magnitude():
    """Fig 18 / §4.2: a 72B broadcast to ~128 relays takes a couple of seconds."""
    latency = broadcast_latency(QWEN_72B, 128)
    assert 1.0 < latency < 6.0
    series = figure18_series(QWEN_32B)
    assert series[128] < 2 * series[4] + 1.0  # near-constant in machine count


def test_broadcast_breakdown_dominated_by_bandwidth_term():
    breakdown = broadcast_breakdown(QWEN_72B, 128)
    assert breakdown.bandwidth_term > 10 * breakdown.latency_term
    assert breakdown.bandwidth_term > breakdown.pipeline_term


def test_rollout_wait_comparison_laminar_beats_gpu_direct():
    comparison = rollout_wait_comparison(QWEN_32B, rollout_gpus=256, rollout_tensor_parallel=4)
    assert comparison["laminar_best"] < comparison["laminar_mean"] < comparison["gpu_direct"]


# --------------------------------------------------------------------------- staleness tracker
def test_staleness_tracker_distribution_and_buckets():
    tracker = StalenessTracker()
    prompt = Prompt(prompt_id=0, group_id=0, prompt_tokens=10)
    for i, (version, finish) in enumerate([(0, 10.0), (0, 130.0), (1, 260.0), (3, 400.0)]):
        trajectory = Trajectory(traj_id=i, prompt=prompt, target_tokens=5, weight_version=version)
        trajectory.advance(5, version)
        trajectory.finish_time = finish
        tracker.record(trajectory, actor_version_at_finish=3)
    dist = tracker.distribution()
    assert sum(dist.values()) == pytest.approx(1.0)
    assert tracker.max_staleness() == 3
    assert tracker.fraction_at_most(3) == 1.0
    buckets = tracker.by_finish_time_bucket(bucket_seconds=120.0)
    assert len(buckets) >= 3


# --------------------------------------------------------------------------- failure injection
def test_failure_injector_fires_in_order():
    injector = FailureInjector()
    injector.add(FailureEvent(time=50.0, kind=FailureKind.ROLLOUT_MACHINE, target=1))
    injector.add(FailureEvent(time=10.0, kind=FailureKind.RELAY, target=0))
    assert injector.next_failure_time() == 10.0
    assert [e.kind for e in injector.due(20.0)] == [FailureKind.RELAY]
    assert injector.due(20.0) == []
    assert [e.target for e in injector.due(60.0)] == [1]
    assert len(injector.fired) == 2


def test_recovery_model_latencies():
    model = RecoveryModel()
    event = FailureEvent(time=0.0, kind=FailureKind.ROLLOUT_MACHINE, target=0)
    slow = model.rollout_recovery_time(event)
    fast = model.rollout_recovery_time(replace(event, reinit_succeeds=True))
    assert fast < slow
    assert model.relay_recovery_time() < 1.0


# --------------------------------------------------------------------------- end-to-end Laminar
@pytest.fixture(scope="module")
def small_laminar_result():
    config = make_system_config("laminar", "7B", 32, task_type="math").scaled(1 / 32)
    config = replace(config, num_iterations=4, warmup_iterations=1)
    system = LaminarSystem(config)
    result = system.run()
    return system, result


def test_laminar_completes_requested_iterations(small_laminar_result):
    system, result = small_laminar_result
    assert len(result.iterations) == 4
    assert result.throughput(1) > 0
    assert result.wall_clock > 0


def test_laminar_staleness_is_small_and_emergent(small_laminar_result):
    system, result = small_laminar_result
    # §6 / Fig 10: inherent staleness stays small without any configured bound.
    assert result.extras["max_inherent_staleness"] <= 8
    assert system.staleness.fraction_at_most(4) > 0.5


def test_laminar_trajectories_use_single_policy_version(small_laminar_result):
    """Unlike partial rollout, Laminar never mixes policy versions in a trajectory."""
    system, result = small_laminar_result
    assert all(not exp.trajectory.mixed_versions for exp in system.buffer.peek_all())


def test_laminar_relay_and_actor_overheads_are_small(small_laminar_result):
    system, result = small_laminar_result
    assert result.extras["relay_mean_pull_wait"] < 2.0
    # Actor stall per update is well under a couple of seconds for a 7B model.
    per_update = result.extras["actor_stall_total"] / max(1, len(result.iterations))
    assert per_update < 2.0


def test_laminar_requires_disaggregated_placement():
    config = make_system_config("verl", "7B", 32)
    with pytest.raises(ValueError):
        LaminarSystem(replace(config, system="laminar"))


def test_laminar_survives_rollout_machine_failure():
    config = make_system_config("laminar", "7B", 64, task_type="math").scaled(1 / 32)
    config = replace(config, num_iterations=12, warmup_iterations=0)
    injector = FailureInjector()
    injector.add(FailureEvent(time=15.0, kind=FailureKind.ROLLOUT_MACHINE, target=0))
    system = LaminarSystem(config, failure_injector=injector)
    result = system.run()
    assert len(result.iterations) == 12  # training continued through the failure
    assert result.extras["failures_handled"] == 1.0
    record = system.manager.recovery_records[0]
    assert record.trajectories_lost == 0 or record.trajectories_redirected >= 0
    assert record.downtime > 0


def test_relay_outage_does_not_rehost_a_failed_machines_replicas():
    """A relay recovery rebuilds only the relay chain.  With a rollout-machine
    outage in flight, the relay's (earlier-finishing) recovery must not hand
    the dead machine's replica budget to the relay's machine — the replicas
    come back only when the failed machine itself recovers."""
    config = make_system_config("laminar", "7B", 64, task_type="math").scaled(1 / 32)
    config = replace(config, num_iterations=12, warmup_iterations=0)
    injector = FailureInjector()
    injector.add(FailureEvent(time=15.0, kind=FailureKind.ROLLOUT_MACHINE, target=0))
    injector.add(FailureEvent(time=16.0, kind=FailureKind.RELAY, target=1))
    system = LaminarSystem(config, failure_injector=injector)
    failed_count = len(
        [rid for rid, machine in system.replica_machine.items() if machine == 0]
    )
    per_machine_cap = system._replicas_per_machine()
    result = system.run()
    assert len(result.iterations) == 12
    # The relay's quick recovery must not have re-hosted machine 0's replica
    # budget on machine 1: no machine ever hosts more than its own share, and
    # machine 0's replicas return only via its own recovery (or not at all if
    # the run ends first).
    per_machine = {}
    for machine in system.replica_machine.values():
        per_machine[machine] = per_machine.get(machine, 0) + 1
    assert all(count <= per_machine_cap for count in per_machine.values())
    assert per_machine.get(0, 0) in (0, failed_count)
    # The relay chain itself did come back.
    assert system.relay.latest_version() >= 1


def _trainer_failure_run(failure_time=None, num_iterations=2):
    config = make_system_config("laminar", "7B", 64, task_type="math").scaled(1 / 32)
    config = replace(config, num_iterations=num_iterations, warmup_iterations=1)
    injector = FailureInjector()
    if failure_time is not None:
        injector.add(FailureEvent(time=failure_time, kind=FailureKind.TRAINER, target=0))
    system = LaminarSystem(config, failure_injector=injector)
    return system, system.run()


def test_trainer_failure_while_idle_charges_checkpoint_restore():
    """Regression: an idle-trainer failure used to be a no-op; the checkpoint
    restore must delay the next iteration in both the busy and idle cases."""
    _, baseline = _trainer_failure_run(None)
    system, failed = _trainer_failure_run(failure_time=1.0)  # buffer still filling: idle
    restore = system.recovery.trainer_recovery_time()
    delay = failed.iterations[0].end_time - baseline.iterations[0].end_time
    # The first update cannot complete before the restore finishes...
    assert failed.iterations[0].end_time >= 1.0 + restore
    # ... and the charged delay is on the order of the restore time.
    assert delay > restore / 2
    # Rollouts keep generating through the outage and training still finishes.
    assert len(failed.iterations) == len(baseline.iterations)


def test_trainer_failure_while_busy_delays_completion():
    _, baseline = _trainer_failure_run(None)
    busy_at = baseline.iterations[0].end_time - 0.5  # mid first iteration
    system, failed = _trainer_failure_run(failure_time=busy_at)
    restore = system.recovery.trainer_recovery_time()
    delay = failed.iterations[0].end_time - baseline.iterations[0].end_time
    assert delay >= restore - 1.0


def test_recovered_machine_hosts_original_replica_count():
    """Regression: recovery recomputed replicas-per-machine as ``8 // TP``,
    ignoring the ``min(gpus_per_machine, rollout_gpus)`` clamp used at
    construction — a machine with fewer than 8 rollout GPUs could come back
    hosting more replicas than it originally did.  Placement and recovery now
    share one helper."""
    from repro.config import SystemConfig
    from repro.llm import fsdp_trainer_config

    config = SystemConfig(
        system="laminar",
        model_size="7B",
        task_type="math",
        trainer_gpus=8,
        rollout_gpus=4,  # partially-populated machine: the clamp matters
        rollout_tensor_parallel=1,
        trainer_parallel=fsdp_trainer_config(8, 8),
        global_batch_size=64,
        num_prompts_per_batch=4,
        num_minibatches=4,
        num_iterations=1,
        warmup_iterations=0,
    )
    system = LaminarSystem(config)
    # The helper applies the clamp: 4 GPUs / TP=1 gives 4, not 8 // TP = 8.
    assert system._replicas_per_machine() == 4
    assert len(system.replicas) == 4

    # Full failure + recovery cycle on a two-machine fleet: the recovered
    # machine must host exactly what it hosted before, never more.
    config = make_system_config("laminar", "7B", 64, task_type="math").scaled(1 / 32)
    config = replace(config, num_iterations=1, warmup_iterations=0)
    system = LaminarSystem(config)
    hosted_before = sum(1 for m in system.replica_machine.values() if m == 0)
    assert hosted_before == system._replicas_per_machine()
    event = FailureEvent(time=10.0, kind=FailureKind.ROLLOUT_MACHINE, target=0)
    system._apply_rollout_failure(event, now=10.0)
    assert all(system.replica_machine.get(rid) != 0 for rid in system.replicas)
    system._recover_machine(0, now=300.0)
    hosted_after = sum(1 for m in system.replica_machine.values() if m == 0)
    assert hosted_after == hosted_before
    assert len(system.replicas) == config.num_rollout_replicas()


def test_rollout_manager_repack_executes_on_live_replicas():
    manager = RolloutManager(c_max=0.99, batch_bound=64, repack_interval=5.0)
    config = make_system_config("laminar", "7B", 32).scaled(1 / 32)
    system = LaminarSystem(replace(config, num_iterations=1, warmup_iterations=0))
    # Build a synthetic two-replica situation in ramp-down.
    replicas = {rid: replica for rid, replica in list(system.replicas.items())[:2]}
    for replica in replicas.values():
        replica.observe_utilization()
    released, overhead = manager.maybe_repack(replicas, now=10.0, force=True)
    assert isinstance(released, list)
    assert overhead >= 0.0
