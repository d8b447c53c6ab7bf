"""Failover and machine drains: one intake per source batch and target.

``RolloutManager.redirect`` places every row of a source batch before it adds
any, then hands each target its rows in one ``add_sequences`` call.  The
per-row loop it replaced (each row placed on the least-loaded same-version
replica and added on its own) is kept as ``per_row_redirect`` in
``tests/oracles.py``; these tests run a rollout-machine failure and a machine
drain both ways on identical random fleets and compare the replicas with
``==``.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles import SequenceState, TurnSchedule, per_row_redirect, to_batch
from repro.data.partial_response_pool import PartialResponsePool
from repro.experiments import make_system_config
from repro.llm import QWEN_7B
from repro.rollout import ReplicaGenerationState, RolloutReplicaConfig
from repro.sim import KVCacheConfig
from repro.systems import FailureEvent, FailureKind, LaminarSystem, RolloutManager
from repro.types import Prompt, Trajectory

DECODE_MODEL = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1).decode_model()
CONFIG = replace(make_system_config("laminar", "7B", 64, task_type="math").scaled(1 / 32),
                 num_iterations=1, warmup_iterations=0)


def make_fleet(seed: int) -> LaminarSystem:
    """A Laminar system whose fleet is replaced by random small replicas.

    Replicas sit three to a machine and hold weight versions 0-2, and each
    starts with 0-9 sequences, so equal counts (placement ties) are common.
    Their trajectories started under versions 0-3 (version 3 has no replica,
    so those rows fall back to the whole fleet).  Small KV pools keep some
    rows queued; multi-turn schedules and a few decode windows leave others
    decoding or waiting on their environment.  Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    system = LaminarSystem(CONFIG)
    system.replicas, system.replica_machine = {}, {}
    system.partial_pool = PartialResponsePool()
    next_id = 0
    for replica_id in range(int(rng.integers(6, 11))):
        replica = ReplicaGenerationState(
            replica_id=replica_id, decode_model=DECODE_MODEL,
            kvcache_config=KVCacheConfig(total_blocks=int(rng.integers(40, 90))),
            max_concurrency=int(rng.integers(3, 12)),
            weight_version=int(rng.integers(0, 3)),
        )
        states = []
        for _ in range(int(rng.integers(0, 10))):
            num_turns = int(rng.integers(1, 4))
            segments = [int(rng.integers(5, 80)) for _ in range(num_turns)]
            latencies = [float(rng.uniform(0.5, 6.0)) for _ in range(num_turns - 1)] + [0.0]
            trajectory = Trajectory(
                traj_id=next_id,
                prompt=Prompt(prompt_id=next_id, group_id=0,
                              prompt_tokens=int(rng.integers(16, 200))),
                target_tokens=sum(segments), weight_version=int(rng.integers(0, 4)),
            )
            states.append(SequenceState(
                trajectory=trajectory,
                schedule=TurnSchedule(segments=segments, env_latencies=latencies),
            ))
            next_id += 1
        if states:
            replica.add_sequences(to_batch(states))
        for _ in range(int(rng.integers(0, 4))):
            delta = replica.next_event_in()
            if delta is None:
                break
            replica.advance(delta)
        replica.drain_completed()
        system.replicas[replica_id] = replica
        system.replica_machine[replica_id] = replica_id // 3
        for trajectory in replica.sequences().trajectories:
            system.partial_pool.register(trajectory, replica_id)
    return system


def snapshot(system: LaminarSystem) -> dict:
    """Everything a migration can change, per replica and in the pool."""
    replicas = {}
    for replica_id, replica in system.replicas.items():
        batch = replica.sequences()
        kvcache = replica.kvcache
        replicas[replica_id] = {
            "columns": {name: getattr(batch, name).tolist() for name in (
                "ids", "prompt_tokens", "target", "generated", "turn", "done_turn",
                "env_return", "reprefill", "status", "offsets", "segments",
                "env_latencies")},
            "trajectories": batch.trajectories,
            "queue": replica._a_id[replica._queued.head_array(replica.num_queued)].tolist(),
            "decoding": replica._dec.ids_view().tolist(),
            "env_wait": replica._env.ids_view().tolist(),
            "stats": replica.stats,
            "kv": (kvcache.used_blocks, kvcache.peak_blocks, dict(kvcache._row_of),
                   kvcache.tokens_at(np.array(sorted(kvcache._row_of.values()),
                                              dtype=np.int64)).tolist()),
            "next_event": replica.next_event_in(),
        }
    pool = system.partial_pool
    return {
        "replicas": replicas,
        "owners": dict(pool._owner),
        "migrated": pool.total_migrated,
        "repacks": {tid: t.repack_count for tid, t in pool._entries.items()},
    }


def migrate(seed: int, how: str, per_row: bool):
    """Fail or drain one machine of ``make_fleet(seed)``; returns the
    snapshot and, per source batch, the targets of each intake call."""
    system = make_fleet(seed)
    machine = int(np.random.default_rng(seed).integers(0, 2))
    intakes = []
    original = RolloutManager.__dict__["redirect"].__func__

    def counted(healthy, batch, partial_pool):
        calls = []
        for replica in healthy:
            def add(rows, replica=replica, add=replica.add_sequences):
                calls.append((replica.replica_id, len(rows)))
                add(rows)
            replica.add_sequences = add
        try:
            (per_row_redirect if per_row else original)(healthy, batch, partial_pool)
        finally:
            for replica in healthy:
                del replica.add_sequences
        intakes.append(calls)

    saved = RolloutManager.__dict__["redirect"]
    RolloutManager.redirect = staticmethod(counted)
    try:
        if how == "failover":
            failed = [rid for rid, m in system.replica_machine.items() if m == machine]
            record = system.manager.handle_machine_failure(
                FailureEvent(time=1.0, kind=FailureKind.ROLLOUT_MACHINE, target=machine),
                failed, system.replicas, system.partial_pool, now=1.0,
            )
            moved = record.trajectories_redirected
        else:
            moved = system._drain_machine(machine, now=1.0)
    finally:
        RolloutManager.redirect = saved
    return snapshot(system), intakes, moved


@pytest.mark.parametrize("how", ["failover", "drain"])
@pytest.mark.parametrize("seed", range(8))
def test_batched_placement_equals_the_per_row_loop(seed, how):
    reference, per_row_intakes, reference_moved = migrate(seed, how, per_row=True)
    batched, intakes, moved = migrate(seed, how, per_row=False)
    assert moved == reference_moved
    assert moved == sum(rows for calls in intakes for _, rows in calls)
    # Same replica, same queue order, same admissions, stats and KV ledgers.
    assert batched == reference
    # One intake per (source batch, target) pair, carrying the rows the
    # per-row loop added to that target one at a time.
    assert len(intakes) == len(per_row_intakes)
    for calls, per_row_calls in zip(intakes, per_row_intakes):
        targets = [replica_id for replica_id, _ in calls]
        assert len(targets) == len(set(targets))
        expected = {}
        for replica_id, rows in per_row_calls:
            assert rows == 1
            expected[replica_id] = expected.get(replica_id, 0) + 1
        assert dict(calls) == expected


def test_the_fleets_exercise_ties_versions_and_every_residency():
    """The random fleets above reach the cases the placement rule has."""
    seen = set()
    for seed in range(8):
        system = make_fleet(seed)
        counts = [r.num_sequences for r in system.replicas.values()]
        versions = {r.weight_version for r in system.replicas.values()}
        if len(counts) > len(set(counts)):
            seen.add("tie")
        for replica in system.replicas.values():
            batch = replica.sequences()
            seen.update(f"status-{code}" for code in batch.status.tolist())
            if any(min(t.versions_used) not in versions for t in batch.trajectories):
                seen.add("no-same-version-pool")
    assert seen == {"tie", "status-0", "status-1", "status-2", "no-same-version-pool"}


def test_a_failed_over_row_migrates_once():
    """A rollout-machine failure raises each redirected row's
    ``repack_count`` by 1 and the pool's ``total_migrated`` by the number of
    redirected rows, as a drain does."""
    system = make_fleet(3)
    failed = [rid for rid, m in system.replica_machine.items() if m == 0]
    moving = [t for rid in failed for t in system.replicas[rid].sequences().trajectories]
    assert moving
    before = {t.traj_id: t.repack_count for t in moving}
    record = system.manager.handle_machine_failure(
        FailureEvent(time=1.0, kind=FailureKind.ROLLOUT_MACHINE, target=0),
        failed, system.replicas, system.partial_pool, now=1.0,
    )
    assert record.trajectories_redirected == len(moving)
    assert record.trajectories_lost == 0
    assert system.partial_pool.total_migrated == record.trajectories_redirected
    assert all(t.repack_count == before[t.traj_id] + 1 for t in moving)


def test_a_failure_with_no_healthy_replica_loses_its_rows():
    system = make_fleet(3)
    every = list(system.replicas)
    lost = sum(system.replicas[rid].num_sequences for rid in every)
    record = system.manager.handle_machine_failure(
        FailureEvent(time=1.0, kind=FailureKind.ROLLOUT_MACHINE, target=0),
        every, system.replicas, system.partial_pool, now=1.0,
    )
    assert (record.trajectories_redirected, record.trajectories_lost) == (0, lost)
    assert len(system.partial_pool) == 0
    assert system.partial_pool.total_migrated == 0

