"""The fleet intake against its oracle, per-replica ``add_sequences``.

A barrier's fresh replicas take their shares of the global batch through
:func:`repro.rollout.generation.add_fleet_sequences`: one check of the whole
batch, one write of each column and one admission scan segmented by replica.
Every replica must end in exactly the state that ``add_sequences`` of its
share leaves on a twin replica: every field of the engine and its KV ledger,
compared ``==`` (arrays by dtype and value), and then the same behaviour
under later intakes, removals, gathers and a drain.
"""

import copy
from array import array
from dataclasses import fields

import numpy as np
import pytest

from oracles import run_to_completion
import repro.systems.base as base
from repro.bench.registry import get_scenario
from repro.bench.runner import system_for_unit
from repro.llm import QWEN_7B
from repro.rollout import ReplicaGenerationState, RolloutReplicaConfig, SequenceBatch
from repro.rollout.generation import _SeqVector, _SlotQueue, add_fleet_sequences
from repro.sim import KVCache, KVCacheConfig
from repro.types import Prompt, Trajectory

DECODE_MODEL = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1).decode_model()

BARRIER_SYSTEMS = ("verl", "one_step", "stream_gen")


def _plain(value):
    """A field as a value ``==`` compares exactly (arrays keep their dtype)."""
    if isinstance(value, np.ndarray):
        return str(value.dtype), value.tolist()
    if isinstance(value, array):
        return value.tolist()
    if isinstance(value, (_SeqVector, _SlotQueue)):
        return {name: _plain(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, KVCache):
        return {name: _plain(field) for name, field in vars(value).items()}
    if isinstance(value, dict):
        return list(value.items())
    return value


def state(replica):
    """Every field of a replica: slot columns, trajectories, slot dict, free
    list, waiting queue, schedule pool, KV ledger, decode/env vectors, stats
    and flags."""
    return {name: _plain(value) for name, value in vars(replica).items()}


def columns(batch):
    return {field.name: _plain(getattr(batch, field.name)) for field in fields(batch)}


def assert_same_state(fleet, twins):
    for replica, twin in zip(fleet, twins):
        assert state(replica) == state(twin), replica.replica_id


def split(batch, shares):
    """Consecutive shares of ``batch`` as slices (what the loop it replaced added)."""
    bounds = np.concatenate(([0], np.cumsum(shares))).tolist()
    return [batch[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def intake_both(fleet, twins, batch, shares, twin_batch=None):
    add_fleet_sequences(fleet, batch, shares)
    for twin, rows in zip(twins, split(batch if twin_batch is None else twin_batch, shares)):
        twin.add_sequences(rows)


# --------------------------------------------------------------------------- registry geometries
def _barrier_units():
    units = []
    for scenario_id in ("datacenter_1k", "throughput_smoke", "throughput_7b_tool",
                        "tool_long_horizon"):
        units.extend(u for u in get_scenario(scenario_id).expand()
                     if u.system in BARRIER_SYSTEMS)
    return units


@pytest.mark.parametrize("unit", _barrier_units(), ids=lambda u: u.label)
def test_fleet_intake_equals_per_replica_intake_on_every_barrier_geometry(unit):
    """A barrier's global batch and fresh replicas, exactly as
    ``generate_batch_process`` builds them, land bit for bit as the
    per-replica loop landed them; the trajectories are the same objects."""
    system = system_for_unit(unit)
    batch = system.sample_global_batch(0)
    fleet = system.make_replicas(system.num_generation_replicas(), 0)
    twins = [system.workload.make_replica(r.replica_id, 0) for r in fleet]
    owner = np.arange(len(batch)) % len(fleet)
    ordered = batch.take(np.argsort(owner, kind="stable"))
    shares = np.bincount(owner, minlength=len(fleet))
    intake_both(fleet, twins, ordered, shares)
    assert_same_state(fleet, twins)
    for replica, twin in zip(fleet, twins):
        assert all(a is b for a, b in zip(replica._a_traj, twin._a_traj))


# --------------------------------------------------------------------------- seeded fleets
def random_batch(rng, count, start_id):
    """Multi-turn rows; about a third partly generated (some mid-turn) and a
    third flagged for re-prefill, with targets at or above their schedules."""
    turns = rng.integers(1, 4, size=count)
    offsets = np.concatenate(([0], np.cumsum(turns))).astype(np.int64)
    segments = rng.integers(5, 120, size=int(offsets[-1])).astype(np.int64)
    env_latencies = rng.uniform(0.5, 10.0, size=len(segments))
    env_latencies[offsets[1:] - 1] = 0.0
    prompt_tokens = rng.integers(16, 400, size=count).astype(np.int64)
    turn = np.zeros(count, dtype=np.int64)
    done_turn = np.zeros(count, dtype=np.int64)
    generated = np.zeros(count, dtype=np.int64)
    target = np.zeros(count, dtype=np.int64)
    for row in range(count):
        own = segments[offsets[row]:offsets[row + 1]]
        target[row] = int(own.sum()) + int(rng.integers(0, 3))
        if rng.random() < 0.35:
            turn[row] = rng.integers(0, len(own))
            done_turn[row] = rng.integers(0, own[turn[row]])
            generated[row] = int(own[:turn[row]].sum()) + done_turn[row]
    reprefill = rng.random(count) < 0.35
    env_return = np.where(rng.random(count) < 0.2, rng.uniform(0.0, 50.0, count), np.inf)
    trajectories = [
        Trajectory(traj_id=start_id + row,
                   prompt=Prompt(prompt_id=start_id + row, group_id=0,
                                 prompt_tokens=int(prompt_tokens[row])),
                   target_tokens=int(target[row]), generated_tokens=int(generated[row]))
        for row in range(count)
    ]
    return SequenceBatch(
        ids=np.arange(start_id, start_id + count, dtype=np.int64),
        prompt_tokens=prompt_tokens, target=target, generated=generated, turn=turn,
        done_turn=done_turn, env_return=env_return, reprefill=reprefill,
        status=np.zeros(count, dtype=np.int8), offsets=offsets, segments=segments,
        env_latencies=env_latencies, trajectories=trajectories,
    )


def random_fleet(rng, size, tight=True):
    """Twin replica lists over mixed pools and caps; ``tight`` pools leave rows
    queued and some heads that never fit (0 admissions)."""
    fleet, twins = [], []
    for replica_id in range(size):
        if tight:
            config = KVCacheConfig(total_blocks=int(rng.integers(8, 160)),
                                   block_size=int(rng.choice([8, 16])))
            cap = int(rng.integers(1, 12))
        else:
            config = KVCacheConfig(total_blocks=4096)
            cap = 64
        pair = [ReplicaGenerationState(replica_id, DECODE_MODEL, config, cap)
                for _ in range(2)]
        fleet.append(pair[0])
        twins.append(pair[1])
    return fleet, twins


def random_shares(rng, size, rows_per_replica):
    shares = rng.integers(0, rows_per_replica + 1, size=size)
    shares[rng.integers(0, size)] = 0  # at least one replica gets no rows
    return shares


@pytest.mark.parametrize("seed", range(8))
def test_fleet_intake_equals_per_replica_intake_on_seeded_fleets(seed):
    """Tight pools, concurrency caps, re-prefill and partly generated rows,
    replicas with no rows and replicas whose head never fits."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, 14))
    fleet, twins = random_fleet(rng, size)
    shares = random_shares(rng, size, 14)
    batch = random_batch(rng, int(shares.sum()), 1000 * seed)
    intake_both(fleet, twins, batch, shares)
    assert_same_state(fleet, twins)
    queued = sum(r.num_queued for r in fleet)
    decoding = sum(r.num_decoding for r in fleet)
    assert queued and decoding  # the scan both admitted and stopped


@pytest.mark.parametrize("seed", range(4))
def test_fleet_built_replicas_keep_behaving_like_their_twins(seed):
    """After the fleet intake, later intakes (into freed slots inside the
    shared columns, and past them, which grows each array out), removals,
    gathers and a full drain match the twins call for call, and no replica's
    writes reach a neighbour's slice."""
    rng = np.random.default_rng(100 + seed)
    size = int(rng.integers(2, 9))
    fleet, twins = random_fleet(rng, size, tight=False)
    shares = random_shares(rng, size, 12)
    batch = random_batch(rng, int(shares.sum()), 0)
    intake_both(fleet, twins, batch, shares, copy.deepcopy(batch))
    assert_same_state(fleet, twins)
    next_id = 10_000
    for replica, twin in zip(fleet, twins):
        take = replica.sequences().ids.tolist()[::2]
        assert columns(replica.remove_sequences(take)) == columns(twin.remove_sequences(take))
        # The first batch refills the freed slots in place, inside the shared
        # columns; the second overflows them, so every array grows out.
        for count in (len(take), int(rng.integers(1, 6))):
            extra = random_batch(rng, count, next_id)
            next_id += 100
            replica.add_sequences(extra)
            twin.add_sequences(copy.deepcopy(extra))
            assert_same_state(fleet, twins)  # neighbours included
        assert columns(replica.sequences()) == columns(twin.sequences())
    for replica, twin in zip(fleet, twins):
        duration, done = run_to_completion(replica)
        duration_twin, done_twin = run_to_completion(twin)
        assert duration == duration_twin
        assert done == done_twin
    assert_same_state(fleet, twins)


# --------------------------------------------------------------------------- checks
def _spoil_segment(batch, row):
    batch.segments[batch.offsets[row]] = 0


def _spoil_latency(batch, row):
    batch.env_latencies[batch.offsets[row]] = -1.0


def _spoil_turn(batch, row):
    batch.turn[row] = batch.offsets[row + 1] - batch.offsets[row]


def _spoil_id(batch, row):
    batch.ids[row] = batch.ids[0 if row else 1]


def _spoil_target(batch, row):
    batch.target[row] = batch.generated[row]
    batch.generated[row] += 1


@pytest.mark.parametrize("spoil, message", [
    (_spoil_segment, "segments must be positive"),
    (_spoil_latency, "env latencies must be non-negative"),
    (_spoil_turn, "turn index outside the schedule"),
    (_spoil_id, "repeats"),
    (_spoil_target, "exceed its target"),
], ids=["segment", "latency", "turn", "duplicate-id", "target"])
@pytest.mark.parametrize("where", ["first", "last"])
def test_a_bad_row_anywhere_raises_before_any_replica_is_written(spoil, message, where):
    rng = np.random.default_rng(5)
    fleet, _ = random_fleet(rng, 5)
    pristine = [state(r) for r in fleet]
    shares = np.array([3, 0, 4, 2, 5])
    batch = random_batch(rng, int(shares.sum()), 0)
    spoil(batch, 0 if where == "first" else len(batch) - 1)
    with pytest.raises(ValueError, match=message):
        add_fleet_sequences(fleet, batch, shares)
    assert [state(r) for r in fleet] == pristine


def test_the_fleet_intake_takes_only_fresh_replicas_and_whole_shares():
    rng = np.random.default_rng(6)
    fleet, _ = random_fleet(rng, 3, tight=False)
    fleet[2].add_sequences(random_batch(rng, 2, 500))
    pristine = [state(r) for r in fleet]
    batch = random_batch(rng, 6, 0)
    with pytest.raises(ValueError, match="replica 2 is not fresh"):
        add_fleet_sequences(fleet, batch, [2, 2, 2])
    stepped, _ = random_fleet(rng, 1, tight=False)
    stepped[0].advance(1.0)  # builds the decode index of an empty replica
    with pytest.raises(ValueError, match="is not fresh"):
        add_fleet_sequences(stepped, batch, [6])
    with pytest.raises(ValueError, match="split the batch"):
        add_fleet_sequences(fleet[:2], batch, [2, 3])
    assert [state(r) for r in fleet] == pristine


# --------------------------------------------------------------------------- call site
def test_one_barrier_makes_one_fleet_intake_and_no_add_sequences(monkeypatch):
    intakes = []

    def counting(replicas, batch, shares):
        intakes.append(len(batch))
        return add_fleet_sequences(replicas, batch, shares)

    def refuse(self, sequences):
        raise AssertionError("a barrier replica took a per-replica intake")

    monkeypatch.setattr(base, "add_fleet_sequences", counting)
    monkeypatch.setattr(ReplicaGenerationState, "add_sequences", refuse)
    unit = next(u for u in get_scenario("throughput_smoke").expand() if u.system == "verl")
    system = system_for_unit(unit)
    outcome = system.generate_full_batch(0)
    assert intakes == [system.config.global_batch_size]
    assert len(outcome.trajectories) == intakes[0]
