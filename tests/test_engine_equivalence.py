"""Bit-identity harness: vectorized engine vs the scalar reference engine.

Two engines — :class:`repro.rollout.ReplicaGenerationState` (structure-of-
arrays) and ``ScalarReplicaGenerationState`` from ``tests/oracles.py`` (the
pre-vectorization per-sequence loop) — are driven through identical event
sequences: seeded random multi-turn workloads with interleaved repack-style
pulls and re-adds, stalls, weight-version bumps, partial-rollout re-prefills
and tiny cache pools that force queueing and preemption storms.  Every
committed ``BENCH_*.json`` baseline rests on this equivalence: the vector
engine must be *bit-identical*, not approximately equal.
"""

import copy
import math

import numpy as np
import pytest

from oracles import (
    ScalarReplicaBatchView,
    ScalarReplicaGenerationState,
    SequenceState,
    TurnSchedule,
    run_to_completion,
    to_batch,
    to_states,
)
import repro.sim.kvcache as kvcache_module
from repro.llm import QWEN_7B
from repro.rollout.generation import _EPS, _FUSE_MIN_LANES
from repro.rollout import (
    DECODING,
    ENV_WAIT,
    ReplicaBatchView,
    ReplicaGenerationState,
    RolloutReplicaConfig,
)
from repro.sim import KVCacheConfig
from repro.types import Prompt, Trajectory

DECODE_MODEL = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1).decode_model()


def make_engines(blocks=512, max_concurrency=64):
    kwargs = dict(
        replica_id=0,
        decode_model=DECODE_MODEL,
        kvcache_config=KVCacheConfig(total_blocks=blocks),
        max_concurrency=max_concurrency,
    )
    return ScalarReplicaGenerationState(**kwargs), ReplicaGenerationState(**kwargs)


def make_states(seed: int, count: int, start_id: int, multi_turn=True):
    """Deterministic workload fabrication; call twice for mirrored copies
    (:func:`make_batch` for the vector engine's)."""
    rng = np.random.default_rng(seed)
    states = []
    for i in range(count):
        num_turns = int(rng.integers(1, 4)) if multi_turn else 1
        segments = [int(rng.integers(5, 120)) for _ in range(num_turns)]
        env_latencies = [float(rng.uniform(0.5, 10.0)) for _ in range(num_turns - 1)]
        env_latencies.append(0.0)
        prompt = Prompt(
            prompt_id=start_id + i, group_id=0,
            prompt_tokens=int(rng.integers(16, 256)),
        )
        trajectory = Trajectory(
            traj_id=start_id + i, prompt=prompt, target_tokens=sum(segments)
        )
        states.append(
            SequenceState(
                trajectory=trajectory,
                schedule=TurnSchedule(segments=segments, env_latencies=env_latencies),
            )
        )
    return states


def make_batch(seed: int, count: int, start_id: int, multi_turn=True):
    return to_batch(make_states(seed, count, start_id, multi_turn))


def assert_counters_identical(scalar, vector):
    """Everything observable without reading per-sequence state (so the
    vector engine writes nothing back)."""
    assert scalar.clock == vector.clock
    assert scalar._time_carry == vector._time_carry
    assert scalar.stats == vector.stats
    assert scalar.num_sequences == vector.num_sequences
    assert scalar.num_decoding == vector.num_decoding
    assert scalar.num_queued == vector.num_queued
    assert scalar.num_env_waiting == vector.num_env_waiting
    assert scalar.kvcache.used_blocks == vector.kvcache.used_blocks
    assert scalar.kvcache.peak_blocks == vector.kvcache.peak_blocks
    assert scalar.kvcache.num_sequences == vector.kvcache.num_sequences


def assert_engines_identical(scalar, vector):
    assert_counters_identical(scalar, vector)
    s_states = {s.seq_id: s for s in scalar.sequences()}
    v_states = {s.seq_id: s for s in to_states(vector.sequences())}
    assert list(s_states) == list(v_states)
    for seq_id, s in s_states.items():
        v = v_states[seq_id]
        assert s.status == v.status, seq_id
        assert s.turn_index == v.turn_index, seq_id
        assert s.tokens_done_in_turn == v.tokens_done_in_turn, seq_id
        assert s.env_return_time == v.env_return_time, seq_id
        assert s.needs_reprefill == v.needs_reprefill, seq_id
        assert s.trajectory.generated_tokens == v.trajectory.generated_tokens, seq_id
        assert s.trajectory.versions_used == v.trajectory.versions_used, seq_id
        assert s.trajectory.turns_done == v.trajectory.turns_done, seq_id
        if s.status in ("decoding", "env_wait"):
            assert (
                scalar.kvcache.sequence_tokens(seq_id)
                == vector.kvcache.sequence_tokens(seq_id)
            ), seq_id


def assert_completions_identical(scalar_done, vector_done):
    assert [t.traj_id for t in scalar_done] == [t.traj_id for t in vector_done]
    for s, v in zip(scalar_done, vector_done):
        assert s.finish_time == v.finish_time
        assert s.generated_tokens == v.generated_tokens
        assert s.turns_done == v.turns_done
        assert s.versions_used == v.versions_used
        assert s.replica_id == v.replica_id


# --------------------------------------------------------------------------- fuzz
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_fuzzed_random_workload_is_bit_identical(seed):
    """Random multi-turn workloads + pulls + stalls: step-for-step identity."""
    scalar, vector = make_engines(blocks=384, max_concurrency=48)
    op_rng = np.random.default_rng(1000 + seed)
    next_id = 0
    parked_scalar, parked_vector = [], []  # repack-pulled, waiting to re-add
    version = 0

    def add_batch(count):
        nonlocal next_id
        scalar.add_sequences(make_states(seed * 971 + next_id, count, next_id))
        vector.add_sequences(make_batch(seed * 971 + next_id, count, next_id))
        next_id += count

    add_batch(int(op_rng.integers(8, 20)))
    for _ in range(240):
        op = op_rng.random()
        if op < 0.62:  # drive to (or through) the next internal event
            delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
            assert delta_s == delta_v
            if delta_s is None:
                if not scalar.num_sequences:
                    add_batch(int(op_rng.integers(4, 12)))
                continue
            stretch = float(op_rng.uniform(0.3, 1.7))
            assert_completions_identical(
                scalar.advance(delta_s * stretch), vector.advance(delta_v * stretch)
            )
        elif op < 0.72:  # arbitrary window, unaligned with events
            window = float(op_rng.uniform(0.01, 30.0))
            assert_completions_identical(
                scalar.advance(window), vector.advance(window)
            )
        elif op < 0.80:  # repack-style pull of a random subset
            ids = [s.seq_id for s in scalar.sequences()]
            if ids:
                take = op_rng.choice(ids, size=min(len(ids), 5), replace=False)
                pulled_s = scalar.remove_sequences([int(i) for i in take])
                pulled_v = vector.remove_sequences([int(i) for i in take])
                assert [s.seq_id for s in pulled_s] == pulled_v.ids.tolist()
                for s, v in zip(pulled_s, to_states(pulled_v)):
                    assert s.trajectory.generated_tokens == v.trajectory.generated_tokens
                    assert s.tokens_done_in_turn == v.tokens_done_in_turn
                    s.needs_reprefill = True
                pulled_v.reprefill[:] = True
                parked_scalar.append(pulled_s)
                parked_vector.append(pulled_v)
        elif op < 0.86:  # migrated work returns (same replica stands in for a peer)
            for pulled_s, pulled_v in zip(parked_scalar, parked_vector):
                scalar.add_sequences(pulled_s)
                vector.add_sequences(pulled_v)
            parked_scalar, parked_vector = [], []
        elif op < 0.92:  # weight-pull / repack-overhead stall
            duration = float(op_rng.uniform(0.1, 5.0))
            busy = bool(op_rng.random() < 0.5)
            scalar.inject_stall(duration, busy=busy)
            vector.inject_stall(duration, busy=busy)
        elif op < 0.96:  # trainer update: version bump (+ sometimes re-prefill storm)
            version += 1
            scalar.set_weight_version(version)
            vector.set_weight_version(version)
            if op_rng.random() < 0.5:
                assert scalar.reprefill_all_inflight() == vector.reprefill_all_inflight()
        else:  # fresh prompts land
            add_batch(int(op_rng.integers(2, 10)))
        assert_engines_identical(scalar, vector)

    # Drain everything that is still in flight and compare the full epilogue.
    for pulled_s, pulled_v in zip(parked_scalar, parked_vector):
        scalar.add_sequences(pulled_s)
        vector.add_sequences(pulled_v)
    duration_s, done_s = run_to_completion(scalar)
    duration_v, done_v = run_to_completion(vector)
    assert duration_s == duration_v
    assert_completions_identical(
        sorted(done_s, key=lambda t: t.traj_id),
        sorted(done_v, key=lambda t: t.traj_id),
    )
    assert_engines_identical(scalar, vector)


def test_preemption_storm_is_bit_identical():
    """A cache far too small for the workload: admission/preempt churn."""
    def long_states():
        states = []
        for i in range(8):
            prompt = Prompt(prompt_id=i, group_id=0, prompt_tokens=48)
            trajectory = Trajectory(traj_id=i, prompt=prompt, target_tokens=400 + 60 * i)
            states.append(SequenceState(
                trajectory=trajectory,
                schedule=TurnSchedule.single_turn(400 + 60 * i),
            ))
        return states

    scalar, vector = make_engines(blocks=64, max_concurrency=32)
    scalar.add_sequences(long_states())
    vector.add_sequences(to_batch(long_states()))
    while scalar.num_sequences or vector.num_sequences:
        delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
        assert delta_s == delta_v
        if delta_s is None:
            break
        assert_completions_identical(scalar.advance(delta_s), vector.advance(delta_v))
        assert_engines_identical(scalar, vector)
    assert scalar.stats.preemptions > 0  # the scenario actually exercised churn


# --------------------------------------------------------------------------- env-wait index
#: Env latencies that send rows back together: at the same instant when they
#: leave the decode set in one window, or within ``_EPS`` of each other.
TIED_LATENCIES = (0.0, 5.0, 5.0 + 1e-10, 10.0)


def make_tied_states(seed: int, count: int, start_id: int):
    """Multi-turn rows whose segments end in shared windows (lengths from a
    small set) and whose env latencies come from :data:`TIED_LATENCIES`."""
    rng = np.random.default_rng(seed)
    states = []
    for i in range(count):
        num_turns = int(rng.integers(2, 6))
        segments = [int(rng.choice((8, 16, 24))) for _ in range(num_turns)]
        env_latencies = [float(rng.choice(TIED_LATENCIES)) for _ in range(num_turns - 1)]
        env_latencies.append(0.0)
        prompt = Prompt(prompt_id=start_id + i, group_id=0,
                        prompt_tokens=int(rng.integers(16, 128)))
        trajectory = Trajectory(traj_id=start_id + i, prompt=prompt,
                                target_tokens=sum(segments))
        states.append(SequenceState(
            trajectory=trajectory,
            schedule=TurnSchedule(segments=segments, env_latencies=env_latencies),
        ))
    return states


def record_env_releases(vector):
    """Wrap ``vector``'s env release; returns the list each call that moved
    rows appends the moved rows' return times to."""
    releases = []
    release = vector._release_env_returns

    def recording():
        env = vector._env
        waiting = dict(zip(env.slots.tolist(), vector._a_env[env.slots_view()].tolist()))
        release()
        left = set(env.slots.tolist())
        returned = [at for slot, at in waiting.items() if slot not in left]
        if returned:
            releases.append(returned)

    vector._release_env_returns = recording
    return releases


def env_waiting_ids(scalar):
    return [s.seq_id for s in scalar.sequences() if s.status == "env_wait"]


@pytest.mark.parametrize("disturbance", ["none", "removal", "env-slowdown"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tied_env_returns_are_bit_identical(seed, disturbance):
    """Rows returning at one instant or within ``_EPS`` of each other leave
    the env heap in env-set order, as the scalar scan releases them.  With
    ``removal``, env-waiting rows are pulled mid-drain (the index is dropped
    and rebuilt) and re-added later; with ``env-slowdown``, an env slowdown
    switches on and off mid-run.  Every step is compared with ``==``."""
    scalar, vector = make_engines(blocks=2048, max_concurrency=64)
    scalar.add_sequences(make_tied_states(seed, 40, 0))
    vector.add_sequences(to_batch(make_tied_states(seed, 40, 0)))
    releases = record_env_releases(vector)
    op_rng = np.random.default_rng(4000 + seed)
    parked, pulled_waiting, slowed = [], 0, 0
    for step in range(400):
        delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
        assert delta_s == delta_v
        if delta_s is None:
            break
        stretch = float(op_rng.choice((0.5, 1.0, 1.0, 2.5)))
        assert_completions_identical(
            scalar.advance(delta_s * stretch), vector.advance(delta_v * stretch)
        )
        assert_counters_identical(scalar, vector)
        if disturbance == "removal" and step % 9 == 4:
            waiting = env_waiting_ids(scalar)
            if waiting:
                take = waiting[::2]
                pulled_s, pulled_v = scalar.remove_sequences(take), vector.remove_sequences(take)
                assert pulled_v.ids.tolist() == take
                assert (pulled_v.status == ENV_WAIT).all()
                pulled_waiting += len(take)
                for s in pulled_s:
                    s.needs_reprefill = True
                pulled_v.reprefill[:] = True
                parked.append((pulled_s, pulled_v))
        if disturbance == "removal" and step % 9 == 8 and parked:
            pulled_s, pulled_v = parked.pop(0)
            scalar.add_sequences(pulled_s)
            vector.add_sequences(pulled_v)
        if disturbance == "env-slowdown" and step in (6, 30, 60):
            factor = {6: 1.7, 30: 1.0, 60: 2.5}[step]
            slowed += vector.num_env_waiting > 0
            scalar.set_slowdown(env=factor)
            vector.set_slowdown(env=factor)
        assert_engines_identical(scalar, vector)
    for pulled_s, pulled_v in parked:
        scalar.add_sequences(pulled_s)
        vector.add_sequences(pulled_v)
    duration_s, done_s = run_to_completion(scalar)
    duration_v, done_v = run_to_completion(vector)
    assert duration_s == duration_v
    assert_completions_identical(done_s, done_v)
    assert_engines_identical(scalar, vector)
    assert vector.stats.trajectories_completed == 40
    # The ties the index must order: several rows at one instant, and rows
    # a sub-``_EPS`` apart released together.
    assert any(len(times) >= 2 and len(set(times)) == 1 for times in releases)
    assert any(len(set(times)) >= 2 for times in releases)
    if disturbance == "removal":
        assert pulled_waiting > 0
    if disturbance == "env-slowdown":
        assert slowed > 0


def test_settled_view_hands_env_waits_to_the_engines():
    """A wide view fuses lanes holding env waits; after ``settle()`` each
    engine rebuilds its env heap from the settled env set and per-replica
    steps continue bit-identically."""
    lanes = (1.0,) * _FUSE_MIN_LANES
    scalars, vectors = make_view_fleet(21, lanes, states=make_tied_states)
    fused_views = handed_over = 0
    for _ in range(12):
        scalar_view = ScalarReplicaBatchView(scalars)
        vector_view = ReplicaBatchView(vectors)
        fused_views += vector_view.num_fused > 0
        positions = [pos for pos, r in enumerate(scalars) if r.num_sequences]
        scalar_deltas = scalar_view.next_event_in_many(positions)
        vector_deltas = vector_view.next_event_in_many(positions)
        assert scalar_deltas == vector_deltas
        dts = [d * 1.6 for d in scalar_deltas]
        for s_done, v_done in zip(scalar_view.advance_many(positions, dts),
                                  vector_view.advance_many(positions, dts)):
            assert_completions_identical(s_done, v_done)
        scalar_view.settle()
        vector_view.settle()
        handed_over += sum(vector.num_env_waiting for vector in vectors)
        for scalar, vector in zip(scalars, vectors):
            for _ in range(3):
                delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
                assert delta_s == delta_v
                if delta_s is None:
                    break
                assert_completions_identical(scalar.advance(delta_s), vector.advance(delta_v))
            assert_engines_identical(scalar, vector)
    for scalar, vector in zip(scalars, vectors):
        duration_s, done_s = run_to_completion(scalar)
        duration_v, done_v = run_to_completion(vector)
        assert duration_s == duration_v
        assert_completions_identical(done_s, done_v)
        assert_engines_identical(scalar, vector)
    assert fused_views > 0
    assert handed_over > 0


# --------------------------------------------------------------------------- degenerate windows
def degenerate_replica(engine_cls):
    replica = engine_cls(
        replica_id=0,
        decode_model=DECODE_MODEL,
        kvcache_config=KVCacheConfig(total_blocks=512),
        max_concurrency=8,
    )
    # A healthy sequence plus one whose current segment is already exhausted
    # (segment_remaining == 0, e.g. a corrupt migration): min_seg collapses to
    # zero, so every advance window is degenerate and only the epsilon-slip
    # fallback makes progress.
    healthy = make_states(11, 1, 0, multi_turn=False)
    prompt = Prompt(prompt_id=1, group_id=0, prompt_tokens=32)
    trajectory = Trajectory(traj_id=1, prompt=prompt, target_tokens=40)
    stuck = SequenceState(
        trajectory=trajectory,
        schedule=TurnSchedule.single_turn(40),
        tokens_done_in_turn=40,
    )
    states = healthy + [stuck]
    replica.add_sequences(
        to_batch(states) if engine_cls is ReplicaGenerationState else states
    )
    return replica


@pytest.mark.parametrize("engine_cls",
                         [ReplicaGenerationState, ScalarReplicaGenerationState])
def test_degenerate_window_charges_stats_bucket(engine_cls):
    """The epsilon-slip fallback must not leak simulated time (regression).

    Before the fix, each degenerate iteration advanced ``clock`` by ``_EPS``
    without charging any stats bucket, so busy + idle + env-blocked drifted
    below the clock.
    """
    replica = degenerate_replica(engine_cls)
    target = 5e-9
    replica.advance(target)
    assert replica.clock >= target - 1.1e-9  # advance stops within _EPS of target
    assert replica.clock > 0.0  # the fallback did make progress
    stats = replica.stats
    accounted = stats.decode_busy_time + stats.idle_time + stats.env_blocked_time
    assert accounted == pytest.approx(replica.clock, abs=1e-15)


def test_degenerate_window_engines_agree():
    scalar = degenerate_replica(ScalarReplicaGenerationState)
    vector = degenerate_replica(ReplicaGenerationState)
    scalar.advance(5e-9)
    vector.advance(5e-9)
    assert_engines_identical(scalar, vector)


# --------------------------------------------------------------------------- intake contract
def _tiny_pool_with_a_queue():
    """A replica holding decoding and queued sequences (the pool fits two)."""
    _, vector = make_engines(blocks=48, max_concurrency=8)
    vector.add_sequences(make_batch(5, 4, 0, multi_turn=False))
    assert vector.num_decoding and vector.num_queued
    return vector


def _observable(replica):
    batch = replica.sequences()
    return (batch.ids.tolist(), batch.status.tolist(), replica.num_queued,
            replica.num_decoding, replica.kvcache.used_blocks,
            replica.kvcache.num_sequences, replica.stats)


def _three_rows():
    """Rows 100-102; row 101 has schedule [40, 35, 25] (target 100)."""
    states = make_states(9, 3, 100)
    prompt = Prompt(prompt_id=101, group_id=0, prompt_tokens=32)
    states[1] = SequenceState(
        trajectory=Trajectory(traj_id=101, prompt=prompt, target_tokens=100),
        schedule=TurnSchedule(segments=[40, 35, 25], env_latencies=[1.0, 1.0, 0.0]),
    )
    return to_batch(states)


def _past_target(turn, done, generated):
    def spoil(batch):
        batch.turn[1], batch.done_turn[1], batch.generated[1] = turn, done, generated
    return spoil


def _set(column, index, value):
    def spoil(batch):
        getattr(batch, column)[index] = value
    return spoil


def _drop_last_latency(batch):
    batch.env_latencies = batch.env_latencies[:-1]


def _empty_schedule(batch):
    # Row 101 keeps no segment: its turn 0 is outside an empty schedule.
    lo, hi = batch.offsets[1], batch.offsets[2]
    batch.segments = np.delete(batch.segments, range(lo, hi))
    batch.env_latencies = np.delete(batch.env_latencies, range(lo, hi))
    batch.offsets[2:] -= hi - lo


def _duplicate_of_live(batch):
    batch.ids[1] = 0


@pytest.mark.parametrize("spoil, message", [
    (_set("segments", 2, 0), "segments must be positive"),
    (_set("segments", 2, -3), "segments must be positive"),
    (_set("env_latencies", 1, -1.0), "env latencies must be non-negative"),
    (_drop_last_latency, "one env latency per segment"),
    (_empty_schedule, "turn index outside the schedule"),
    (_set("turn", 1, 3), "turn index outside the schedule"),
    (_set("turn", 1, -1), "turn index outside the schedule"),
    (_set("ids", 2, 101), "repeats or is already on replica"),
    (_duplicate_of_live, "repeats or is already on replica"),
], ids=["zero-segment", "negative-segment", "negative-latency", "latency-count",
        "empty-schedule", "turn-past-end", "negative-turn", "duplicate-in-batch",
        "duplicate-of-live"])
def test_intake_checks_the_whole_batch_before_writing(spoil, message):
    """One bad row rejects the batch and leaves the replica as it was: the
    rows before it are neither registered, queued nor admitted."""
    vector = _tiny_pool_with_a_queue()
    before = _observable(vector)
    batch = _three_rows()
    spoil(batch)
    with pytest.raises(ValueError, match=message):
        vector.add_sequences(batch)
    assert _observable(vector) == before
    vector.add_sequences(_three_rows())  # the replica still takes good rows
    assert vector.num_sequences == len(before[0]) + 3


@pytest.mark.parametrize("turn_index, tokens_done, generated", [
    (0, 0, 1),    # fresh schedule, one token already generated
    (1, 0, 41),   # turn boundary, one token more than turn 0 produced
    (1, 5, 46),   # mid-turn
])
def test_intake_rejects_a_schedule_past_the_target(turn_index, tokens_done, generated):
    """The decode set never caps a counter mid-segment, so intake refuses a
    batch with a row whose generated tokens plus the tokens left in its
    schedule exceed its target, without touching the replica, and accepts
    it one token lower."""
    vector = _tiny_pool_with_a_queue()
    before = _observable(vector)
    batch = _three_rows()
    _past_target(turn_index, tokens_done, generated)(batch)
    with pytest.raises(ValueError, match="exceed its target"):
        vector.add_sequences(batch)
    assert _observable(vector) == before
    batch.generated[1] -= 1
    vector.add_sequences(batch)
    assert vector.num_sequences == len(before[0]) + 3


def test_migration_round_trip_keeps_every_column():
    """remove_sequences, then add_sequences on another replica, carries every
    column and the trajectory objects themselves; both replicas still step
    bit-identically with the oracle afterwards."""
    source_s, source_v = make_engines(blocks=384, max_concurrency=48)
    target_s, target_v = make_engines(blocks=384, max_concurrency=48)
    source_s.add_sequences(make_states(21, 20, 0))
    source_v.add_sequences(make_batch(21, 20, 0))
    target_s.add_sequences(make_states(22, 6, 500))
    target_v.add_sequences(make_batch(22, 6, 500))
    for scalar, vector in ((source_s, source_v), (target_s, target_v)):
        for _ in range(12):  # into decoding, env waits and later turns
            delta = scalar.next_event_in()
            assert delta == vector.next_event_in() and delta is not None
            assert_completions_identical(scalar.advance(delta), vector.advance(delta))
    before = source_v.sequences()
    take = before.ids[::3].tolist()
    moved_s = source_s.remove_sequences(take)
    moved = source_v.remove_sequences(take)
    rows = [before.ids.tolist().index(seq_id) for seq_id in take]
    expected = before.take(np.array(rows))
    columns = ("ids", "prompt_tokens", "target", "generated", "turn", "done_turn",
               "env_return", "reprefill", "status", "offsets", "segments", "env_latencies")
    for name in columns:
        assert getattr(moved, name).tolist() == getattr(expected, name).tolist(), name
    assert all(a is b for a, b in zip(moved.trajectories, expected.trajectories))
    assert {ENV_WAIT, DECODING} <= set(moved.status.tolist())

    target_s.add_sequences(moved_s)
    target_v.add_sequences(moved)
    after = target_v.sequences()
    position = {seq_id: row for row, seq_id in enumerate(after.ids.tolist())}
    landed = after.take(np.array([position[seq_id] for seq_id in take]))
    for name in columns:
        if name != "status":  # every row re-enters through the queue
            assert getattr(landed, name).tolist() == getattr(moved, name).tolist(), name
    assert all(a is b for a, b in zip(landed.trajectories, moved.trajectories))
    for scalar, vector in ((source_s, source_v), (target_s, target_v)):
        assert_engines_identical(scalar, vector)
        duration_s, done_s = run_to_completion(scalar)
        duration_v, done_v = run_to_completion(vector)
        assert duration_s == duration_v
        assert_completions_identical(sorted(done_s, key=lambda t: t.traj_id),
                                     sorted(done_v, key=lambda t: t.traj_id))
        assert_engines_identical(scalar, vector)


@pytest.mark.parametrize("rows", [1, 5, 100, 484])
def test_a_fresh_replica_sizes_its_state_from_its_first_batch(rows, monkeypatch):
    """Slot arrays, decode/env vectors, schedule pool and KV ledger are
    allocated once at the first batch's size: admitting it copies nothing.
    A later batch that overflows them grows them geometrically."""
    copies = []
    real = kvcache_module.grow_array

    def counting(array, capacity):
        copies.append(capacity)
        return real(array, capacity)

    monkeypatch.setattr(kvcache_module, "grow_array", counting)
    _, vector = make_engines(blocks=100_000, max_concurrency=1024)
    vector.add_sequences(make_batch(31, rows, 0))
    assert vector.num_decoding == rows
    assert copies == []
    assert len(vector._a_id) == len(vector.kvcache._tokens) == rows
    vector.add_sequences(make_batch(32, 1, rows))
    assert copies and set(copies) == {2 * rows}


# --------------------------------------------------------------------------- KVCache batch API
def test_kvcache_batch_ops_match_scalar_loop():
    from repro.sim import KVCache

    rng = np.random.default_rng(3)
    a = KVCache(KVCacheConfig(total_blocks=4096))
    b = KVCache(KVCacheConfig(total_blocks=4096))
    live = []
    for seq_id in range(24):
        tokens = int(rng.integers(1, 300))
        if a.can_allocate(tokens):
            a.allocate(seq_id, tokens)
            b.allocate(seq_id, tokens)
            live.append(seq_id)
    for _ in range(40):
        grow = rng.integers(0, 48, size=len(live)).astype(np.int64)
        for seq_id, count in zip(live, grow):
            try:
                a.append_tokens(seq_id, int(count))
            except Exception:
                pytest.skip("workload overflowed the pool; resize the test")
        b.append_tokens_many(live, grow)
        assert a.used_blocks == b.used_blocks
        assert a.peak_blocks == b.peak_blocks
        for seq_id in live:
            assert a.sequence_tokens(seq_id) == b.sequence_tokens(seq_id)
        if len(live) > 4 and rng.random() < 0.3:
            victims, live = live[-2:], live[:-2]
            freed_a = sum(a.free(v) for v in victims)
            freed_b = b.free_many(victims)
            assert freed_a == freed_b


def test_decode_step_time_many_matches_scalar():
    """The vectorized roofline prices every lane bit-identically."""
    rng = np.random.default_rng(7)
    batches = rng.integers(0, 64, size=256).astype(np.int64)
    contexts = rng.integers(0, 8192, size=256).astype(np.int64)
    contexts[0] = 0  # exercise the max(1, ctx) clamp
    batches[1] = 0   # and the empty-batch zero
    many = DECODE_MODEL.decode_step_time_many(batches, np.maximum(1, contexts))
    for batch, context, fused in zip(batches, np.maximum(1, contexts), many):
        assert fused == DECODE_MODEL.decode_step_time(int(batch), int(context))


# --------------------------------------------------------------------------- batch views
def make_view_fleet(seed: int, lanes, blocks: int = 384, states=make_states):
    """Mirrored scalar/vector replica lists; ``lanes`` gives per-lane slowdowns.

    A lane with a slowdown factor other than 1.0 is ineligible for fusion and
    must route through the per-replica fallback — the fused and fallback
    paths are exercised side by side.  A view fuses only when at least
    ``_FUSE_MIN_LANES`` lanes are eligible, so fleets that must fuse are at
    least that wide.  ``states`` fabricates each lane's ten rows.
    """
    scalars, vectors = [], []
    for replica_id, slowdown in enumerate(lanes):
        scalar, vector = make_engines(blocks=blocks, max_concurrency=24)
        scalar.add_sequences(states(seed * 131 + replica_id, 10, 1000 * replica_id))
        vector.add_sequences(to_batch(states(seed * 131 + replica_id, 10,
                                             1000 * replica_id)))
        if slowdown != 1.0:
            scalar.set_slowdown(decode=slowdown)
            vector.set_slowdown(decode=slowdown)
        scalars.append(scalar)
        vectors.append(vector)
    return scalars, vectors


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_batch_view_fuzz_is_bit_identical(seed):
    """ReplicaBatchView vs the scalar per-replica router, round for round.

    Each round stacks a fresh view over both fleets, asks a random member
    subset for its next event, advances a random stretch of it through the
    grouped kernels, settles, and compares every engine field bit for bit.
    The fleet is wide enough to fuse while most lanes are live; as lanes
    drain, later views fall below ``_FUSE_MIN_LANES`` and route every lane.
    """
    # Lane 2 straggles: permanent fallback beside the fused lanes.
    lanes = (1.0, 1.0, 1.5) + (1.0,) * (_FUSE_MIN_LANES + 1)
    scalars, vectors = make_view_fleet(seed, lanes)
    op_rng = np.random.default_rng(9000 + seed)
    next_id = 50_000
    fused_views = 0

    for round_no in range(40):
        count = int(op_rng.integers(1, len(lanes) + 1))
        positions = sorted(
            int(i) for i in op_rng.choice(len(lanes), size=count, replace=False)
        )
        scalar_view = ScalarReplicaBatchView(scalars)
        vector_view = ReplicaBatchView(vectors)
        assert not scalar_view.lane_is_fused(2)
        assert not vector_view.lane_is_fused(2)
        fused_views += vector_view.num_fused > 0
        scalar_deltas = scalar_view.next_event_in_many(positions)
        vector_deltas = vector_view.next_event_in_many(positions)
        assert scalar_deltas == vector_deltas
        stretch = float(op_rng.uniform(0.3, 1.7))
        advance_pos, dts = [], []
        for position, delta in zip(positions, scalar_deltas):
            if delta is not None:
                advance_pos.append(position)
                dts.append(delta * stretch)
        scalar_done = scalar_view.advance_many(advance_pos, dts)
        vector_done = vector_view.advance_many(advance_pos, dts)
        scalar_view.settle()
        vector_view.settle()
        for s_done, v_done in zip(scalar_done, vector_done):
            assert_completions_identical(s_done, v_done)
        for scalar, vector in zip(scalars, vectors):
            assert_engines_identical(scalar, vector)
        if round_no % 7 == 6:  # fresh work lands between rounds
            lane = int(op_rng.integers(0, len(lanes)))
            scalars[lane].add_sequences(make_states(seed + round_no, 3, next_id))
            vectors[lane].add_sequences(make_batch(seed + round_no, 3, next_id))
            next_id += 3

    # Drain to empty through the views and compare the epilogue.
    while any(r.num_sequences for r in scalars):
        positions = [i for i, r in enumerate(scalars) if r.num_sequences]
        scalar_view = ScalarReplicaBatchView(scalars)
        vector_view = ReplicaBatchView(vectors)
        scalar_deltas = scalar_view.next_event_in_many(positions)
        vector_deltas = vector_view.next_event_in_many(positions)
        assert scalar_deltas == vector_deltas
        advance_pos = [p for p, d in zip(positions, scalar_deltas) if d is not None]
        dts = [d for d in scalar_deltas if d is not None]
        if not advance_pos:
            break
        scalar_done = scalar_view.advance_many(advance_pos, dts)
        vector_done = vector_view.advance_many(advance_pos, dts)
        scalar_view.settle()
        vector_view.settle()
        for s_done, v_done in zip(scalar_done, vector_done):
            assert_completions_identical(s_done, v_done)
    for scalar, vector in zip(scalars, vectors):
        assert_engines_identical(scalar, vector)
    assert fused_views > 0


def test_batch_view_interleaves_with_direct_stepping():
    """A settled view hands the engines back intact: direct advance calls
    between view rounds continue the same float chains."""
    lanes = (1.0,) * _FUSE_MIN_LANES
    scalars, vectors = make_view_fleet(11, lanes)
    fused_views = 0
    for _ in range(10):
        scalar_view = ScalarReplicaBatchView(scalars)
        vector_view = ReplicaBatchView(vectors)
        fused_views += vector_view.num_fused > 0
        positions = [pos for pos, r in enumerate(scalars) if r.num_sequences]
        scalar_deltas = scalar_view.next_event_in_many(positions)
        vector_deltas = vector_view.next_event_in_many(positions)
        assert scalar_deltas == vector_deltas
        dts = [d * 0.9 for d in scalar_deltas]
        scalar_view.advance_many(positions, dts)
        vector_view.advance_many(positions, dts)
        scalar_view.settle()
        vector_view.settle()
        # Direct per-replica stepping between view rounds.
        for scalar, vector in zip(scalars, vectors):
            delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
            assert delta_s == delta_v
            if delta_s is not None:
                assert_completions_identical(
                    scalar.advance(delta_s * 0.5), vector.advance(delta_v * 0.5)
                )
        for scalar, vector in zip(scalars, vectors):
            assert_engines_identical(scalar, vector)
    assert fused_views > 0


@pytest.mark.parametrize("lanes, fused", [
    ((1.0,) * (_FUSE_MIN_LANES - 1), 0),
    ((1.0,) * _FUSE_MIN_LANES, _FUSE_MIN_LANES),
    ((1.5,) + (1.0,) * (_FUSE_MIN_LANES - 1), 0),  # one lane straggles
], ids=["one-short", "at-the-gate", "one-straggles"])
def test_batch_view_fuses_only_at_the_lane_gate(lanes, fused):
    """A view fuses only when at least ``_FUSE_MIN_LANES`` lanes are
    eligible; below that every lane routes to its own engine.  A full drain
    through one view, as a barrier runs it, is bit-identical to the scalar
    router either way."""
    scalars, vectors = make_view_fleet(5, lanes, blocks=4096)
    scalar_view = ScalarReplicaBatchView(scalars)
    vector_view = ReplicaBatchView(vectors)
    assert vector_view.num_fused == fused
    active = list(range(len(lanes)))
    while active:
        scalar_deltas = scalar_view.next_event_in_many(active)
        vector_deltas = vector_view.next_event_in_many(active)
        assert scalar_deltas == vector_deltas
        scalar_done = scalar_view.advance_many(active, scalar_deltas)
        vector_done = vector_view.advance_many(active, vector_deltas)
        for s_done, v_done in zip(scalar_done, vector_done):
            assert_completions_identical(s_done, v_done)
        active = [pos for pos in active if scalar_view.lane_live(pos)]
        assert active == [pos for pos in range(len(lanes)) if vector_view.lane_live(pos)]
    scalar_view.settle()
    vector_view.settle()
    for scalar, vector in zip(scalars, vectors):
        assert_completions_identical(scalar.drain_completed(), vector.drain_completed())
        assert_engines_identical(scalar, vector)


def test_kvcache_rows_stay_valid_across_frees():
    from repro.sim import KVCache

    cache = KVCache(KVCacheConfig(total_blocks=64))
    rows = {}
    for seq_id in range(6):
        rows[seq_id] = cache.allocate(seq_id, 20)
    cache.free(2)
    cache.allocate(99, 10)  # recycles a freed row, never steals a live one
    for seq_id in (0, 1, 3, 4, 5):
        assert cache.row_of(seq_id) == rows[seq_id]
        assert int(cache.tokens_at(np.array([rows[seq_id]]))[0]) == 20


# --------------------------------------------------------------------------- admission scan
@pytest.mark.parametrize("blocks", [128, 2048])
def test_deep_queue_admission_is_bit_identical(blocks):
    """A 600-deep waiting queue where only a few (128 blocks) or a few hundred
    (2048 blocks) heads fit: the widening head window admits exactly the
    FIFO prefix the scalar admit-one-recheck loop does, in the same KV row
    order, and the drain stays identical."""
    scalar, vector = make_engines(blocks=blocks, max_concurrency=1024)
    scalar.add_sequences(make_states(17, 600, 0, multi_turn=False))
    vector.add_sequences(make_batch(17, 600, 0, multi_turn=False))
    assert 0 < vector.num_decoding < 600
    assert_engines_identical(scalar, vector)
    rows_s = [scalar.kvcache.row_of(s.seq_id) for s in scalar.sequences()
              if s.status == "decoding"]
    rows_v = [vector.kvcache.row_of(s.seq_id) for s in to_states(vector.sequences())
              if s.status == "decoding"]
    assert rows_s == rows_v
    while scalar.num_sequences:
        delta_s, delta_v = scalar.next_event_in(), vector.next_event_in()
        assert delta_s == delta_v
        if delta_s is None:
            break
        assert_completions_identical(scalar.advance(delta_s), vector.advance(delta_v))
        assert_engines_identical(scalar, vector)
    assert not vector.num_sequences


# --------------------------------------------------------------------------- production scale
def registry_refill():
    """One real Laminar refill: ``throughput_7b_math`` laminar@256's per-replica
    prompt batch, decode model and KV pool, built the way ``_refill_replica``
    builds it."""
    from repro.bench.registry import get_scenario
    from repro.bench.runner import system_for_unit

    unit = next(u for u in get_scenario("throughput_7b_math").expand()
                if u.system == "laminar" and u.total_gpus == 256)
    system = system_for_unit(unit)
    count = system._per_replica_batch
    prompts = system.dataset.sample_batch(
        -(-count // system.task.group_size), system.rng
    )[:count]
    batch = system.factory.make(prompts)
    kwargs = dict(
        replica_id=0,
        decode_model=system.workload.decode_model,
        kvcache_config=system.workload.kvcache_config,
        max_concurrency=system.config.max_concurrency_per_replica,
    )
    return kwargs, batch


def service(engine, now):
    """One ``FleetStepper._service`` pass at ``now``: catch the replica up, then
    return its completions and next wake (``None`` once it is empty)."""
    done = engine.advance(now - engine.clock) if now - engine.clock > _EPS else []
    delta = engine.next_event_in()
    if delta is None:
        return done, None
    return done, now + (max(0.0, engine.clock - now) + delta)


#: Events between full comparisons in :func:`drain_in_lockstep`.
FULL_CHECK_EVERY = 150


def drain_in_lockstep(scalar, vector, disturb=lambda event: False):
    """Service both engines event by event until empty.

    Every event compares the wake times, completions and counters, none of
    which makes the vector engine write its offsets back.  Per-sequence
    state and KV rows, whose reads do, are compared only every
    ``FULL_CHECK_EVERY`` events, after a disturbance and at the end, so a
    member's offset spans up to that many windows, as in a fleet, where
    only repack, removal or a batch view writes it back.
    ``disturb(event)`` may mutate both engines at their current clock; when
    it returns True both are re-serviced there, as a fleet ``touch`` would."""
    now_s = now_v = 0.0
    events = 0
    while now_s is not None:
        done_s, now_s = service(scalar, now_s)
        done_v, now_v = service(vector, now_v)
        assert now_s == now_v
        assert_completions_identical(done_s, done_v)
        assert_counters_identical(scalar, vector)
        events += 1
        if events % FULL_CHECK_EVERY == 0:
            assert_engines_identical(scalar, vector)
        if now_s is not None and disturb(events):
            assert_engines_identical(scalar, vector)
            _, now_s = service(scalar, scalar.clock)
            _, now_v = service(vector, vector.clock)
    assert_engines_identical(scalar, vector)
    assert not vector.num_sequences
    return events


def test_registry_sized_refill_drains_bit_identically():
    """A 484-sequence refill on a 61,873-block pool, drained the way the fleet
    stepper drives it: the decode count reaches thousands of tokens per member
    and windows span many blocks, unlike the small fuzz workloads."""
    kwargs, batch = registry_refill()
    assert len(batch) == 484
    assert kwargs["kvcache_config"].total_blocks == 61_873
    scalar = ScalarReplicaGenerationState(**kwargs)
    vector = ReplicaGenerationState(**kwargs)
    scalar.add_sequences(to_states(copy.deepcopy(batch)))
    vector.add_sequences(batch)
    assert drain_in_lockstep(scalar, vector) > 400
    assert vector.stats.trajectories_completed == 484
    assert vector.stats.tokens_generated > 1_000_000


def test_registry_sized_refill_survives_pulls_and_slowdowns():
    """The same refill disturbed mid-flight: once thousands of tokens are
    decoded, a subset is pulled (repack-style), re-added with
    ``needs_reprefill``, and a straggler slowdown is toggled on and off."""
    kwargs, batch = registry_refill()
    scalar = ScalarReplicaGenerationState(**kwargs)
    vector = ReplicaGenerationState(**kwargs)
    scalar.add_sequences(to_states(copy.deepcopy(batch)))
    vector.add_sequences(batch)
    parked = []

    def pull():
        take = vector.sequences().ids[::7].tolist()
        pulled = (scalar.remove_sequences(take), vector.remove_sequences(take))
        for s in pulled[0]:
            s.needs_reprefill = True
        pulled[1].reprefill[:] = True
        parked.append(pulled)

    def readd():
        pulled_s, pulled_v = parked[0]
        scalar.add_sequences(pulled_s)
        vector.add_sequences(pulled_v)

    def slow(factor):
        def apply():
            scalar.set_slowdown(decode=factor, env=factor)
            vector.set_slowdown(decode=factor, env=factor)
        return apply

    steps = [pull, slow(1.7), readd, slow(1.0), slow(1.3), slow(1.0)]

    def disturb(event):
        if steps and vector.stats.tokens_generated > 20_000 and event % 20 == 0:
            steps.pop(0)()
            return True
        return False

    drain_in_lockstep(scalar, vector, disturb)
    assert not steps and len(parked[0][1]) > 50
    assert vector.stats.reprefill_tokens > 0
