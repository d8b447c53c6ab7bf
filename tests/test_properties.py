"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms import group_normalized_advantages
from repro.data import ExperienceBuffer
from repro.llm import DecodeModel, QWEN_7B, QWEN_32B
from oracles import SequenceState, TurnSchedule, to_batch
from repro.rollout import ReplicaGenerationState, RolloutReplicaConfig
from repro.sim import KVCache, KVCacheConfig, KVCacheError
from repro.sim.network import (
    RDMA_LINK,
    chain_pipelined_broadcast_time,
    optimal_chain_broadcast_time,
)
from repro.types import Prompt, Trajectory


# --------------------------------------------------------------------------- KVCache
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 400), st.integers(0, 400)),
        min_size=1, max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_kvcache_accounting_invariants(ops):
    """used + free == total, utilisation in [0,1], blocks consistent with tokens."""
    cache = KVCache(KVCacheConfig(total_blocks=200, block_size=16))
    live = {}
    for seq_id, alloc_tokens, grow_tokens in ops:
        if seq_id in live:
            try:
                cache.append_tokens(seq_id, grow_tokens)
                live[seq_id] += grow_tokens
            except KVCacheError:
                cache.free(seq_id)
                del live[seq_id]
        else:
            if cache.can_allocate(alloc_tokens):
                cache.allocate(seq_id, alloc_tokens)
                live[seq_id] = alloc_tokens
        assert cache.used_blocks + cache.free_blocks == cache.config.total_blocks
        assert 0.0 <= cache.utilization <= 1.0
        expected_blocks = sum(-(-tokens // 16) for tokens in live.values() if tokens > 0)
        assert cache.used_blocks == expected_blocks


# --------------------------------------------------------------------------- broadcast model
@given(
    nbytes=st.floats(1e6, 5e11),
    nodes=st.integers(2, 512),
    chunks=st.integers(1, 4096),
)
@settings(max_examples=100, deadline=None)
def test_chain_broadcast_optimal_k_is_a_lower_bound(nbytes, nodes, chunks):
    t_any = chain_pipelined_broadcast_time(nbytes, nodes, chunks)
    t_opt = chain_pipelined_broadcast_time(nbytes, nodes)  # k = k*
    t_star = optimal_chain_broadcast_time(nbytes, nodes)
    assert t_any >= t_star - 1e-9
    assert t_opt <= t_any * (1.0 + 1e-9) or math.isclose(t_opt, t_any, rel_tol=1e-6)
    # Bandwidth lower bound: you can never beat a single serialization of M bytes.
    assert t_any >= nbytes / RDMA_LINK.bandwidth - 1e-12


@given(nodes=st.integers(2, 256))
@settings(max_examples=40, deadline=None)
def test_broadcast_time_weakly_monotone_in_nodes(nodes):
    small = optimal_chain_broadcast_time(QWEN_32B.weight_bytes, nodes)
    bigger = optimal_chain_broadcast_time(QWEN_32B.weight_bytes, nodes + 1)
    assert bigger >= small - 1e-9


# --------------------------------------------------------------------------- decode roofline
@given(batch=st.integers(1, 1024), context=st.integers(1, 16384), tp=st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=100, deadline=None)
def test_decode_step_time_monotonicity(batch, context, tp):
    decode = DecodeModel(QWEN_7B, tensor_parallel=tp)
    base = decode.decode_step_time(batch, context)
    assert base > 0
    assert decode.decode_step_time(batch + 1, context) >= base - 1e-12
    assert decode.decode_step_time(batch, context + 128) >= base - 1e-12


# --------------------------------------------------------------------------- GRPO advantages
@given(
    groups=st.integers(1, 16),
    group_size=st.integers(2, 16),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_group_advantages_are_centered_and_bounded(groups, group_size, seed):
    rng = np.random.default_rng(seed)
    rewards = rng.choice([-1.0, 1.0], size=groups * group_size)
    advantages = group_normalized_advantages(rewards, group_size)
    per_group = advantages.reshape(groups, group_size)
    assert np.allclose(per_group.mean(axis=1), 0.0, atol=1e-7)
    # Standardised ±1 rewards can never exceed sqrt(group_size) in magnitude.
    assert np.all(np.abs(advantages) <= math.sqrt(group_size) + 1e-6)


# --------------------------------------------------------------------------- experience buffer
@given(
    writes=st.integers(1, 60),
    capacity=st.integers(1, 40),
    batch=st.integers(1, 20),
)
@settings(max_examples=60, deadline=None)
def test_experience_buffer_never_exceeds_capacity(writes, capacity, batch):
    buffer = ExperienceBuffer(capacity=capacity)
    prompt = Prompt(prompt_id=0, group_id=0, prompt_tokens=8)
    for i in range(writes):
        trajectory = Trajectory(traj_id=i, prompt=prompt, target_tokens=4)
        trajectory.advance(4, 0)
        buffer.write(trajectory, reward=1.0, actor_version=0)
        assert len(buffer) <= capacity
    if buffer.can_sample(batch):
        sampled = buffer.sample(batch)
        assert len(sampled) == batch
        assert len({exp.trajectory.traj_id for exp in sampled}) == batch


# --------------------------------------------------------------------------- generation engine
@given(
    lengths=st.lists(st.integers(8, 600), min_size=1, max_size=12),
    window=st.floats(0.05, 3.0),
)
@settings(max_examples=30, deadline=None)
def test_generation_conserves_tokens_under_arbitrary_windows(lengths, window):
    """However the caller slices time, every target token is generated exactly once."""
    config = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1, max_concurrency=64)
    replica = ReplicaGenerationState(
        replica_id=0,
        decode_model=config.decode_model(),
        kvcache_config=KVCacheConfig(total_blocks=4096),
        max_concurrency=64,
    )
    states = []
    for i, length in enumerate(lengths):
        prompt = Prompt(prompt_id=i, group_id=0, prompt_tokens=32)
        trajectory = Trajectory(traj_id=i, prompt=prompt, target_tokens=length)
        states.append(SequenceState(trajectory=trajectory, schedule=TurnSchedule.single_turn(length)))
    replica.add_sequences(to_batch(states))
    completed = []
    guard = 0
    while not replica.is_idle and guard < 100_000:
        completed.extend(replica.advance(window))
        guard += 1
    assert len(completed) == len(lengths)
    assert replica.stats.tokens_generated == sum(lengths)
    assert replica.kvcache.used_blocks == 0
    for trajectory in completed:
        assert trajectory.generated_tokens == trajectory.target_tokens
        assert trajectory.finish_time is not None
