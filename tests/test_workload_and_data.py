"""Tests for workload generators and the data module."""

import numpy as np
import pytest

from repro.data import ExperienceBuffer, PartialResponsePool
from repro.types import Prompt, Trajectory
from repro.workload import (
    PromptDataset,
    get_env_latency,
    get_length_distribution,
    math_task,
    tool_task,
)


def _make_trajectory(traj_id=0, tokens=100, version=0, prompt_tokens=32):
    prompt = Prompt(prompt_id=traj_id, group_id=0, prompt_tokens=prompt_tokens)
    return Trajectory(traj_id=traj_id, prompt=prompt, target_tokens=tokens,
                      weight_version=version)


# --------------------------------------------------------------------------- workload
def test_length_distribution_long_tail_skew():
    """Fig 2: the p99/p50 ratio is close to an order of magnitude."""
    dist = get_length_distribution("math", "7B")
    rng = np.random.default_rng(0)
    samples = dist.sample(rng, 200_000)
    assert 5.0 <= np.percentile(samples, 99) / np.percentile(samples, 50) <= 25.0
    assert samples.min() >= dist.min_tokens
    assert samples.max() <= dist.max_tokens


def test_length_distribution_difficulty_shifts_tail():
    dist = get_length_distribution("math", "7B")
    rng = np.random.default_rng(1)
    easy = dist.sample(rng, 20_000, difficulty=[0.05] * 20_000).mean()
    hard = dist.sample(rng, 20_000, difficulty=[0.95] * 20_000).mean()
    assert hard > easy


def test_env_latency_distribution_shape():
    dist = get_env_latency("code-sandbox")
    rng = np.random.default_rng(2)
    samples = dist.sample(rng, 50_000)
    assert samples.min() >= dist.min_latency
    assert samples.max() <= dist.max_latency
    assert np.percentile(samples, 99) > 5 * np.percentile(samples, 50)


@pytest.mark.parametrize("name", ["code-sandbox", "rule-verifier"])
def test_env_latency_sample_keeps_its_stream(name):
    """``sample`` draws and mixes exactly as its one-expression form did, and
    ``from_draws`` over the concatenated draws of several calls equals their
    concatenated samples (what the trajectory factory relies on)."""
    dist = get_env_latency(name)
    rng, reference, columns = (np.random.default_rng(7) for _ in range(3))
    sizes = (1, 3, 8, 2, 300)
    expected = []
    for size in sizes:
        body = reference.lognormal(np.log(dist.body_median), dist.body_sigma, size)
        spikes = dist.spike_scale * (1.0 + reference.pareto(dist.spike_alpha, size))
        is_spike = reference.random(size) < dist.spike_prob
        expected.append(np.clip(np.where(is_spike, body + spikes, body),
                                dist.min_latency, dist.max_latency))
    assert [dist.sample(rng, size).tolist() for size in sizes] == [e.tolist() for e in expected]
    assert rng.bit_generator.state == reference.bit_generator.state
    draws = [(columns.lognormal(np.log(dist.body_median), dist.body_sigma, size),
              columns.pareto(dist.spike_alpha, size), columns.random(size)) for size in sizes]
    mixed = dist.from_draws(*(np.concatenate(column) for column in zip(*draws)))
    assert mixed.tolist() == np.concatenate(expected).tolist()


def test_prompt_dataset_group_structure():
    dataset = PromptDataset(math_task("7B"), num_questions=100, seed=0)
    rng = np.random.default_rng(0)
    prompts = dataset.sample_batch(4, rng)
    assert len(prompts) == 4 * 16
    groups = {}
    for group_id, difficulty in zip(prompts.group_ids.tolist(), prompts.difficulty.tolist()):
        groups.setdefault(group_id, []).append(difficulty)
    assert len(groups) == 4
    for members in groups.values():
        assert len(members) == 16
        assert len(set(members)) == 1  # same underlying question


def test_tool_task_is_multi_turn():
    task = tool_task("7B", max_turns=8)
    assert task.multi_turn
    dataset = PromptDataset(task, num_questions=10, seed=0)
    prompts = dataset.sample_batch(1, np.random.default_rng(0))
    assert prompts.multi_turn and prompts.max_turns == 8


# --------------------------------------------------------------------------- partial response pool
def test_partial_response_pool_lifecycle():
    pool = PartialResponsePool()
    trajectory = _make_trajectory(1, tokens=500)
    pool.register(trajectory, replica_id=3)
    assert 1 in pool and pool.owner(1) == 3
    pool.migrate(1, new_replica_id=7)
    assert pool.owner(1) == 7
    assert trajectory.repack_count == 1
    finished = pool.complete(1)
    assert finished is trajectory
    assert len(pool) == 0
    with pytest.raises(KeyError):
        pool.complete(1)


# --------------------------------------------------------------------------- experience buffer
def test_experience_buffer_fifo_sampling_removes_items():
    buffer = ExperienceBuffer()
    for i in range(10):
        buffer.write(_make_trajectory(i), reward=1.0, actor_version=0)
    assert buffer.can_sample(4)
    batch = buffer.sample(4)
    assert [exp.trajectory.traj_id for exp in batch] == [0, 1, 2, 3]
    assert len(buffer) == 6
    with pytest.raises(ValueError):
        buffer.sample(100)


def test_experience_buffer_eviction_policies():
    buffer = ExperienceBuffer(capacity=5)
    for i in range(8):
        buffer.write(_make_trajectory(i), reward=0.0, actor_version=0)
    assert len(buffer) == 5
    assert buffer.total_evicted == 3
    assert [e.trajectory.traj_id for e in buffer.peek_all()] == [3, 4, 5, 6, 7]
