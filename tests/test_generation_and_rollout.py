"""Tests for the replica generation engine, environments and trajectory types."""

import dataclasses
import functools

import numpy as np
import pytest

from oracles import (
    SequenceState,
    TurnSchedule,
    reference_make,
    reference_multi_turn_schedules,
    reference_sample_batch,
    run_to_completion,
    to_batch,
)
from repro.rollout import (
    ReplicaGenerationState,
    RolloutReplicaConfig,
    SimulatedEnvironment,
    TrajectoryFactory,
)
from repro.llm import QWEN_7B
from repro.sim import KVCacheConfig
from repro.types import Prompt, Trajectory
from repro.workload import PromptDataset, math_task, tool_task
from repro.workload.datasets import PromptBatch
from repro.workload.env_latency import ENV_PRESETS


def make_replica(max_concurrency=64, blocks=4096, tp=1):
    config = RolloutReplicaConfig(QWEN_7B, tensor_parallel=tp, max_concurrency=max_concurrency)
    return ReplicaGenerationState(
        replica_id=0,
        decode_model=config.decode_model(),
        kvcache_config=KVCacheConfig(total_blocks=blocks),
        max_concurrency=max_concurrency,
    )


def make_states(lengths, prompt_tokens=64, start_id=0):
    """A batch of fresh single-turn sequences of the given lengths."""
    states = []
    for offset, length in enumerate(lengths):
        prompt = Prompt(prompt_id=start_id + offset, group_id=0, prompt_tokens=prompt_tokens)
        trajectory = Trajectory(traj_id=start_id + offset, prompt=prompt, target_tokens=length)
        states.append(SequenceState(trajectory=trajectory, schedule=TurnSchedule.single_turn(length)))
    return to_batch(states)


# --------------------------------------------------------------------------- types
def test_trajectory_progress_and_staleness():
    prompt = Prompt(prompt_id=0, group_id=0, prompt_tokens=100)
    trajectory = Trajectory(traj_id=0, prompt=prompt, target_tokens=50, weight_version=2)
    trajectory.advance(30, weight_version=2)
    assert not trajectory.done and trajectory.generated_tokens == 30
    trajectory.advance(40, weight_version=3)
    assert trajectory.done and trajectory.generated_tokens == 50
    assert trajectory.mixed_versions
    assert trajectory.inherent_staleness(actor_version_at_finish=5) == 3
    assert trajectory.total_tokens == 150


# --------------------------------------------------------------------------- engine basics
def test_single_sequence_completion_time_matches_decode_model():
    replica = make_replica()
    states = make_states([100])
    replica.add_sequences(states)
    duration, done = run_to_completion(replica)
    assert len(done) == 1 and done[0].done
    step = replica.decode_model.decode_step_time(1, 64 + 50)
    # 100 decode steps at roughly the single-sequence step time.
    assert duration == pytest.approx(100 * step, rel=0.25)
    assert replica.stats.tokens_generated == 100
    assert replica.is_idle


def test_completion_order_follows_length():
    replica = make_replica()
    replica.add_sequences(make_states([500, 50, 200]))
    _, done = run_to_completion(replica)
    assert [t.traj_id for t in sorted(done, key=lambda t: t.finish_time)] == [1, 2, 0]


def test_batched_decode_is_faster_than_serial():
    lengths = [200] * 16
    batched = make_replica()
    batched.add_sequences(make_states(lengths))
    batched_time, _ = run_to_completion(batched)

    serial_total = 0.0
    for i, length in enumerate(lengths):
        replica = make_replica()
        replica.add_sequences(make_states([length], start_id=100 + i))
        duration, _ = run_to_completion(replica)
        serial_total += duration
    assert batched_time < 0.25 * serial_total


def test_interrupted_advance_preserves_token_accounting():
    replica = make_replica()
    replica.add_sequences(make_states([300, 300]))
    total_target = 600
    # Advance in many small, unaligned windows (as the Laminar loop does).
    while not replica.is_idle:
        delta = replica.next_event_in()
        if delta is None:
            break
        replica.advance(min(delta, 0.37))
    assert replica.stats.tokens_generated == total_target


def test_kvcache_queueing_and_preemption_free_progress():
    # Tiny cache: only ~2 sequences fit concurrently; the rest wait.
    replica = make_replica(blocks=64)
    replica.add_sequences(make_states([200] * 6, prompt_tokens=128))
    assert replica.num_decoding < 6
    assert replica.num_queued > 0
    _, done = run_to_completion(replica)
    assert len(done) == 6
    assert all(t.done for t in done)


def test_remove_sequences_releases_cache_and_requeues_elsewhere():
    replica = make_replica()
    states = make_states([400, 700, 1000])
    replica.add_sequences(states)
    replica.advance(replica.next_event_in())  # the shortest sequence completes
    removed = replica.remove_all()
    assert len(removed) == 2
    assert replica.is_idle
    assert replica.kvcache.used_blocks == 0
    # Migrated sequences resume on another replica and still finish.
    other = make_replica()
    removed.reprefill[:] = True
    other.add_sequences(removed)
    _, done = run_to_completion(other)
    assert len(done) == 2
    assert other.stats.reprefill_tokens > 0


def test_multi_turn_env_wait_blocks_decoding():
    replica = make_replica()
    schedule = TurnSchedule(segments=[50, 50], env_latencies=[30.0, 0.0])
    prompt = Prompt(prompt_id=0, group_id=0, prompt_tokens=64, multi_turn=True, max_turns=2)
    trajectory = Trajectory(traj_id=0, prompt=prompt, target_tokens=100)
    replica.add_sequences(to_batch([SequenceState(trajectory=trajectory, schedule=schedule)]))
    duration, done = run_to_completion(replica)
    assert len(done) == 1
    assert done[0].turns_done == 2
    assert duration > 30.0  # the environment latency is on the critical path
    assert replica.stats.env_blocked_time > 0.0


def test_inject_stall_and_weight_version_guard():
    replica = make_replica()
    replica.inject_stall(5.0, busy=False)
    assert replica.clock == 5.0
    replica.set_weight_version(3)
    with pytest.raises(ValueError):
        replica.set_weight_version(1)
    with pytest.raises(ValueError):
        replica.inject_stall(-1.0)


def test_reprefill_all_inflight_charges_time():
    replica = make_replica()
    replica.add_sequences(make_states([500, 800, 1100, 1400]))
    replica.advance(replica.next_event_in())  # shortest finishes, three remain in flight
    before = replica.clock
    stall = replica.reprefill_all_inflight()
    assert stall > 0
    assert replica.clock == pytest.approx(before + stall)
    assert all(t.reprefill_count == 1 for t in replica.sequences().trajectories)


# --------------------------------------------------------------------------- factory / environment
def test_trajectory_factory_is_deterministic_per_seed():
    task = math_task("7B")
    dataset = PromptDataset(task, num_questions=50, seed=0)
    prompts = dataset.sample_batch(2, np.random.default_rng(0))
    lengths_a = TrajectoryFactory(task, seed=7).make(prompts).target.tolist()
    lengths_b = TrajectoryFactory(task, seed=7).make(prompts).target.tolist()
    assert lengths_a == lengths_b


def test_trajectory_factory_multi_turn_schedules():
    task = tool_task("7B", max_turns=8)
    dataset = PromptDataset(task, num_questions=20, seed=1)
    prompts = dataset.sample_batch(2, np.random.default_rng(1))
    batch = TrajectoryFactory(task, seed=2).make(prompts)
    assert (batch.num_turns > 1).any() and (batch.num_turns <= 8).all()
    assert (batch.env_latencies[batch.offsets[1:] - 1] == 0.0).all()
    assert np.add.reduceat(batch.segments, batch.offsets[:-1]).tolist() == batch.target.tolist()
    assert [t.target_tokens for t in batch.trajectories] == batch.target.tolist()


@pytest.mark.parametrize("task_factory", [math_task, tool_task])
@pytest.mark.parametrize("seed", [0, 5])
def test_fabrication_columns_match_the_per_prompt_loop(task_factory, seed):
    """``sample_batch`` + ``make`` draw in the per-prompt loop's order: one
    ``integers`` draw per sample, one length draw per make, then each
    multi-turn row's turn count, split and latencies.  Ids advance alike,
    including when only the first ``count`` rows of whole groups are kept."""
    task = task_factory("7B")
    dataset, reference_dataset = (PromptDataset(task, num_questions=300, seed=seed)
                                  for _ in range(2))
    factory, reference_factory = (TrajectoryFactory(task, seed=seed + 1) for _ in range(2))
    rng, reference_rng = (np.random.default_rng(seed + 2) for _ in range(2))
    for num_prompts, count, version in ((3, None, 0), (2, 21, 4), (1, 16, 7), (4, 50, 9)):
        prompts = dataset.sample_batch(num_prompts, rng)[:count]
        batch = factory.make(prompts, weight_version=version, start_time=2.5)
        expected = reference_make(
            reference_factory,
            reference_sample_batch(reference_dataset, num_prompts, reference_rng)[:count],
            weight_version=version, start_time=2.5,
        )
        assert batch.ids.tolist() == [s.seq_id for s in expected]
        assert prompts.prompt_ids.tolist() == [s.trajectory.prompt.prompt_id for s in expected]
        assert prompts.group_ids.tolist() == [s.trajectory.prompt.group_id for s in expected]
        assert batch.prompt_tokens.tolist() == [s.trajectory.prompt.prompt_tokens for s in expected]
        assert prompts.difficulty.tolist() == [s.trajectory.prompt.difficulty for s in expected]
        assert batch.target.tolist() == [s.trajectory.target_tokens for s in expected]
        assert batch.num_turns.tolist() == [s.schedule.num_turns for s in expected]
        assert batch.segments.tolist() == [x for s in expected for x in s.schedule.segments]
        assert batch.env_latencies.tolist() == [
            x for s in expected for x in s.schedule.env_latencies
        ]
        for trajectory, state in zip(batch.trajectories, expected):
            assert trajectory == state.trajectory
    assert rng.random() == reference_rng.random()
    assert factory._rng.random() == reference_factory._rng.random()


@pytest.mark.parametrize("max_turns", [2, 3, 8])
@pytest.mark.parametrize("preset", sorted(ENV_PRESETS))
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_multi_turn_schedules_match_the_per_row_reference(seed, preset, max_turns):
    """The factory keeps each row's Poisson, Dirichlet and latency draws in
    its row loop and runs the rest on columns: its batches equal the per-row
    reference's column for column (dtype included), and both leave the
    generator in the same state.  Rows of difficulty 0 and 1 are mixed with
    intermediate ones, and some rows hit the ``max_turns`` cap."""
    task = dataclasses.replace(tool_task("7B", max_turns=max_turns),
                               env_latency=ENV_PRESETS[preset])
    factory, reference = TrajectoryFactory(task, seed=seed), TrajectoryFactory(task, seed=seed)
    reference._multi_turn_schedules = functools.partial(reference_multi_turn_schedules,
                                                        reference)
    rng = np.random.default_rng(100 + seed)
    capped = False
    for rows in (1, 7, 48):
        difficulty = np.resize([0.0, 1.0], rows)
        difficulty[2::3] = rng.uniform(size=len(difficulty[2::3]))
        prompts = PromptBatch(np.arange(rows), np.arange(rows) // 4,
                              rng.integers(64, 512, rows), difficulty, True, max_turns)
        batch, expected = factory.make(prompts), reference.make(prompts)
        for column in ("ids", "target", "offsets", "segments", "env_latencies"):
            got, want = getattr(batch, column), getattr(expected, column)
            assert got.dtype == want.dtype, column
            assert got.tolist() == want.tolist(), column
        assert factory._rng.bit_generator.state == reference._rng.bit_generator.state
        capped |= bool((batch.num_turns == max_turns).any())
    assert capped


def test_environment_scoring_rewards_are_binary_and_difficulty_sensitive():
    task = math_task("7B")
    env = SimulatedEnvironment(task, seed=0)
    easy = Prompt(prompt_id=0, group_id=0, prompt_tokens=64, difficulty=0.05)
    hard = Prompt(prompt_id=1, group_id=1, prompt_tokens=64, difficulty=0.95)
    easy_rewards, hard_rewards = [], []
    for i in range(300):
        t_easy = Trajectory(traj_id=1000 + i, prompt=easy, target_tokens=100)
        t_easy.advance(100, 0)
        t_hard = Trajectory(traj_id=2000 + i, prompt=hard, target_tokens=100)
        t_hard.advance(100, 0)
        easy_rewards.append(env.score(t_easy))
        hard_rewards.append(env.score(t_hard))
    assert set(easy_rewards) <= {-1.0, 1.0}
    assert np.mean(easy_rewards) > np.mean(hard_rewards)


def test_environment_score_clamp_is_numpy_clip():
    """The solve probability equals ``np.clip``'s double below, at, between
    and above both bounds, and scoring still draws one uniform per call."""

    class FixedDraw:
        def __init__(self, value):
            self.value = value

        def random(self):
            return self.value

    task = math_task("7B")
    env = SimulatedEnvironment(task, seed=5)
    # Below difficulty -0.19 the probability clips at 0.98, above ~1.2 at
    # 0.02; the length bonus spreads the crossings over the grid.
    cases = []
    for i, difficulty in enumerate(np.linspace(-0.6, 1.6, 1001).tolist()):
        prompt = Prompt(prompt_id=i, group_id=0, prompt_tokens=64, difficulty=difficulty)
        trajectory = Trajectory(traj_id=i, prompt=prompt, target_tokens=9000)
        trajectory.advance(int(i * 9), 0)
        length_bonus = 0.1 * min(1.0, trajectory.generated_tokens / 8192.0)
        expected = float(np.clip(0.85 - 0.7 * difficulty + length_bonus, 0.02, 0.98))
        cases.append((trajectory, expected))
    assert {expected for _, expected in cases} >= {0.02, 0.98}
    for trajectory, expected in cases:
        # reward is +1 iff draw < probability: a draw at the expected value
        # loses and the next double below wins only if they are equal.
        env._rng = FixedDraw(expected)
        assert env.score(trajectory) == -1.0
        env._rng = FixedDraw(np.nextafter(expected, 0.0))
        assert env.score(trajectory) == 1.0
    env = SimulatedEnvironment(task, seed=5)
    reference = np.random.default_rng(5)
    for trajectory, expected in cases:
        assert env.score(trajectory) == (1.0 if reference.random() < expected else -1.0)


def test_replica_config_kvcache_sizing():
    config = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1)
    kv = config.kvcache_config()
    assert kv.total_tokens > 100_000  # most of an 80 GB GPU is KVCache for a 7B
    from repro.llm import QWEN_72B
    with pytest.raises(ValueError):
        RolloutReplicaConfig(QWEN_72B, tensor_parallel=1).kvcache_config()
