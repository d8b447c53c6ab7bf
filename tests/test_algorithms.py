"""Tests for the GRPO / Decoupled-PPO substrate and the convergence harness."""

import numpy as np
import pytest

from repro.algorithms import (
    ConvergenceCurve,
    DecoupledPPOTrainer,
    GRPOConfig,
    GRPOTrainer,
    SoftmaxPolicy,
    SyntheticReasoningTask,
    SystemConvergenceProfile,
    compare_systems,
    convergence_speedup,
    generate_rollouts,
    group_normalized_advantages,
    run_convergence,
)


@pytest.fixture(scope="module")
def task():
    return SyntheticReasoningTask(num_problems=256, feature_dim=12, num_strategies=6, seed=0)


# --------------------------------------------------------------------------- task / policy
def test_task_reward_bounds(task):
    assert -1.0 < task.random_mean_reward() < 1.0
    problem_ids = np.arange(10)
    strategies = np.zeros(10, dtype=int)
    probs = task.solve_probability(problem_ids, strategies)
    assert np.all((probs > 0) & (probs < 1))


def test_policy_probabilities_and_log_prob(task):
    policy = SoftmaxPolicy(task.feature_dim, task.num_strategies)
    probs = policy.probabilities(task.features[:5])
    assert probs.shape == (5, task.num_strategies)
    assert np.allclose(probs.sum(axis=1), 1.0)
    # Zero parameters -> uniform policy.
    assert np.allclose(probs, 1.0 / task.num_strategies)
    strategies = np.array([0, 1, 2, 3, 4])
    log_prob = policy.log_prob(task.features[:5], strategies)
    assert np.allclose(log_prob, np.log(1.0 / task.num_strategies))


def test_policy_sampling_follows_distribution(task):
    rng = np.random.default_rng(0)
    policy = SoftmaxPolicy(task.feature_dim, task.num_strategies)
    policy.theta[:, 0] = 5.0  # strongly prefer strategy 0 on all-positive features
    features = np.full((2000, task.feature_dim), 1.0 / np.sqrt(task.feature_dim))
    samples = policy.sample(features, rng)
    assert (samples == 0).mean() > 0.8


def test_group_normalized_advantages_zero_mean_per_group():
    rewards = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0])
    advantages = group_normalized_advantages(rewards, group_size=4)
    assert advantages.shape == (8,)
    assert np.allclose(advantages.reshape(2, 4).mean(axis=1), 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        group_normalized_advantages(rewards, group_size=3)


def test_clip_higher_gradient_stats(task):
    policy = SoftmaxPolicy(task.feature_dim, task.num_strategies)
    rng = np.random.default_rng(0)
    features = task.features[:64]
    strategies = rng.integers(0, task.num_strategies, 64)
    advantages = rng.normal(0, 1, 64)
    behaviour_log_prob = policy.log_prob(features, strategies) - 1.0  # force large ratios
    grad, stats = policy.surrogate_gradient(features, strategies, advantages,
                                            behaviour_log_prob, clip_low=0.2, clip_high=0.28)
    assert grad.shape == policy.theta.shape
    assert 0.0 <= stats["clip_fraction"] <= 1.0
    assert stats["mean_ratio"] > 1.0


def test_grpo_learns_on_policy(task):
    trainer = GRPOTrainer(task, GRPOConfig(group_size=8), seed=1)
    rng = np.random.default_rng(1)
    start = trainer.policy.mean_reward(task)
    for _ in range(30):
        batch = generate_rollouts(task, trainer.policy, 32, trainer.config, rng)
        stats = trainer.update(batch)
    assert stats["policy_reward"] > start + 0.1
    assert trainer.updates == 30


def test_stale_behaviour_policy_slows_learning(task):
    """Off-policy data (stale behaviour policy) should not learn faster than
    on-policy data with the same budget — the §2.3 throughput/stability tension."""
    def final_reward(staleness):
        trainer = GRPOTrainer(task, GRPOConfig(group_size=8), seed=2)
        rng = np.random.default_rng(2)
        history = [trainer.policy.copy()]
        for _ in range(25):
            behaviour = history[max(0, len(history) - 1 - staleness)]
            batch = generate_rollouts(task, behaviour, 32, trainer.config, rng)
            stats = trainer.update(batch)
            history.append(trainer.policy.copy())
        return stats["policy_reward"]

    assert final_reward(0) >= final_reward(8) - 0.05


def test_decoupled_ppo_handles_mixed_versions(task):
    trainer = DecoupledPPOTrainer(task, GRPOConfig(group_size=8), seed=3)
    rng = np.random.default_rng(3)
    old_policy = trainer.policy.copy()
    for _ in range(15):
        batch = generate_rollouts(task, trainer.policy, 16, trainer.config, rng,
                                  mixture_policy=old_policy, mixture_fraction=0.4)
        stats = trainer.update(batch)
    assert np.isfinite(stats["policy_reward"])
    assert stats["policy_reward"] > task.random_mean_reward()


# --------------------------------------------------------------------------- convergence harness
def test_convergence_profile_validation():
    with pytest.raises(ValueError):
        SystemConvergenceProfile(name="x", iteration_time=0.0)
    with pytest.raises(ValueError):
        SystemConvergenceProfile(name="x", iteration_time=1.0, mixture_fraction=2.0)
    with pytest.raises(ValueError):
        SystemConvergenceProfile(name="x", iteration_time=1.0, algorithm="dqn")


def test_run_convergence_produces_monotone_wall_clock(task):
    profile = SystemConvergenceProfile(name="laminar", iteration_time=30.0,
                                       mean_staleness=1.0, max_staleness=4)
    curve = run_convergence(profile, task=task, num_iterations=10, num_prompts=16, seed=0)
    times = curve.times()
    assert len(curve.points) == 10
    assert times == sorted(times)
    assert times[-1] == pytest.approx(300.0)


def test_faster_iterations_win_in_wall_clock(task):
    """Fig 13's core effect: higher throughput converges sooner in wall-clock."""
    profiles = [
        SystemConvergenceProfile(name="slow_on_policy", iteration_time=200.0),
        SystemConvergenceProfile(name="fast_low_staleness", iteration_time=50.0,
                                 mean_staleness=1.0, max_staleness=4),
    ]
    curves = compare_systems(profiles, num_iterations=25, num_prompts=32, seed=0)
    target = 0.6 * curves["slow_on_policy"].final_reward()
    t_slow = curves["slow_on_policy"].time_to_reward(target)
    t_fast = curves["fast_low_staleness"].time_to_reward(target)
    assert t_fast is not None and t_slow is not None
    assert t_fast < t_slow
    ratio = convergence_speedup(curves, "fast_low_staleness", "slow_on_policy",
                                target_fraction=0.6)
    assert ratio is not None and ratio > 1.0


def test_curve_helpers():
    curve = ConvergenceCurve(system="x")
    assert curve.final_reward() == float("-inf")
    assert curve.time_to_reward(0.0) is None
