"""Reward-vs-wall-clock convergence comparison (Fig 13).

Couples the algorithmic substrate with each system's *simulated* execution
characteristics:

* iteration wall-clock time comes from the throughput composition of
  :mod:`repro.experiments.throughput` for the same configuration;
* the behaviour policy used to generate a batch is the policy from
  ``staleness`` iterations ago, where the staleness distribution matches the
  system (0 for verl, 1 for one-step/stream, the emergent distribution for
  Laminar, unbounded-but-controlled for AReaL);
* partial-rollout systems additionally mix two policy versions inside a
  trajectory (``mixture_fraction``), which Decoupled PPO only partly corrects.

The result is a list of (wall-clock time, training reward) points per system,
normalised the same way as Fig 13 (rewards scaled into roughly [-1, 1]).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

import numpy as np

from .grpo import DecoupledPPOTrainer, GRPOConfig, GRPOTrainer, generate_rollouts
from .policy import SoftmaxPolicy
from .task import SyntheticReasoningTask


@dataclass(frozen=True)
class SystemConvergenceProfile:
    """Execution characteristics of one system, as used by Fig 13."""

    name: str
    #: Steady-state RL iteration time in seconds (from the throughput model).
    iteration_time: float
    #: Mean inherent staleness of trained trajectories (in iterations).
    mean_staleness: float = 0.0
    #: Maximum staleness (bounds the policy-snapshot history needed).
    max_staleness: int = 0
    #: Fraction of each trajectory generated by a different policy version
    #: (partial-rollout systems only).
    mixture_fraction: float = 0.0
    #: Algorithm: "grpo" or "decoupled_ppo".
    algorithm: str = "grpo"

    def __post_init__(self) -> None:
        if self.iteration_time <= 0:
            raise ValueError("iteration_time must be positive")
        if self.mean_staleness < 0 or self.max_staleness < 0:
            raise ValueError("staleness must be non-negative")
        if not 0 <= self.mixture_fraction <= 1:
            raise ValueError("mixture_fraction must be in [0, 1]")
        if self.algorithm not in ("grpo", "decoupled_ppo"):
            raise ValueError("algorithm must be 'grpo' or 'decoupled_ppo'")


@dataclass
class ConvergencePoint:
    wall_clock: float
    iteration: int
    train_reward: float
    policy_reward: float


@dataclass
class ConvergenceCurve:
    system: str
    points: List[ConvergencePoint] = field(default_factory=list)

    def times(self) -> List[float]:
        return [p.wall_clock for p in self.points]

    def time_to_reward(self, target: float) -> Optional[float]:
        """Earliest wall-clock time at which the policy reward reaches ``target``."""
        for point in self.points:
            if point.policy_reward >= target:
                return point.wall_clock
        return None

    def final_reward(self) -> float:
        return self.points[-1].policy_reward if self.points else float("-inf")


def run_convergence(
    profile: SystemConvergenceProfile,
    task: Optional[SyntheticReasoningTask] = None,
    num_iterations: int = 60,
    num_prompts: int = 64,
    config: Optional[GRPOConfig] = None,
    seed: int = 0,
) -> ConvergenceCurve:
    """Train the synthetic policy under one system's execution profile."""
    task = task or SyntheticReasoningTask(seed=seed)
    config = config or GRPOConfig()
    if profile.algorithm == "decoupled_ppo":
        trainer: GRPOTrainer = DecoupledPPOTrainer(task, config, seed=seed + 1)
    else:
        trainer = GRPOTrainer(task, config, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)

    history: Deque[SoftmaxPolicy] = deque(maxlen=max(1, profile.max_staleness) + 1)
    history.append(trainer.policy.copy())
    curve = ConvergenceCurve(system=profile.name)
    wall_clock = 0.0

    for iteration in range(1, num_iterations + 1):
        # Behaviour policy: the snapshot from `staleness` iterations ago.
        staleness = _sample_staleness(profile, rng)
        staleness = min(staleness, len(history) - 1)
        behaviour = history[-(staleness + 1)]
        mixture_policy = None
        if profile.mixture_fraction > 0 and len(history) >= 2:
            mixture_policy = history[0]
        batch = generate_rollouts(
            task,
            behaviour,
            num_prompts,
            config,
            rng,
            mixture_policy=mixture_policy,
            mixture_fraction=profile.mixture_fraction,
        )
        stats = trainer.update(batch)
        history.append(trainer.policy.copy())
        wall_clock += profile.iteration_time
        curve.points.append(
            ConvergencePoint(
                wall_clock=wall_clock,
                iteration=iteration,
                train_reward=stats["mean_reward"],
                policy_reward=stats["policy_reward"],
            )
        )
    return curve


def _sample_staleness(profile: SystemConvergenceProfile, rng: np.random.Generator) -> int:
    if profile.max_staleness == 0:
        return 0
    # Geometric-ish distribution with the requested mean, truncated at max.
    mean = max(1e-6, profile.mean_staleness)
    p = 1.0 / (1.0 + mean)
    draw = rng.geometric(p) - 1
    return int(min(draw, profile.max_staleness))


def compare_systems(
    profiles: Sequence[SystemConvergenceProfile],
    num_iterations: int = 60,
    num_prompts: int = 64,
    seed: int = 0,
) -> Dict[str, ConvergenceCurve]:
    """Run the convergence experiment for every system on the same task."""
    curves: Dict[str, ConvergenceCurve] = {}
    for profile in profiles:
        task = SyntheticReasoningTask(seed=seed)  # identical task for fairness
        curves[profile.name] = run_convergence(
            profile, task=task, num_iterations=num_iterations,
            num_prompts=num_prompts, seed=seed,
        )
    return curves


def convergence_speedup(curves: Dict[str, ConvergenceCurve], system: str,
                        baseline: str, target_fraction: float = 0.8) -> Optional[float]:
    """How much faster ``system`` reaches ``target_fraction`` of the baseline's
    final reward, in wall-clock terms (the 1.77x / 1.59x numbers of §8.2)."""
    base_curve = curves[baseline]
    target = target_fraction * base_curve.final_reward()
    t_base = base_curve.time_to_reward(target)
    t_sys = curves[system].time_to_reward(target)
    if t_base is None or t_sys is None or t_sys <= 0:
        return None
    return t_base / t_sys
