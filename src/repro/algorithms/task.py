"""Synthetic reasoning task for the RL-algorithm substrate.

Fig 13 compares model convergence (training reward vs wall-clock time) across
systems.  We cannot train a real LLM here, so the algorithmic substrate uses a
parametric stand-in with the properties that matter for the comparison:

* a bank of problems with latent difficulty (as in DAPO-Math-17k);
* a policy that chooses one of K "reasoning strategies" per problem via a
  softmax over learned parameters — so policy-gradient updates, importance
  ratios, clipping and staleness all behave as they do for token-level
  policies;
* a reward of +1/-1 depending on whether the chosen strategy solves the
  problem, with per-problem strategy quality fixed at task creation.

Convergence speed *per update* is then governed by the RL algorithm and the
freshness of the behaviour policy, while wall-clock speed is governed by each
system's simulated iteration time — exactly the coupling Fig 13 studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class SyntheticReasoningTask:
    """A bank of problems, each with feature vector and per-strategy quality."""

    num_problems: int = 2048
    feature_dim: int = 16
    num_strategies: int = 8
    seed: int = 0
    #: Scale of the gap between good and bad strategies (larger = easier task).
    strategy_gap: float = 2.0

    def __post_init__(self) -> None:
        if self.num_problems <= 0 or self.feature_dim <= 0 or self.num_strategies <= 1:
            raise ValueError("task dimensions must be positive (and >= 2 strategies)")
        rng = np.random.default_rng(self.seed)
        self.features = rng.normal(0.0, 1.0, (self.num_problems, self.feature_dim))
        self.features /= np.linalg.norm(self.features, axis=1, keepdims=True)
        self.difficulty = rng.beta(2.0, 2.0, self.num_problems)
        # Per-problem, per-strategy solve logits.  The best strategy for a
        # problem depends on its features, so a linear policy can learn it.
        mixing = rng.normal(0.0, 1.0, (self.feature_dim, self.num_strategies))
        base = self.features @ mixing
        self.solve_logits = self.strategy_gap * base - 2.0 * self.difficulty[:, None]

    def solve_probability(self, problem_ids: np.ndarray, strategies: np.ndarray) -> np.ndarray:
        """Probability that the chosen strategy solves each problem."""
        logits = self.solve_logits[problem_ids, strategies]
        return 1.0 / (1.0 + np.exp(-logits))

    def sample_rewards(self, problem_ids: np.ndarray, strategies: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
        """Rule-based reward in {-1, +1}."""
        prob = self.solve_probability(problem_ids, strategies)
        solved = rng.random(prob.shape) < prob
        return np.where(solved, 1.0, -1.0)

    def random_mean_reward(self) -> float:
        """Mean reward of the uniform-random policy (convergence floor)."""
        prob = 1.0 / (1.0 + np.exp(-self.solve_logits))
        return float((2.0 * prob - 1.0).mean())
