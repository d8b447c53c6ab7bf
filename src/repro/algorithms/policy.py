"""Softmax-linear policy over reasoning strategies.

The policy maps a problem's feature vector to a distribution over the task's
K strategies through a linear layer followed by a softmax.  It exposes exactly
the quantities the RL algorithms need: sampling, log-probabilities, and the
gradient of the clipped surrogate objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .task import SyntheticReasoningTask


@dataclass
class SoftmaxPolicy:
    """theta has shape (feature_dim, num_strategies)."""

    feature_dim: int
    num_strategies: int
    theta: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.theta is None:
            self.theta = np.zeros((self.feature_dim, self.num_strategies))
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.shape != (self.feature_dim, self.num_strategies):
            raise ValueError("theta shape mismatch")

    # ------------------------------------------------------------------ basics
    def copy(self) -> "SoftmaxPolicy":
        return SoftmaxPolicy(self.feature_dim, self.num_strategies, self.theta.copy())

    def logits(self, features: np.ndarray) -> np.ndarray:
        return features @ self.theta

    def probabilities(self, features: np.ndarray) -> np.ndarray:
        logits = self.logits(features)
        logits = logits - logits.max(axis=-1, keepdims=True)
        exp = np.exp(logits)
        return exp / exp.sum(axis=-1, keepdims=True)

    def log_prob(self, features: np.ndarray, strategies: np.ndarray) -> np.ndarray:
        probs = self.probabilities(features)
        chosen = probs[np.arange(len(strategies)), strategies]
        return np.log(np.clip(chosen, 1e-12, 1.0))

    def sample(self, features: np.ndarray, rng: np.random.Generator,
               temperature: float = 1.0) -> np.ndarray:
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        logits = self.logits(features) / temperature
        logits = logits - logits.max(axis=-1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=-1, keepdims=True)
        cdf = probs.cumsum(axis=-1)
        draws = rng.random((len(features), 1))
        return (draws < cdf).argmax(axis=-1)

    # ------------------------------------------------------------------ gradients
    def surrogate_gradient(
        self,
        features: np.ndarray,
        strategies: np.ndarray,
        advantages: np.ndarray,
        behaviour_log_prob: np.ndarray,
        clip_low: float = 0.2,
        clip_high: float = 0.28,
    ) -> Tuple[np.ndarray, dict]:
        """Gradient of the PPO/GRPO clipped surrogate w.r.t. theta.

        Uses the Clip-Higher asymmetric range of DAPO (§8): the ratio is
        clipped to [1 - clip_low, 1 + clip_high].
        """
        probs = self.probabilities(features)
        current_log_prob = np.log(
            np.clip(probs[np.arange(len(strategies)), strategies], 1e-12, 1.0)
        )
        ratio = np.exp(current_log_prob - behaviour_log_prob)
        clipped = np.clip(ratio, 1.0 - clip_low, 1.0 + clip_high)
        use_unclipped = (ratio * advantages) <= (clipped * advantages)
        active_ratio = np.where(use_unclipped, ratio, 0.0)

        # d log pi(a|x) / d theta = x ⊗ (onehot(a) - probs)
        onehot = np.zeros_like(probs)
        onehot[np.arange(len(strategies)), strategies] = 1.0
        weights = (active_ratio * advantages)[:, None] * (onehot - probs)
        grad = features.T @ weights / max(1, len(strategies))
        stats = {
            "mean_ratio": float(ratio.mean()),
            "clip_fraction": float(1.0 - use_unclipped.mean()),
            "mean_advantage": float(advantages.mean()),
        }
        return grad, stats

    def apply_gradient(self, grad: np.ndarray, learning_rate: float) -> None:
        if grad.shape != self.theta.shape:
            raise ValueError("gradient shape mismatch")
        self.theta = self.theta + learning_rate * grad

    # ------------------------------------------------------------------ evaluation
    def mean_reward(self, task: SyntheticReasoningTask) -> float:
        """Expected reward of the policy over the whole problem bank."""
        probs = self.probabilities(task.features)
        solve = 1.0 / (1.0 + np.exp(-task.solve_logits))
        expected = (probs * (2.0 * solve - 1.0)).sum(axis=-1)
        return float(expected.mean())
