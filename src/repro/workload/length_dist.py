"""Heavy-tailed response-length distributions.

Figure 2 and Figure 17 of the paper show that response lengths on the
DAPO-Math-17k / AIME workloads are highly skewed: the 99th percentile can be
an order of magnitude above the median.  We model lengths with a two-component
lognormal mixture (a body of short chains-of-thought plus a long-reasoning
tail), truncated to the generation limit (16K output tokens in §8).

Each evaluated checkpoint has its own distribution (Fig 17): bigger models at
the evaluated training stage emit somewhat shorter, less variable responses.
The presets below are fit to preserve the paper's qualitative shape — median
in the low thousands, p99/p50 between ~4x and ~10x, hard cap at ``max_tokens``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class LengthDistribution:
    """Two-component lognormal mixture over response lengths (in tokens)."""

    name: str
    #: Mixture weight of the long-reasoning tail component.
    tail_weight: float
    #: Lognormal parameters of the body component.
    body_median: float
    body_sigma: float
    #: Lognormal parameters of the tail component.
    tail_median: float
    tail_sigma: float
    #: Hard truncation (the serving engine's max output length).
    max_tokens: int = 16384
    min_tokens: int = 16

    def __post_init__(self) -> None:
        if not 0 <= self.tail_weight <= 1:
            raise ValueError("tail_weight must be in [0, 1]")
        if self.body_median <= 0 or self.tail_median <= 0:
            raise ValueError("medians must be positive")
        if self.max_tokens <= self.min_tokens:
            raise ValueError("max_tokens must exceed min_tokens")

    def sample(self, rng: np.random.Generator, size: int = 1,
               difficulty: Optional[Sequence[float]] = None) -> np.ndarray:
        """Draw ``size`` response lengths.

        ``difficulty`` (optional, one value in [0, 1] per sample) shifts a
        sample toward the tail: hard problems require longer reasoning, which
        is what couples the length skew to the task distribution.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if difficulty is None:
            tail_prob = np.full(size, self.tail_weight)
        else:
            difficulty = np.asarray(difficulty, dtype=float)
            if difficulty.shape != (size,):
                raise ValueError("difficulty must have one entry per sample")
            # Difficulty 0 halves the tail probability, difficulty 1 triples it.
            tail_prob = np.clip(self.tail_weight * (0.5 + 2.5 * difficulty), 0.0, 1.0)

        is_tail = rng.random(size) < tail_prob
        body = rng.lognormal(np.log(self.body_median), self.body_sigma, size)
        tail = rng.lognormal(np.log(self.tail_median), self.tail_sigma, size)
        lengths = np.where(is_tail, tail, body)
        lengths = np.clip(lengths, self.min_tokens, self.max_tokens)
        return lengths.astype(np.int64)

    def mean(self, rng: Optional[np.random.Generator] = None) -> float:
        rng = rng or np.random.default_rng(0)
        return float(self.sample(rng, 200_000).mean())


# -- Presets matching the paper's checkpoints (Fig 2, Fig 17) --------------------

#: AIME-style competition math with an intermediate 7B checkpoint (Fig 2 left):
#: long-tailed, p99/p50 close to an order of magnitude.
AIME_MATH_7B = LengthDistribution(
    name="math-7B",
    tail_weight=0.12,
    body_median=1100.0,
    body_sigma=0.85,
    tail_median=9000.0,
    tail_sigma=0.55,
)

#: 32B math checkpoint (Fig 17b): similar median, slightly lighter tail.
AIME_MATH_32B = LengthDistribution(
    name="math-32B",
    tail_weight=0.10,
    body_median=1400.0,
    body_sigma=0.80,
    tail_median=9500.0,
    tail_sigma=0.50,
)

#: 72B math checkpoint (Fig 17c): shorter, tighter responses.
AIME_MATH_72B = LengthDistribution(
    name="math-72B",
    tail_weight=0.08,
    body_median=1000.0,
    body_sigma=0.75,
    tail_median=7000.0,
    tail_sigma=0.50,
    max_tokens=12288,
)

#: 7B multi-turn tool-calling checkpoint (Fig 17d): short per-turn responses
#: with a moderate tail (the skew comes mostly from environment latency).
TOOL_7B = LengthDistribution(
    name="tool-7B",
    tail_weight=0.10,
    body_median=700.0,
    body_sigma=0.75,
    tail_median=5000.0,
    tail_sigma=0.60,
)

LENGTH_PRESETS = {
    "math-7B": AIME_MATH_7B,
    "math-32B": AIME_MATH_32B,
    "math-72B": AIME_MATH_72B,
    "tool-7B": TOOL_7B,
}


def get_length_distribution(task: str, model_size: str) -> LengthDistribution:
    """Pick the preset distribution for a (task, model size) pair."""
    key = f"{task}-{model_size}"
    try:
        return LENGTH_PRESETS[key]
    except KeyError:
        raise KeyError(
            f"no length distribution preset for {key!r}; known: {sorted(LENGTH_PRESETS)}"
        ) from None
