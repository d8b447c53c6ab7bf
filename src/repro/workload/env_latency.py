"""Environment interaction latency distributions for multi-turn tasks.

Figure 2 (right panel) shows code-sandbox execution latencies ranging from a
few seconds to several hundred seconds, driven by request queuing and task
complexity.  We model the latency of one environment interaction as a
lognormal body with a Pareto tail (queuing spikes), matching that shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EnvLatencyDistribution:
    """Latency (seconds) of a single environment call (code execution, API)."""

    name: str
    #: Median latency of a normal execution.
    body_median: float
    body_sigma: float
    #: Probability that a call hits the congested/queuing regime.
    spike_prob: float
    #: Pareto scale/shape for the congested regime.
    spike_scale: float
    spike_alpha: float
    max_latency: float = 600.0
    min_latency: float = 0.2

    def __post_init__(self) -> None:
        if not 0 <= self.spike_prob <= 1:
            raise ValueError("spike_prob must be in [0, 1]")
        if self.body_median <= 0 or self.spike_scale <= 0 or self.spike_alpha <= 0:
            raise ValueError("latency parameters must be positive")
        if self.max_latency <= self.min_latency:
            raise ValueError("max_latency must exceed min_latency")

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Draw ``size`` environment-call latencies in seconds."""
        if size <= 0:
            raise ValueError("size must be positive")
        body = rng.lognormal(np.log(self.body_median), self.body_sigma, size)
        tail = rng.pareto(self.spike_alpha, size)
        return self.from_draws(body, tail, rng.random(size))

    def from_draws(self, body: np.ndarray, tail: np.ndarray,
                   uniform: np.ndarray) -> np.ndarray:
        """Latencies from :meth:`sample`'s three draws, elementwise.

        ``body``, ``tail`` and ``uniform`` are its lognormal, Pareto and
        uniform draws (columns of any number of calls' draws at once).
        """
        spikes = self.spike_scale * (1.0 + tail)
        latency = np.where(uniform < self.spike_prob, body + spikes, body)
        return np.clip(latency, self.min_latency, self.max_latency)


#: Shared code-sandbox service (Fig 2 right): median ~10 s, tail to hundreds.
CODE_SANDBOX = EnvLatencyDistribution(
    name="code-sandbox",
    body_median=9.0,
    body_sigma=0.9,
    spike_prob=0.08,
    spike_scale=60.0,
    spike_alpha=1.6,
)

#: Fast local verifier used by single-turn math (rule-based reward): negligible.
RULE_BASED_VERIFIER = EnvLatencyDistribution(
    name="rule-verifier",
    body_median=0.3,
    body_sigma=0.3,
    spike_prob=0.0,
    spike_scale=1.0,
    spike_alpha=2.0,
    max_latency=5.0,
    min_latency=0.05,
)

ENV_PRESETS = {
    "code-sandbox": CODE_SANDBOX,
    "rule-verifier": RULE_BASED_VERIFIER,
}


def get_env_latency(name: str) -> EnvLatencyDistribution:
    try:
        return ENV_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"no environment latency preset named {name!r}; known: {sorted(ENV_PRESETS)}"
        ) from None
