"""Experience buffer holding completed trajectories for trainer sampling.

The buffer is the decoupling point between data production (rollouts) and
consumption (trainer): rollouts write completed, scored trajectories; the
trainer samples batches whenever enough are available (§3.2, step 3-4).
Sampling is FIFO, the paper's evaluation setting (Table 3), and a full
buffer evicts its oldest experiences.
"""

from __future__ import annotations

from typing import List

from ..types import Experience, Trajectory


class ExperienceBuffer:
    """Bounded FIFO buffer of :class:`Experience` with oldest-first eviction."""

    def __init__(self, capacity: int = 1_000_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._items: List[Experience] = []
        self.total_written = 0
        self.total_sampled = 0
        self.total_evicted = 0

    def __len__(self) -> int:
        return len(self._items)

    # -- writer -----------------------------------------------------------------
    def write(self, trajectory: Trajectory, reward: float, actor_version: int) -> Experience:
        """Score ``trajectory`` and append it to the buffer."""
        experience = Experience(
            trajectory=trajectory,
            reward=reward,
            actor_version_at_completion=actor_version,
        )
        self._items.append(experience)
        self.total_written += 1
        overflow = len(self._items) - self.capacity
        if overflow > 0:
            del self._items[:overflow]
            self.total_evicted += overflow
        return experience

    # -- sampler -----------------------------------------------------------------
    def can_sample(self, batch_size: int) -> bool:
        return len(self._items) >= batch_size

    def sample(self, batch_size: int) -> List[Experience]:
        """Remove and return the ``batch_size`` oldest experiences.

        Raises ``ValueError`` if fewer than ``batch_size`` experiences are
        buffered — callers are expected to check :meth:`can_sample` first
        (the trainer process waits on buffer occupancy).
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if len(self._items) < batch_size:
            raise ValueError(
                f"buffer holds {len(self._items)} experiences, need {batch_size}"
            )
        batch = self._items[:batch_size]
        del self._items[:batch_size]
        self.total_sampled += batch_size
        return batch

    # -- inspection ---------------------------------------------------------------
    def peek_all(self) -> List[Experience]:
        return list(self._items)
