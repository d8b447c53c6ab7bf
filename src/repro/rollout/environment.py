"""Simulated environments and trajectory fabrication.

Two responsibilities:

* :class:`SimulatedEnvironment` plays the role of the external code sandbox /
  rule-based verifier: it samples per-turn interaction latencies and scores
  completed trajectories with a rule-based reward (§8: "rule-based reward
  function ... on both tasks").
* :class:`TrajectoryFactory` turns prompt columns into a
  :class:`~repro.rollout.generation.SequenceBatch` of fresh trajectories with
  pre-sampled response lengths and turn schedules, so that every system
  replays exactly the same workload when given the same seed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Tuple, Union

import numpy as np

from ..types import Prompt, Trajectory
from ..workload.datasets import PromptBatch, TaskSpec
from .generation import SequenceBatch


@dataclass
class SimulatedEnvironment:
    """External environment: latency sampling and rule-based rewards."""

    task: TaskSpec
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # -- reward -------------------------------------------------------------
    def score(self, trajectory: Trajectory) -> float:
        """Rule-based reward in {-1, +1}.

        The probability of solving a problem decreases with its difficulty and
        increases mildly with the amount of reasoning produced (longer
        chains-of-thought help on hard problems) — enough structure for the
        GRPO substrate to have signal without pretending to verify real math.
        """
        difficulty = trajectory.prompt.difficulty
        length_bonus = 0.1 * min(1.0, trajectory.generated_tokens / 8192.0)
        # A Python-float clamp: the same double as ``np.clip`` for every
        # non-NaN input, at a tenth of its cost on the scoring hot path.
        solve_prob = min(max(0.85 - 0.7 * difficulty + length_bonus, 0.02), 0.98)
        solved = self._rng.random() < solve_prob
        return 1.0 if solved else -1.0


@dataclass
class TrajectoryFactory:
    """Builds trajectories + turn schedules from prompts, deterministically."""

    task: TaskSpec
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)
    _next_traj_id: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    def make(self, prompts: PromptBatch, weight_version: int = 0,
             start_time: float = 0.0) -> SequenceBatch:
        """One fresh sequence (trajectory + turn schedule) per prompt row.

        Draw order: one length draw for the whole batch, then — for a
        multi-turn task — each row's turn count, token split and env
        latencies in row order.
        """
        n = len(prompts)
        lengths = np.maximum(
            self.task.length_dist.sample(self._rng, n, difficulty=prompts.difficulty), 1
        )
        if prompts.multi_turn and prompts.max_turns > 1:
            offsets, segments, env_latencies = self._multi_turn_schedules(prompts, lengths)
            target = np.add.reduceat(segments, offsets[:-1])
        else:
            offsets = np.arange(n + 1)
            segments = target = lengths
            env_latencies = np.zeros(n)
        ids = np.arange(self._next_traj_id, self._next_traj_id + n)
        self._next_traj_id += n
        multi_turn, max_turns = prompts.multi_turn, prompts.max_turns
        # Positional fields: (id, prompt, target, generated, weight version,
        # versions used, turns done, start time).
        trajectories = [
            Trajectory(
                traj_id,
                Prompt(prompt_id, group_id, prompt_tokens, difficulty, multi_turn, max_turns),
                target_tokens, 0, weight_version, [weight_version], 0, start_time,
            )
            for traj_id, prompt_id, group_id, prompt_tokens, difficulty, target_tokens in zip(
                ids.tolist(), prompts.prompt_ids.tolist(), prompts.group_ids.tolist(),
                prompts.prompt_tokens.tolist(), prompts.difficulty.tolist(), target.tolist(),
            )
        ]
        return SequenceBatch.fresh(ids, prompts.prompt_tokens, target, offsets, segments,
                                   env_latencies, trajectories)

    def _multi_turn_schedules(self, prompts: PromptBatch, lengths: np.ndarray
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR ``(offsets, segments, env latencies)`` of multi-turn rows.

        Each row draws, in row order, its turn count (Poisson), its token
        split (Dirichlet) and its env latencies (the lognormal, Pareto and
        uniform draws of :meth:`EnvLatencyDistribution.sample`), each sized
        by its turn count.  Only those generator calls run per row; what is
        computed from the draws runs once on the flat columns, with the same
        float operations per entry.
        """
        rng = self._rng
        max_turns = prompts.max_turns
        latency = self.task.env_latency
        # Number of tool calls grows with difficulty (harder bugs need more
        # debugging steps), capped at the task's turn budget.
        mean_turns = (1.0 + difficulty_to_turns(prompts.difficulty, max_turns)).tolist()
        # Split the response tokens across turns with a Dirichlet draw so
        # turn lengths are uneven (early exploration short, final answer
        # longer).
        alphas = [np.full(turns, 1.5) for turns in range(max_turns + 1)]
        log_median = np.log(latency.body_median)
        sigma, tail_alpha = latency.body_sigma, latency.spike_alpha
        poisson, dirichlet = rng.poisson, rng.dirichlet
        lognormal, pareto, uniform = rng.lognormal, rng.pareto, rng.random
        # Draws pile up as flat doubles, not as one small array per row.
        counts: List[int] = []
        shares, body, tail, uniforms = array("d"), array("d"), array("d"), array("d")
        for mean in mean_turns:
            num_turns = min(poisson(mean) + 1, max_turns)
            counts.append(num_turns)
            shares.frombytes(dirichlet(alphas[num_turns]).tobytes())
            body.frombytes(lognormal(log_median, sigma, num_turns).tobytes())
            tail.frombytes(pareto(tail_alpha, num_turns).tobytes())
            uniforms.frombytes(uniform(num_turns).tobytes())
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        totals = lengths.repeat(counts)
        segments = np.maximum(1, np.round(np.frombuffer(shares) * totals)).astype(np.int64)
        env_latencies = latency.from_draws(
            np.frombuffer(body), np.frombuffer(tail), np.frombuffer(uniforms)
        )
        # Environment latency after every turn except the last one.
        env_latencies[offsets[1:] - 1] = 0.0
        return offsets, segments, env_latencies


def difficulty_to_turns(difficulty: Union[float, np.ndarray], max_turns: int
                        ) -> Union[float, np.ndarray]:
    """Expected extra tool calls for a problem of the given difficulty.

    ``difficulty`` is a float or an array of them (elementwise, with the
    same float operations).
    """
    values = np.asarray(difficulty)
    if not ((values >= 0) & (values <= 1)).all():
        raise ValueError("difficulty must be in [0, 1]")
    if max_turns <= 1:
        return 0.0 * difficulty
    return difficulty * (max_turns - 1) * 0.6
