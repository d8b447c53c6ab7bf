"""Synthetic datasets standing in for DAPO-Math-17k and the ReTool tasks.

The real evaluation trains on the open DAPO-Math-17k dataset with 2K-token
prompts, 16 responses per prompt (GRPO group size) and, for the tool-calling
task, up to 8 code-sandbox calls per trajectory (§8).  Here we synthesize a
prompt bank with the same structural properties: per-question difficulty that
drives both solve probability and response length, prompt-length variation,
and a multi-turn flag with a turn budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .env_latency import EnvLatencyDistribution, CODE_SANDBOX, RULE_BASED_VERIFIER
from .length_dist import LengthDistribution, get_length_distribution


@dataclass(frozen=True)
class TaskSpec:
    """Describes one RL post-training task (math or tool-calling)."""

    name: str
    task_type: str  # "math" (single-turn) or "tool" (multi-turn)
    length_dist: LengthDistribution
    env_latency: EnvLatencyDistribution
    max_prompt_tokens: int = 2048
    max_response_tokens: int = 16384
    group_size: int = 16
    max_turns: int = 1

    def __post_init__(self) -> None:
        if self.task_type not in ("math", "tool"):
            raise ValueError("task_type must be 'math' or 'tool'")
        if self.group_size <= 0:
            raise ValueError("group_size must be positive")
        if self.max_turns <= 0:
            raise ValueError("max_turns must be positive")

    @property
    def multi_turn(self) -> bool:
        return self.task_type == "tool"


def math_task(model_size: str = "7B") -> TaskSpec:
    """Single-turn mathematical-reasoning task (DAPO-Math-17k style)."""
    return TaskSpec(
        name=f"dapo-math-{model_size}",
        task_type="math",
        length_dist=get_length_distribution("math", model_size),
        env_latency=RULE_BASED_VERIFIER,
        max_turns=1,
    )


def tool_task(model_size: str = "7B", max_turns: int = 8) -> TaskSpec:
    """Multi-turn tool-calling task (ReTool style, code sandbox, <=8 calls)."""
    return TaskSpec(
        name=f"retool-{model_size}",
        task_type="tool",
        length_dist=get_length_distribution("tool", model_size),
        env_latency=CODE_SANDBOX,
        max_turns=max_turns,
    )


@dataclass
class PromptBatch:
    """Columns of sampled prompts: one row per GRPO response slot.

    ``multi_turn`` and ``max_turns`` come from the task, so they hold for
    every row.  Slicing keeps rows in order (``batch[:count]``).
    """

    prompt_ids: np.ndarray
    group_ids: np.ndarray
    prompt_tokens: np.ndarray
    difficulty: np.ndarray
    multi_turn: bool = False
    max_turns: int = 1

    def __len__(self) -> int:
        return len(self.prompt_ids)

    def __getitem__(self, rows: slice) -> "PromptBatch":
        return PromptBatch(
            self.prompt_ids[rows], self.group_ids[rows], self.prompt_tokens[rows],
            self.difficulty[rows], self.multi_turn, self.max_turns,
        )


@dataclass
class PromptDataset:
    """A bank of prompts with GRPO group replication.

    ``sample_batch(num_prompts)`` returns ``num_prompts * group_size`` prompts
    — 512 prompts x 16 responses = the paper's 8192-trajectory global batch.
    """

    task: TaskSpec
    num_questions: int = 17_000
    seed: int = 0
    _difficulties: np.ndarray = field(init=False, repr=False)
    _prompt_lengths: np.ndarray = field(init=False, repr=False)
    _next_prompt_id: int = field(default=0, init=False, repr=False)
    _next_group_id: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.num_questions <= 0:
            raise ValueError("num_questions must be positive")
        rng = np.random.default_rng(self.seed)
        # Beta(2, 2) difficulty: most questions are mid-difficulty, some easy/hard.
        self._difficulties = rng.beta(2.0, 2.0, self.num_questions)
        lengths = rng.lognormal(np.log(450.0), 0.6, self.num_questions)
        self._prompt_lengths = np.clip(lengths, 64, self.task.max_prompt_tokens).astype(np.int64)

    def sample_batch(self, num_prompts: int, rng: np.random.Generator) -> PromptBatch:
        """Sample ``num_prompts`` questions, each replicated ``group_size`` times.

        One ``integers`` draw picks the questions; the ``group_size`` copies
        of a question are consecutive rows sharing its group id, and prompt
        ids number the rows.
        """
        if num_prompts <= 0:
            raise ValueError("num_prompts must be positive")
        indices = rng.integers(0, self.num_questions, num_prompts)
        group_size = self.task.group_size
        rows = num_prompts * group_size
        group_ids = np.repeat(np.arange(self._next_group_id, self._next_group_id + num_prompts),
                              group_size)
        prompt_ids = np.arange(self._next_prompt_id, self._next_prompt_id + rows)
        self._next_group_id += num_prompts
        self._next_prompt_id += rows
        return PromptBatch(
            prompt_ids=prompt_ids,
            group_ids=group_ids,
            prompt_tokens=np.repeat(self._prompt_lengths[indices], group_size),
            difficulty=np.repeat(self._difficulties[indices], group_size),
            multi_turn=self.task.multi_turn,
            max_turns=self.task.max_turns,
        )
