"""Workload generators: response lengths, environment latency, prompt banks."""

from .length_dist import (
    AIME_MATH_7B,
    AIME_MATH_32B,
    AIME_MATH_72B,
    TOOL_7B,
    LENGTH_PRESETS,
    LengthDistribution,
    get_length_distribution,
)
from .env_latency import (
    CODE_SANDBOX,
    ENV_PRESETS,
    EnvLatencyDistribution,
    RULE_BASED_VERIFIER,
    get_env_latency,
)
from .datasets import PromptBatch, PromptDataset, TaskSpec, math_task, tool_task

__all__ = [
    "AIME_MATH_7B",
    "AIME_MATH_32B",
    "AIME_MATH_72B",
    "TOOL_7B",
    "LENGTH_PRESETS",
    "LengthDistribution",
    "get_length_distribution",
    "CODE_SANDBOX",
    "ENV_PRESETS",
    "EnvLatencyDistribution",
    "RULE_BASED_VERIFIER",
    "get_env_latency",
    "PromptBatch",
    "PromptDataset",
    "TaskSpec",
    "math_task",
    "tool_task",
]
