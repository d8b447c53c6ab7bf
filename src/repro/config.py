"""Run configuration shared by Laminar and every baseline system.

A :class:`SystemConfig` captures everything needed to simulate one point of
the evaluation grid: model, task, GPU split, parallelism, batch geometry and
the per-system knobs (staleness bound, repack, partial rollout).  The
experiment drivers in :mod:`repro.experiments` construct these from the
paper's Table 2 / Table 3 settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from .llm.model_spec import ModelSpec, get_model
from .llm.parallelism import ParallelConfig, fsdp_trainer_config, megatron_trainer_config
from .sim.cluster import GPUSpec, H800
from .trainer.trainer import TrainerConfig
from .workload.datasets import TaskSpec, math_task, tool_task


@dataclass(frozen=True)
class SystemConfig:
    """Full description of one simulated RL post-training run."""

    system: str
    model_size: str
    task_type: str  # "math" or "tool"
    trainer_gpus: int
    rollout_gpus: int
    rollout_tensor_parallel: int
    trainer_parallel: ParallelConfig
    global_batch_size: int = 8192
    num_prompts_per_batch: int = 512
    num_minibatches: int = 16
    max_concurrency_per_replica: int = 1024
    #: k-step staleness bound for pipelined baselines (ignored by Laminar).
    staleness_bound: int = 1
    #: Enables the repack mechanism (Laminar only).
    repack_enabled: bool = True
    #: Repack periodic-check interval in seconds (§5.1).
    repack_interval: float = 5.0
    #: Number of measured iterations and warm-up iterations.
    num_iterations: int = 5
    warmup_iterations: int = 2
    seed: int = 0
    gpu: GPUSpec = H800
    max_tool_turns: int = 8
    #: Persistent stragglers (repro.faults): ``(replica_id, factor)`` pairs.
    #: Every system builds replicas through the shared workload, so the
    #: slowdown applies identically to barrier and continuous orchestrations.
    #: Factors multiply both decode step time and environment latency; the
    #: empty default is the nominal cluster.
    straggler_factors: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.trainer_gpus <= 0:
            raise ValueError("trainer_gpus must be positive")
        if self.rollout_gpus < 0:
            raise ValueError("rollout_gpus must be non-negative")
        if self.rollout_tensor_parallel <= 0:
            raise ValueError("rollout_tensor_parallel must be positive")
        if self.global_batch_size % self.num_prompts_per_batch != 0:
            raise ValueError("global_batch_size must be divisible by num_prompts_per_batch")
        if self.task_type not in ("math", "tool"):
            raise ValueError("task_type must be 'math' or 'tool'")
        if self.num_iterations <= 0:
            raise ValueError("num_iterations must be positive")
        if self.warmup_iterations < 0 or self.warmup_iterations >= self.num_iterations:
            raise ValueError("warmup_iterations must be in [0, num_iterations)")
        for entry in self.straggler_factors:
            replica_id, factor = entry
            if replica_id < 0:
                raise ValueError("straggler replica_id must be non-negative")
            if factor <= 0:
                raise ValueError("straggler factor must be positive")

    # -- derived objects -----------------------------------------------------------
    @property
    def total_gpus(self) -> int:
        """Total GPUs in the configuration (colocated systems reuse the same GPUs)."""
        if self.colocated:
            return self.trainer_gpus
        return self.trainer_gpus + self.rollout_gpus

    @property
    def colocated(self) -> bool:
        return self.rollout_gpus == 0

    @property
    def group_size(self) -> int:
        return self.global_batch_size // self.num_prompts_per_batch

    def model(self) -> ModelSpec:
        return get_model(self.model_size)

    def task(self) -> TaskSpec:
        if self.task_type == "math":
            spec = math_task(self.model_size)
        else:
            spec = tool_task(self.model_size, max_turns=self.max_tool_turns)
        if spec.group_size != self.group_size:
            spec = replace(spec, group_size=self.group_size)
        return spec

    def trainer_config(self) -> TrainerConfig:
        return TrainerConfig(
            global_batch_size=self.global_batch_size,
            num_minibatches=self.num_minibatches,
        )

    def num_rollout_replicas(self) -> int:
        """Rollout replicas (TP groups) available for generation."""
        gpus = self.trainer_gpus if self.colocated else self.rollout_gpus
        return max(1, gpus // self.rollout_tensor_parallel)

    def scaled(self, factor: float) -> "SystemConfig":
        """Return a configuration with the batch scaled down by ``factor``.

        Used by the benchmark harness to keep simulated runs fast while
        preserving the per-replica workload shape (the prompt count and batch
        size shrink together so the group size is unchanged).
        """
        if factor <= 0 or factor > 1:
            raise ValueError("factor must be in (0, 1]")
        prompts = max(1, int(round(self.num_prompts_per_batch * factor)))
        batch = prompts * self.group_size
        minibatches = min(self.num_minibatches, max(1, batch // 64))
        while batch % minibatches != 0:
            minibatches -= 1
        return replace(
            self,
            num_prompts_per_batch=prompts,
            global_batch_size=batch,
            num_minibatches=max(1, minibatches),
        )


def default_trainer_parallel(model_size: str, trainer_gpus: int, system: str) -> ParallelConfig:
    """Trainer parallelism per Appendix A.2.

    AReaL uses Megatron TP/PP; every other system uses FSDP (+ Ulysses SP).
    FSDP/TP sizes follow the appendix: 8/4 for 7B, 16/8 for 32B, 32/8 for 72B;
    AReaL uses TP,PP = (2,1), (4,2), (4,4).
    """
    if system == "areal":
        tp, pp = {"7B": (2, 1), "32B": (4, 2), "72B": (4, 4)}[model_size]
        shards = tp * pp
        if trainer_gpus < shards:
            tp, pp = trainer_gpus, 1
            shards = tp
        usable = (trainer_gpus // shards) * shards
        return megatron_trainer_config(max(shards, usable), tp, pp)
    fsdp, sp = {"7B": (8, 4), "32B": (16, 8), "72B": (32, 8)}[model_size]
    if trainer_gpus < fsdp:
        fsdp = trainer_gpus
    usable = (trainer_gpus // fsdp) * fsdp
    return fsdp_trainer_config(max(fsdp, usable), fsdp, sequence_parallel=sp)
