"""Parallelism layouts and the KVCache memory left on a rollout GPU.

The baselines and Laminar place the actor with FSDP (+ Ulysses sequence
parallelism) or Megatron TP/PP, and rollouts with vLLM tensor parallelism
(Table 2 / Appendix A.2).  This module describes those layouts and the GPU
memory a rollout replica has left for its KVCache.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model_spec import ModelSpec


@dataclass(frozen=True)
class ParallelConfig:
    """A parallelism layout over a group of GPUs."""

    tensor_parallel: int = 1
    pipeline_parallel: int = 1
    data_parallel: int = 1
    sequence_parallel: int = 1

    def __post_init__(self) -> None:
        for name in ("tensor_parallel", "pipeline_parallel", "data_parallel", "sequence_parallel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def model_shards(self) -> int:
        """GPUs across which one model replica is sharded."""
        return self.tensor_parallel * self.pipeline_parallel

    @property
    def world_size(self) -> int:
        return self.model_shards * self.data_parallel


def fsdp_trainer_config(num_gpus: int, fsdp_size: int, sequence_parallel: int = 1) -> ParallelConfig:
    """verl-style FSDP trainer layout (DDP across FSDP groups)."""
    if num_gpus % fsdp_size != 0:
        raise ValueError(f"num_gpus={num_gpus} not divisible by fsdp_size={fsdp_size}")
    return ParallelConfig(
        tensor_parallel=fsdp_size,
        data_parallel=num_gpus // fsdp_size,
        sequence_parallel=sequence_parallel,
    )


def megatron_trainer_config(
    num_gpus: int, tensor_parallel: int, pipeline_parallel: int
) -> ParallelConfig:
    """AReaL-style Megatron layout: DP derived from the remaining GPUs."""
    shards = tensor_parallel * pipeline_parallel
    if num_gpus % shards != 0:
        raise ValueError(
            f"num_gpus={num_gpus} not divisible by TP*PP={shards}"
        )
    return ParallelConfig(
        tensor_parallel=tensor_parallel,
        pipeline_parallel=pipeline_parallel,
        data_parallel=num_gpus // shards,
    )


def rollout_free_memory_for_kvcache(
    model: ModelSpec,
    gpu_memory_bytes: float,
    tensor_parallel: int,
    activation_reserve_fraction: float = 0.1,
) -> float:
    """GPU memory left for the KVCache after weights and activation reserve.

    vLLM reserves the model shard plus a working-set fraction; everything else
    becomes KVCache blocks.  Returns bytes available on ONE GPU of the
    tensor-parallel group.
    """
    if not 0 <= activation_reserve_fraction < 1:
        raise ValueError("activation_reserve_fraction must be in [0, 1)")
    shard = model.weight_bytes / tensor_parallel
    free = gpu_memory_bytes * (1.0 - activation_reserve_fraction) - shard
    return max(0.0, free)
