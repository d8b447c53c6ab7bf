"""Helpers for sizing rollout replicas from model + GPU + TP configuration."""

from __future__ import annotations

from dataclasses import dataclass

from ..llm.decode_model import DecodeModel
from ..llm.model_spec import ModelSpec
from ..llm.parallelism import rollout_free_memory_for_kvcache
from ..sim.cluster import GPUSpec, H800
from ..sim.kvcache import DEFAULT_BLOCK_SIZE, KVCacheConfig, kvcache_blocks_for_memory


@dataclass(frozen=True)
class RolloutReplicaConfig:
    """Static configuration of one rollout replica (one TP group)."""

    model: ModelSpec
    tensor_parallel: int
    gpu: GPUSpec = H800
    max_concurrency: int = 1024
    kvcache_headroom: float = 0.1

    def __post_init__(self) -> None:
        if self.tensor_parallel <= 0:
            raise ValueError("tensor_parallel must be positive")
        if self.max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")

    def decode_model(self) -> DecodeModel:
        return DecodeModel(
            model=self.model, gpu=self.gpu, tensor_parallel=self.tensor_parallel
        )

    def kvcache_config(self) -> KVCacheConfig:
        """KVCache sizing: free memory after the weight shard, across the TP group."""
        per_gpu_free = rollout_free_memory_for_kvcache(
            self.model,
            self.gpu.memory_bytes,
            self.tensor_parallel,
            activation_reserve_fraction=self.kvcache_headroom,
        )
        total_free = per_gpu_free * self.tensor_parallel
        blocks = kvcache_blocks_for_memory(
            total_free, self.model.kv_bytes_per_token, DEFAULT_BLOCK_SIZE
        )
        if blocks <= 0:
            raise ValueError(
                f"{self.model.name} does not fit on {self.tensor_parallel} x "
                f"{self.gpu.name}: no memory left for KVCache"
            )
        return KVCacheConfig(total_blocks=blocks, block_size=DEFAULT_BLOCK_SIZE)
