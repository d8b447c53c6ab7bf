"""Discrete-event simulation substrate for the Laminar reproduction."""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    TimeoutUntil,
)
from .cluster import H800, GPUSpec
from .kvcache import KVCache, KVCacheConfig, KVCacheError, kvcache_blocks_for_memory
from .network import (
    LinkSpec,
    PCIE_LINK,
    RDMA_LINK,
    chain_pipelined_broadcast_time,
    gpu_direct_global_sync_time,
    optimal_chain_broadcast_time,
    optimal_chunk_count,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "TimeoutUntil",
    "H800",
    "GPUSpec",
    "KVCache",
    "KVCacheConfig",
    "KVCacheError",
    "kvcache_blocks_for_memory",
    "LinkSpec",
    "PCIE_LINK",
    "RDMA_LINK",
    "chain_pipelined_broadcast_time",
    "gpu_direct_global_sync_time",
    "optimal_chain_broadcast_time",
    "optimal_chunk_count",
]
