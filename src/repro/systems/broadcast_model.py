"""Appendix D: analytical model of the chain-based pipelined broadcast.

Provides the closed-form latency expressions (Eq. 1, the optimal chunk count
k*, and T*(p)) plus the comparison against the baselines' GPU-direct global
synchronization — the data behind Fig 14 and Fig 18.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..llm.model_spec import ModelSpec
from ..sim.network import (
    LinkSpec,
    PCIE_LINK,
    RDMA_SINGLE_NIC_LINK,
    chain_pipelined_broadcast_time,
    gpu_direct_global_sync_time,
    optimal_chunk_count,
)


@dataclass(frozen=True)
class BroadcastBreakdown:
    """Decomposition of T*(p) into the Appendix-D terms."""

    bandwidth_term: float
    latency_term: float
    pipeline_term: float


def broadcast_latency(model: ModelSpec, num_machines: int,
                      link: LinkSpec = RDMA_SINGLE_NIC_LINK, chunks: int | None = None) -> float:
    """Latency of broadcasting ``model``'s weights to ``num_machines`` relays."""
    return chain_pipelined_broadcast_time(model.weight_bytes, num_machines, chunks, link)


def broadcast_breakdown(model: ModelSpec, num_machines: int,
                        link: LinkSpec = RDMA_SINGLE_NIC_LINK) -> BroadcastBreakdown:
    """The three terms of T*(p): bandwidth, latency and pipeline (Appendix D.3)."""
    nbytes = model.weight_bytes
    t_byte = 1.0 / link.bandwidth
    p = num_machines
    if p <= 2:
        return BroadcastBreakdown(nbytes * t_byte, max(0, p - 1) * link.startup, 0.0)
    pipeline = 2.0 * ((p - 2) * nbytes * t_byte * link.startup) ** 0.5
    return BroadcastBreakdown(
        bandwidth_term=nbytes * t_byte,
        latency_term=(p - 2) * link.startup,
        pipeline_term=pipeline,
    )


def figure18_series(model: ModelSpec, machine_counts: List[int] | None = None,
                    link: LinkSpec = RDMA_SINGLE_NIC_LINK) -> Dict[int, float]:
    """Relay broadcast latency vs number of machines (Fig 18)."""
    machine_counts = machine_counts or [4, 8, 16, 32, 64, 128]
    return {m: broadcast_latency(model, m, link) for m in machine_counts}


def rollout_wait_comparison(
    model: ModelSpec,
    rollout_gpus: int,
    rollout_tensor_parallel: int,
    gpus_per_machine: int = 8,
    broadcast_wait_fraction: float = 0.15,
) -> Dict[str, float]:
    """Fig 14 comparison: rollout waiting time, Laminar relay vs GPU-direct sync.

    * ``gpu_direct``: every rollout participates in a blocking NCCL broadcast
      from the actor, whose latency grows with the number of rollout machines.
    * ``laminar_best``: the weights are already resident on the colocated relay
      and the rollout only pays the parallel PCIe shard load.
    * ``laminar_mean``: a fraction of pulls land while the relay broadcast is
      still in flight and additionally wait for part of it; with trajectory-
      level asynchrony the fraction is small (§8.3).
    """
    if rollout_gpus <= 0:
        raise ValueError("rollout_gpus must be positive")
    machines = max(1, rollout_gpus // gpus_per_machine)
    gpu_direct = gpu_direct_global_sync_time(model.weight_bytes, machines)
    shard = model.weight_bytes / max(1, rollout_tensor_parallel)
    pcie_load = PCIE_LINK.transfer_time(shard)
    broadcast = broadcast_latency(model, machines)
    return {
        "gpu_direct": gpu_direct,
        "laminar_best": pcie_load,
        "laminar_mean": pcie_load + broadcast_wait_fraction * broadcast,
        "relay_broadcast": broadcast,
        "num_machines": float(machines),
    }


def optimal_chunks(model: ModelSpec, num_machines: int, link: LinkSpec = RDMA_SINGLE_NIC_LINK) -> int:
    return optimal_chunk_count(model.weight_bytes, num_machines, link)
