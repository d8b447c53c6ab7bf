"""Network cost models.

All communication in the reproduction is costed with the classic alpha–beta
model: transferring ``s`` bytes over a link costs ``T_start + s * T_byte``
(Appendix D of the paper uses exactly this formulation).  On top of single
links we provide the collective patterns the paper relies on:

* :func:`chain_pipelined_broadcast_time` — Appendix D, Eq. (1): the relay
  workers' chunked broadcast along a chain of machines.
* :func:`optimal_chunk_count` — the closed-form k* from Appendix D.
* :func:`gpu_direct_global_sync_time` — the NCCL-style broadcast used by the
  baselines, where every actor shard is broadcast to every rollout shard and
  both sides stall.
* :class:`RetryPolicy` — the bounded backoff that rides out a flapping link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

# -- Hardware constants (H800-class testbed from §8) --------------------------

#: PCIe Gen5 x16 effective bandwidth used for relay -> GPU weight loads.
PCIE_BANDWIDTH = 55e9
#: Per-NIC RDMA bandwidth: 400 Gbps.
RDMA_NIC_BANDWIDTH = 400e9 / 8
#: Each machine has 8 NICs (8 x 400 Gbps in the paper's testbed).
NICS_PER_MACHINE = 8
#: RDMA startup latency (seconds) — microseconds per Appendix D.
RDMA_STARTUP_LATENCY = 5e-6


@dataclass(frozen=True)
class LinkSpec:
    """Static description of one communication link."""

    name: str
    bandwidth: float  # bytes per second
    startup: float  # seconds

    def transfer_time(self, nbytes: float) -> float:
        """Alpha-beta cost of moving ``nbytes`` over this link once."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return self.startup
        return self.startup + nbytes / self.bandwidth

    def scaled(self, factor: float) -> "LinkSpec":
        """Degraded (or boosted) copy with bandwidth scaled by ``factor``.

        Startup latency is unchanged — congestion and partial NIC failures
        eat throughput, not the RTT floor.  ``factor == 1`` returns ``self``
        so healthy paths keep the original (identity-comparable) spec.
        """
        if factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        if factor == 1.0:
            return self
        return LinkSpec(f"{self.name}@x{factor:g}", self.bandwidth * factor, self.startup)


RDMA_LINK = LinkSpec("rdma", RDMA_NIC_BANDWIDTH * NICS_PER_MACHINE, RDMA_STARTUP_LATENCY)
RDMA_SINGLE_NIC_LINK = LinkSpec("rdma-1nic", RDMA_NIC_BANDWIDTH, RDMA_STARTUP_LATENCY)
PCIE_LINK = LinkSpec("pcie", PCIE_BANDWIDTH, 10e-6)


# -- Appendix D: chain-based pipelined broadcast ------------------------------


def chain_pipelined_broadcast_time(
    nbytes: float,
    num_nodes: int,
    chunks: Optional[int] = None,
    link: LinkSpec = RDMA_LINK,
) -> float:
    """Total latency of broadcasting ``nbytes`` to ``num_nodes - 1`` relays.

    Implements Eq. (1) of Appendix D:

        T(p, k) = (p + k - 2) * (M/k * T_byte + T_start)

    If ``chunks`` is ``None``, the optimal k* from the appendix is used.

    ``num_nodes`` counts the master relay plus all receivers (p in the paper).
    A single node (p == 1) costs nothing; p == 2 degenerates to a single
    point-to-point transfer.
    """
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    if nbytes < 0:
        raise ValueError("nbytes must be non-negative")
    if num_nodes == 1 or nbytes == 0:
        return 0.0
    p = num_nodes
    if chunks is None:
        chunks = optimal_chunk_count(nbytes, num_nodes, link)
    k = max(1, int(chunks))
    t_byte = 1.0 / link.bandwidth
    chunk_time = (nbytes / k) * t_byte + link.startup
    return (p + k - 2) * chunk_time


def optimal_chunk_count(nbytes: float, num_nodes: int, link: LinkSpec = RDMA_LINK) -> int:
    """Closed-form optimal chunk count k* = sqrt((p-2) * M * T_byte / T_start)."""
    if num_nodes <= 2 or nbytes <= 0:
        return 1
    t_byte = 1.0 / link.bandwidth
    k_star = math.sqrt((num_nodes - 2) * nbytes * t_byte / link.startup)
    return max(1, int(round(k_star)))


def optimal_chain_broadcast_time(
    nbytes: float, num_nodes: int, link: LinkSpec = RDMA_LINK
) -> float:
    """T*(p) = M*T_byte + (p-2)*T_start + 2*sqrt((p-2)*M*T_byte*T_start)."""
    if num_nodes <= 1 or nbytes <= 0:
        return 0.0
    if num_nodes == 2:
        return link.transfer_time(nbytes)
    t_byte = 1.0 / link.bandwidth
    p = num_nodes
    return (
        nbytes * t_byte
        + (p - 2) * link.startup
        + 2.0 * math.sqrt((p - 2) * nbytes * t_byte * link.startup)
    )


def gpu_direct_global_sync_time(
    nbytes_per_rank: float,
    num_rollout_machines: int,
    link: LinkSpec = RDMA_LINK,
    resharding_overhead: float = 0.25,
) -> float:
    """Latency of the baselines' NCCL-style global weight synchronization.

    Each actor shard is broadcast to the corresponding rollout shards across
    machines.  Unlike the relay chain this is a blocking collective: all
    rollouts and the actor participate, and the duration grows with the
    number of participating rollout machines because the broadcast tree gets
    deeper and the per-rank traffic is replicated to every machine hosting a
    model replica.  ``resharding_overhead`` accounts for the actor->rollout
    layout conversion performed on-GPU before the transfer.
    """
    if num_rollout_machines < 1:
        raise ValueError("num_rollout_machines must be >= 1")
    tree_depth = max(1, math.ceil(math.log2(num_rollout_machines + 1)))
    transfer = link.transfer_time(nbytes_per_rank) * tree_depth
    return transfer * (1.0 + resharding_overhead)


# -- Degraded networks (repro.faults) -----------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for failed link operations.

    The schedule is fully deterministic (no jitter): retry ``i`` waits
    ``min(base_delay * multiplier**i, max_delay)`` seconds, for at most
    ``max_retries`` attempts.  Simulated peers either all see an outage or
    none do, so jitter would only perturb the bit-identity contract without
    modelling anything.
    """

    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 8.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.base_delay <= 0 or self.multiplier < 1 or self.max_delay <= 0:
            raise ValueError("retry delays must be positive and non-decreasing")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based)."""
        return min(self.base_delay * self.multiplier ** attempt, self.max_delay)

    def wait_through(self, outage: float) -> Tuple[float, int]:
        """Total backoff and retry count to ride out an ``outage`` seconds gap.

        Returns ``(wait, retries)`` where ``wait`` is the cumulative backoff
        until the first retry that lands after the outage ends.  When the
        budget runs out first, the caller waits for the outage to clear plus
        one final (capped) backoff — the "gave up, operator re-drove it" cost.
        """
        if outage <= 0:
            return 0.0, 0
        elapsed = 0.0
        for attempt in range(self.max_retries):
            elapsed += self.delay(attempt)
            if elapsed >= outage:
                return elapsed, attempt + 1
        return outage + self.delay(self.max_retries - 1), self.max_retries
