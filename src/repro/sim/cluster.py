"""GPU hardware constants of the paper's testbed.

The testbed (§8) is 128 machines x 8 NVIDIA H800-80GB GPUs, NVLink within a
machine and 8 x 400 Gbps RDMA between machines.  Systems address machines by
integer id and price transfers with the analytic link costs in
:mod:`repro.sim.network`; this module only holds the per-GPU specification
and the machine width.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """Static characteristics of one GPU."""

    name: str
    memory_bytes: float
    hbm_bandwidth: float  # bytes/s
    peak_flops_bf16: float  # FLOP/s
    #: Achievable fraction of peak FLOPs in LLM training/prefill kernels.
    mfu: float = 0.45
    #: Achievable fraction of HBM bandwidth in decode kernels.
    membw_efficiency: float = 0.75


#: NVIDIA H800 80GB SXM: ~990 TFLOPs BF16 dense, 3.35 TB/s HBM3.
H800 = GPUSpec(
    name="H800-80GB",
    memory_bytes=80e9,
    hbm_bandwidth=3.35e12,
    peak_flops_bf16=990e12,
    mfu=0.45,
    membw_efficiency=0.75,
)

#: GPUs per machine in the paper's H800 deployment (Table 2).  Table 2
#: placements, weight-sync machine counts and the bench executors must all
#: agree on this.
GPUS_PER_MACHINE = 8
