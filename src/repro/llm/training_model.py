"""Latency model for the actor training stage.

The trainer processes one *global batch* (8192 trajectories in §8) per RL
iteration, split into mini-batches (16 update steps per iteration in §8).
Each mini-batch step costs forward+backward FLOPs on every token plus a
gradient synchronization.  Experience preparation (reference / reward model
forward passes and advantage computation) adds a fixed fraction of iteration
time — the paper measures it at 7.3% of the RL iteration (§2.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.cluster import GPUSpec, H800
from ..sim.network import RDMA_LINK, LinkSpec
from .model_spec import ModelSpec
from .parallelism import ParallelConfig


#: Fraction of iteration time spent preparing experiences (§2.2).
EXPERIENCE_PREP_FRACTION = 0.073
#: Fixed per-optimizer-step overhead (optimizer kernels, logging), seconds.
OPTIMIZER_STEP_OVERHEAD = 0.25


@dataclass(frozen=True)
class TrainingModel:
    """Iteration/mini-batch latency model for the actor (and critic if any)."""

    model: ModelSpec
    config: ParallelConfig
    gpu: GPUSpec = H800
    inter_link: LinkSpec = RDMA_LINK
    #: Multiplier for additional colocated models executed in time-sharing
    #: (reference model forward, reward model).  GRPO needs only the reference
    #: forward, so the default adds one forward pass worth of work.
    auxiliary_forward_factor: float = 1.0 / 3.0

    @property
    def num_gpus(self) -> int:
        return self.config.world_size

    @property
    def effective_flops(self) -> float:
        return self.gpu.peak_flops_bf16 * self.gpu.mfu * self.num_gpus

    # -- mini-batch / iteration costs ---------------------------------------------
    def minibatch_step_time(self, tokens_in_minibatch: float, mean_context: int = 0) -> float:
        """Latency of one optimizer step over ``tokens_in_minibatch`` tokens."""
        if tokens_in_minibatch < 0:
            raise ValueError("tokens_in_minibatch must be non-negative")
        flops = tokens_in_minibatch * self.model.training_flops_per_token(mean_context)
        flops *= 1.0 + self.auxiliary_forward_factor
        compute = flops / self.effective_flops
        return compute + self.gradient_sync_time() + OPTIMIZER_STEP_OVERHEAD

    def gradient_sync_time(self) -> float:
        """Gradient all-reduce / reduce-scatter time across data-parallel ranks.

        Ring all-reduce moves ~2x the sharded gradient bytes per rank.
        """
        if self.config.data_parallel <= 1:
            return 0.0
        grad_bytes_per_rank = self.model.weight_bytes / self.config.model_shards
        return self.inter_link.transfer_time(2.0 * grad_bytes_per_rank)

    def iteration_time(
        self,
        total_tokens: float,
        num_minibatches: int,
        mean_context: int = 0,
        include_experience_prep: bool = True,
    ) -> float:
        """Training-stage latency of one full RL iteration."""
        if num_minibatches <= 0:
            raise ValueError("num_minibatches must be positive")
        per_minibatch = self.minibatch_step_time(total_tokens / num_minibatches, mean_context)
        total = per_minibatch * num_minibatches
        if include_experience_prep:
            total *= 1.0 + EXPERIENCE_PREP_FRACTION
        return total
