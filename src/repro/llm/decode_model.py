"""Roofline latency model for LLM generation (decode and prefill).

Figure 4 of the paper shows that one-step decode latency is nearly flat in the
decode batch size until the operation stops being memory-bound: decoding a
batch of 8 costs almost the same as a batch of 64.  That observation is what
makes trajectory repacking free (§5.2).  We reproduce it with a roofline
model (Williams et al., cited by the paper):

* memory time  = (weight shard bytes + KV bytes read for the whole batch)
                 / effective HBM bandwidth
* compute time = 2 * params * batch / effective FLOPs (per TP shard)
* step latency = max(memory, compute) + a fixed kernel/scheduler overhead.

Prefill is compute-bound and costed from FLOPs directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..sim.cluster import GPUSpec, H800
from .model_spec import ModelSpec


#: Fixed per-decode-step overhead (kernel launches, sampler, scheduler) in seconds.
DECODE_STEP_OVERHEAD = 4e-3
#: Fixed per-prefill overhead in seconds.
PREFILL_OVERHEAD = 8e-3


@dataclass(frozen=True)
class DecodeModel:
    """Latency model for one rollout replica (one TP group on one machine)."""

    model: ModelSpec
    gpu: GPUSpec = H800
    tensor_parallel: int = 1
    step_overhead: float = DECODE_STEP_OVERHEAD

    def __post_init__(self) -> None:
        if self.tensor_parallel <= 0:
            raise ValueError("tensor_parallel must be positive")

    # -- effective hardware rates ------------------------------------------------
    @property
    def effective_bandwidth(self) -> float:
        """Aggregate usable HBM bandwidth across the TP group (bytes/s)."""
        return self.gpu.hbm_bandwidth * self.gpu.membw_efficiency * self.tensor_parallel

    @property
    def effective_flops(self) -> float:
        """Aggregate usable FLOP/s across the TP group."""
        return self.gpu.peak_flops_bf16 * self.gpu.mfu * self.tensor_parallel

    # -- decode -------------------------------------------------------------------
    @cached_property
    def roofline(self) -> tuple:
        """The decode roofline's operands, derived once (the dataclass is frozen).

        ``(weight bytes, KV bytes per token, bandwidth, FLOP/s, dense FLOPs
        per token, attention FLOPs per token per context token)``, each
        associated as :meth:`ModelSpec.flops_per_token` associates it, so
        every pricing of a step built from them is bit-identical.
        """
        model = self.model
        return (
            model.weight_bytes,
            model.kv_bytes_per_token,
            self.effective_bandwidth,
            self.effective_flops,
            2.0 * model.num_parameters,
            4.0 * model.num_layers * model.hidden_size,
        )

    def decode_step_time(self, batch_size: int, context_length: int) -> float:
        """Latency of generating ONE token for each of ``batch_size`` sequences.

        ``context_length`` is the average number of tokens already cached per
        sequence (prompt + generated so far).
        """
        if batch_size < 0:
            raise ValueError("batch_size must be non-negative")
        if batch_size == 0:
            return 0.0
        context_length = max(1, int(context_length))
        weight_bytes, kv_bytes, bandwidth, flops_rate, dense, attention = self.roofline

        kv_read = batch_size * context_length * kv_bytes
        memory_time = (weight_bytes + kv_read) / bandwidth

        flops = batch_size * (dense + attention * context_length)
        compute_time = flops / flops_rate

        return max(memory_time, compute_time) + self.step_overhead

    def decode_step_time_many(
        self, batch_sizes: np.ndarray, context_lengths: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`decode_step_time` over parallel arrays.

        Bit-identical to the scalar method lane for lane: every float
        operation is applied in the same order and association
        (``(weight + batch*ctx*kv) / bw`` vs ``batch * flops(ctx) / flops``),
        with the same ``max(1, int(ctx))`` clamp, so the fused cross-replica
        stepper can price many replicas' decode batches in one call without
        perturbing any committed baseline.  Lanes with ``batch_size == 0``
        return 0.0 like the scalar method.
        """
        batch = np.asarray(batch_sizes, dtype=np.int64)
        context = np.maximum(1, np.asarray(context_lengths, dtype=np.int64))
        weight_bytes, kv_bytes, bandwidth, flops_rate, dense, attention = self.roofline
        return decode_step_time_arrays(
            batch,
            context,
            weight_bytes=weight_bytes,
            kv_bytes_per_token=kv_bytes,
            effective_bandwidth=bandwidth,
            effective_flops=flops_rate,
            dense_flops=dense,
            attn_coef=attention,
            step_overhead=self.step_overhead,
        )

    def batch_bound_for_latency_slack(
        self, context_length: int, slack: float = 2.0, max_batch: int = 4096
    ) -> int:
        """Largest batch whose step latency stays within ``slack``x the batch-1 latency.

        The repack algorithm needs an upper bound ``B`` on how many trajectories
        may be packed onto one replica "with only a negligible increase in
        latency" (§5.2).  When KV traffic keeps decode memory-bound at every
        batch size the pure roofline crossover is unbounded, so this latency-
        slack criterion provides the practical bound.
        """
        if slack < 1.0:
            raise ValueError("slack must be >= 1.0")
        base = self.decode_step_time(1, context_length)
        low, high = 1, max_batch
        if self.decode_step_time(max_batch, context_length) <= slack * base:
            return max_batch
        while low < high:
            mid = (low + high + 1) // 2
            if self.decode_step_time(mid, context_length) <= slack * base:
                low = mid
            else:
                high = mid - 1
        return low

    # -- prefill -------------------------------------------------------------------
    def prefill_time(self, prompt_tokens: int, batch_size: int = 1) -> float:
        """Latency of prefilling ``batch_size`` prompts of ``prompt_tokens`` each."""
        if prompt_tokens < 0 or batch_size < 0:
            raise ValueError("prompt_tokens and batch_size must be non-negative")
        if prompt_tokens == 0 or batch_size == 0:
            return 0.0
        # ModelSpec.flops_per_token(prompt_tokens // 2), from the cached
        # roofline operands in the same association.
        _, _, _, flops_rate, dense, attention = self.roofline
        flops = batch_size * prompt_tokens * (dense + attention * (prompt_tokens // 2))
        return flops / flops_rate + PREFILL_OVERHEAD


def decode_step_time_arrays(
    batch: np.ndarray,
    context: np.ndarray,
    *,
    weight_bytes,
    kv_bytes_per_token,
    effective_bandwidth,
    effective_flops,
    dense_flops,
    attn_coef,
    step_overhead,
) -> np.ndarray:
    """Elementwise roofline decode-step latency over parallel lanes.

    The workhorse behind :meth:`DecodeModel.decode_step_time_many`.  Every
    parameter may be a scalar or a per-lane array, so a fused cross-replica
    sweep can mix replicas with different models/TP degrees in one call.
    ``batch`` must be int64 and ``context`` already clamped to >= 1; each
    float operation mirrors :meth:`DecodeModel.decode_step_time`'s expression
    tree exactly (same association, same int->float conversion points).
    """
    kv_read = batch * context * kv_bytes_per_token
    memory_time = (weight_bytes + kv_read) / effective_bandwidth
    flops = batch * (dense_flops + attn_coef * context)
    compute_time = flops / effective_flops
    value = np.maximum(memory_time, compute_time) + step_overhead
    return np.where(batch > 0, value, 0.0)
