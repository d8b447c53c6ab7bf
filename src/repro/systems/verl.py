"""Synchronous colocated baseline (verl v0.5 with HybridEngine placement).

All GPUs alternate between the generation and training stages (§2.2, Fig 3a):
generate the full global batch, switch the engines, train on it, switch back.
The stages run strictly in sequence on the event clock — the generation stage
is a barrier over every replica's drain and ends only when the single
slowest long-tail trajectory completes (the bubbles Laminar removes), and the
switch/training stages are plain timeouts on the same environment.
"""

from __future__ import annotations

from typing import Generator

from ..metrics.results import StageBreakdown, SystemRunResult
from ..sim.engine import Environment
from .base import COLOCATED_SWITCH_OVERHEAD, System, SystemCapabilities, register


@register
class VerlSynchronous(System):
    """Fully synchronous, on-policy, colocated RL training."""

    name = "verl"
    capabilities = SystemCapabilities(
        description="verl v0.5: fully synchronous, on-policy, colocated "
                    "(HybridEngine) RL training",
        colocated=True,
        weight_sync="switch",
        staleness="on_policy",
        default_staleness_bound=0,
        default_max_concurrency=8192,
        trace_spans=("iteration", "generation", "training", "weight_sync"),
    )

    def build(self, env: Environment, result: SystemRunResult,
              num_iterations: int) -> Generator:
        tracer = env.tracer
        for _ in range(num_iterations):
            start = env.now
            # --- generation stage: all GPUs act as rollout replicas ------------
            outcome = yield from self.generate_batch_process(env, self.trainer.weight_version)
            gen_end = env.now
            yield env.timeout(COLOCATED_SWITCH_OVERHEAD)
            # --- training stage: same GPUs switch to the actor -----------------
            self.score_and_buffer(outcome.trajectories, self.trainer.weight_version)
            batch = self.buffer.sample(self.config.global_batch_size)
            tokens = sum(exp.tokens for exp in batch)
            train_time = self.trainer.iteration_compute_time(tokens)
            yield env.timeout(train_time + COLOCATED_SWITCH_OVERHEAD)
            record = self.trainer.record_iteration(batch, start, env.now)
            result.iterations.append(record)
            result.breakdowns.append(
                StageBreakdown(
                    generation_time=outcome.duration,
                    training_time=train_time,
                    weight_sync_time=2 * COLOCATED_SWITCH_OVERHEAD,
                    bubble_time=outcome.bubble_time,
                )
            )
            self.record_batch_staleness(env, result, batch)
            if tracer.enabled:
                index = len(result.iterations)
                train_start = gen_end + COLOCATED_SWITCH_OVERHEAD
                tracer.span("rollout", "generation", start, gen_end,
                            args={"tokens": outcome.tokens_generated})
                tracer.span("sync", "weight_sync", gen_end, train_start,
                            args={"mechanism": "switch"})
                tracer.span("trainer", "training", train_start,
                            train_start + train_time, args={"tokens": tokens})
                tracer.span("sync", "weight_sync", train_start + train_time,
                            env.now, args={"mechanism": "switch"})
                tracer.span("trainer", "iteration", start, env.now,
                            args={"iteration": index})
