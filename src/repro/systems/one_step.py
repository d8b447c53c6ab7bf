"""One-step staleness pipeline baseline (Fig 3b).

Actor and rollouts live on disjoint GPU sets.  While the actor trains on the
batch generated during the previous iteration, the rollouts generate the next
batch with the previous weights (k = 1 bounded staleness).  At the end of the
iteration a blocking GPU-direct global weight synchronization distributes the
new weights to every rollout.

The iteration clock is pure event arithmetic: the training stage and the
generation barrier run as concurrent processes started at the iteration
origin, the iteration's compute phase ends at their ``AllOf`` join (the
pipeline hides whichever stage is shorter), and the blocking global sync is a
plain timeout after the join.  The generation barrier — a join over
anchored replica drains — still ends only when the slowest long-tail
trajectory finishes.
"""

from __future__ import annotations

from typing import Generator

from ..metrics.results import StageBreakdown, SystemRunResult
from ..sim.engine import Environment
from .base import System, SystemCapabilities, register


@register
class OneStepStaleness(System):
    """k=1 bounded-staleness pipelined RL training."""

    name = "one_step"
    capabilities = SystemCapabilities(
        description="one-step staleness pipeline: train on batch i while "
                    "generating batch i+1, blocking global sync per iteration",
        weight_sync="global",
        staleness="bounded",
        default_staleness_bound=1,
        default_max_concurrency=8192,
        trace_spans=("iteration", "generation", "training", "weight_sync"),
    )

    def build(self, env: Environment, result: SystemRunResult,
              num_iterations: int) -> Generator:
        tracer = env.tracer
        sync_time = self.global_sync_time()

        # Pipeline fill: generate the first batch before training can start.
        fill_start = env.now
        outcome = yield from self.generate_batch_process(env, 0, origin=env.now)
        if tracer.enabled:
            tracer.span("rollout", "generation", fill_start, env.now,
                        args={"tokens": outcome.tokens_generated,
                              "phase": "pipeline_fill"})
            tracer.span("sync", "weight_sync", env.now, env.now + sync_time)
        yield env.timeout(sync_time)
        self.score_and_buffer(outcome.trajectories, self.trainer.weight_version)

        for _ in range(num_iterations):
            start = env.now
            batch = self.buffer.sample(self.config.global_batch_size)
            tokens = sum(exp.tokens for exp in batch)
            train_time = self.trainer.iteration_compute_time(tokens)

            # Rollouts generate the next batch with the current (pre-update)
            # weights while the actor trains; both stages start at the
            # iteration origin and the iteration's compute phase is their
            # AllOf join.  The blocking global sync then couples every
            # rollout to the new weights.
            generation = env.process(
                self._generation(env, start), name=f"{self.name}-generation"
            )
            training = env.process(self._training(env, train_time),
                                   name=f"{self.name}-training")
            yield env.all_of([generation, training])
            join = env.now
            yield env.timeout(sync_time)
            outcome = generation.value
            record = self.trainer.record_iteration(batch, start, env.now)
            # The freshly generated batch becomes visible only now, after the
            # global synchronization barrier.
            self.score_and_buffer(outcome.trajectories, self.trainer.weight_version)

            stage_time = max(train_time, outcome.duration)
            result.iterations.append(record)
            result.breakdowns.append(
                StageBreakdown(
                    generation_time=outcome.duration,
                    training_time=train_time,
                    weight_sync_time=sync_time,
                    bubble_time=outcome.bubble_time + max(0.0, stage_time - outcome.duration),
                )
            )
            self.record_batch_staleness(env, result, batch)
            if tracer.enabled:
                tracer.span("rollout", "generation", start, start + outcome.duration,
                            args={"tokens": outcome.tokens_generated})
                tracer.span("trainer", "training", start, start + train_time,
                            args={"tokens": tokens})
                tracer.span("sync", "weight_sync", join, env.now)
                tracer.span("trainer", "iteration", start, env.now,
                            args={"iteration": len(result.iterations)})
        result.extras["global_sync_time"] = sync_time

    # ------------------------------------------------------------------ stages
    def _generation(self, env: Environment, origin: float) -> Generator:
        outcome = yield from self.generate_batch_process(
            env, self.trainer.weight_version, origin=origin
        )
        return outcome

    def _training(self, env: Environment, train_time: float) -> Generator:
        yield env.timeout(train_time)
