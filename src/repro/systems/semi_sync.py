"""Semi-synchronous bounded-staleness barrier hybrid (registry variant).

A new Fig 11-style series sitting between the one-step pipeline and the fully
continuous designs, composed entirely from the shared runtime pieces — the
composability proof for the system registry:

* like the one-step pipeline, every batch is generated behind a full
  ``AllOf`` barrier on disaggregated rollout GPUs and the actor pays a
  blocking GPU-direct global weight synchronization per update;
* unlike it, the rollout fleet is decoupled from the iteration boundary by a
  bounded-staleness *window*: the producer process keeps generating barriered
  batches until it runs ``staleness_bound`` batches ahead of the trainer,
  then blocks on the trainer's consumption event.

With ``staleness_bound = 1`` the hybrid trains on exactly the one-step
pipeline's batches but keeps a different clock, for two reasons.  Iteration 1
includes the first batch's generation, which one-step runs as a pipeline fill
before its first iteration.  And the producer starts the next batch as soon
as the trainer takes one, so generation overlaps the blocking sync as well as
training; one-step starts it at the iteration origin, after the sync.
Larger bounds hide generation jitter (the long-tail barrier of a slow batch
overlaps several training iterations) at the cost of staleness up to the
bound.  The iteration clock is pure event arithmetic: producer and
trainer are peer processes coupled only by ready/consumed events, and every
stage is a timeout or an ``AllOf`` join.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generator, List

from ..metrics.results import StageBreakdown, SystemRunResult
from ..runtime.harness import EventBox, GenerationOutcome
from ..sim.engine import Environment
from .base import System, SystemCapabilities, register


@register
class SemiSyncBarrier(System):
    """Barriered generation running up to k batches ahead of the trainer."""

    name = "semi_sync"
    capabilities = SystemCapabilities(
        description="semi-synchronous hybrid: barriered batches generated up "
                    "to k ahead, blocking global sync per update",
        weight_sync="global",
        staleness="bounded",
        placement_like="one_step",
        default_staleness_bound=2,
        default_max_concurrency=8192,
        trace_spans=("iteration", "generation", "training", "weight_sync"),
    )

    def build(self, env: Environment, result: SystemRunResult,
              num_iterations: int) -> Generator:
        tracer = env.tracer
        sync_time = self.global_sync_time()
        window = max(1, self.config.staleness_bound)
        ready: Deque[GenerationOutcome] = deque()
        consumed: List[int] = [0]
        data_box = EventBox(env)
        slot_box = EventBox(env)

        def producer() -> Generator:
            for index in range(num_iterations):
                # Bounded-staleness window: never run more than ``window``
                # batches ahead of the last consumed batch.
                while index - consumed[0] >= window:
                    yield slot_box.wait()
                batch_start = env.now
                outcome = yield from self.generate_batch_process(
                    env, self.trainer.weight_version, origin=env.now
                )
                if tracer.enabled:
                    tracer.span("rollout", "generation", batch_start, env.now,
                                args={"batch": index,
                                      "tokens": outcome.tokens_generated})
                ready.append(outcome)
                data_box.notify()

        env.process(producer(), name=f"{self.name}-producer")

        for _ in range(num_iterations):
            start = env.now
            while not ready:
                yield data_box.wait()
            wait_time = env.now - start
            outcome = ready.popleft()
            consumed[0] += 1
            slot_box.notify()

            self.score_and_buffer(outcome.trajectories, self.trainer.weight_version)
            batch = self.buffer.sample(self.config.global_batch_size)
            tokens = sum(exp.tokens for exp in batch)
            train_time = self.trainer.iteration_compute_time(tokens)
            train_start = env.now
            yield env.timeout(train_time)
            # Blocking global sync couples every rollout to the new weights.
            yield env.timeout(sync_time)
            record = self.trainer.record_iteration(batch, start, env.now)

            result.iterations.append(record)
            result.breakdowns.append(
                StageBreakdown(
                    generation_time=outcome.duration,
                    training_time=train_time,
                    weight_sync_time=sync_time,
                    bubble_time=outcome.bubble_time + wait_time,
                )
            )
            self.record_batch_staleness(env, result, batch)
            if tracer.enabled:
                tracer.span("trainer", "training", train_start,
                            train_start + train_time, args={"tokens": tokens})
                tracer.span("sync", "weight_sync", train_start + train_time,
                            env.now)
                tracer.span("trainer", "iteration", start, env.now,
                            args={"iteration": len(result.iterations),
                                  "wait": wait_time})
        result.extras["global_sync_time"] = sync_time
        result.extras["staleness_window"] = float(window)
