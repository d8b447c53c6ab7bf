"""Stream-generation baseline (Fig 3c).

Like the one-step pipeline, actor and rollouts are disaggregated, but the
actor starts training on the *current* batch's early mini-batches (built from
the trajectories that complete first) while the long-tail trajectories of the
same batch are still being generated.  The final mini-batch still waits for
the very slowest trajectory, and the global weight synchronization still
couples every rollout at the iteration boundary.

The mini-batch schedule is a fold over the barrier's outcome, and the fold
is exact.  The anchored barrier simulates the whole drain when it starts, so
every completion time is known before the first of them happens.  Sorting
the replica-major completions stably by finish time gives the order in which
a trainer woken at each completion instant would have received them.
Mini-batch ``j`` takes the next ``m`` of them, starts at
``max(cursor, finish time of the ((j + 1) * m)-th completion)`` and moves the
``cursor`` on by its optimizer-step time.  Nothing in that recurrence reads
``env.now``, so the spans computed after the join are the ones an
event-driven trainer would have recorded.  The iteration ends at the later
of the generation join and ``start + (cursor + sync)``.
"""

from __future__ import annotations

from typing import Generator

from ..metrics.results import StageBreakdown, SystemRunResult
from ..sim.engine import Environment
from .base import System, SystemCapabilities, register


@register
class StreamGeneration(System):
    """Streaming mini-batch consumption with a global sync per iteration."""

    name = "stream_gen"
    capabilities = SystemCapabilities(
        description="stream generation: train on early mini-batches while the "
                    "same batch's long tail is still generating",
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
        num_minibatches = self.config.num_minibatches
        minibatch_trajs = self.config.global_batch_size // num_minibatches

        for _ in range(num_iterations):
            start = env.now
            outcome = yield from self.generate_batch_process(
                env, self.trainer.weight_version, origin=start
            )
            completions = sorted(outcome.trajectories, key=lambda t: t.finish_time)
            cursor = 0.0
            total_train_time = 0.0
            for j in range(num_minibatches):
                data_ready = completions[(j + 1) * minibatch_trajs - 1].finish_time
                mb_tokens = sum(
                    t.total_tokens
                    for t in completions[j * minibatch_trajs:(j + 1) * minibatch_trajs]
                )
                mb_time = self.trainer.minibatch_time(mb_tokens)
                mb_start = max(cursor, data_ready)
                cursor = mb_start + mb_time
                total_train_time += mb_time
                if tracer.enabled:
                    tracer.span("trainer", "training", start + mb_start,
                                start + cursor,
                                args={"minibatch": j, "tokens": mb_tokens})
            # Iteration boundary: the blocking global weight synchronization.
            sync_end = start + (cursor + sync_time)
            if tracer.enabled:
                tracer.span("sync", "weight_sync", start + cursor, sync_end)
            if sync_end > env.now:
                yield env.timeout_until(sync_end)

            self.score_and_buffer(outcome.trajectories, self.trainer.weight_version)
            batch = self.buffer.sample(self.config.global_batch_size)
            record = self.trainer.record_iteration(batch, start, env.now)

            result.iterations.append(record)
            result.breakdowns.append(
                StageBreakdown(
                    generation_time=outcome.duration,
                    training_time=total_train_time,
                    weight_sync_time=sync_time,
                    bubble_time=outcome.bubble_time,
                )
            )
            self.record_batch_staleness(env, result, batch)
            if tracer.enabled:
                tracer.span("rollout", "generation", start, start + outcome.duration,
                            args={"tokens": outcome.tokens_generated})
                tracer.span("trainer", "iteration", start, env.now,
                            args={"iteration": len(result.iterations)})
        result.extras["global_sync_time"] = sync_time
