#!/usr/bin/env python3
"""Multi-turn tool-calling workload (the ReTool-style task of Fig 12).

Demonstrates the workload side of the library: builds the code-sandbox task,
inspects the environment-latency and turn-count distributions that create the
long-tail problem, then runs a Laminar simulation on the multi-turn task and
compares its throughput against the stream-generation baseline.

Usage::

    python examples/multi_turn_tool_calling.py
"""

from dataclasses import replace

import numpy as np

from repro.systems import LaminarSystem
from repro.experiments import make_system_config, measure_point
from repro.rollout import TrajectoryFactory
from repro.workload import PromptDataset, tool_task


def main() -> None:
    task = tool_task("7B", max_turns=8)
    dataset = PromptDataset(task, num_questions=2_000, seed=0)
    factory = TrajectoryFactory(task, seed=1)
    rng = np.random.default_rng(0)

    # ------------------------------------------------------------------ workload shape
    batch = factory.make(dataset.sample_batch(64, rng))
    turns = batch.num_turns
    env_waits = np.add.reduceat(batch.env_latencies, batch.offsets[:-1])
    lengths = batch.target
    print("=== Tool-calling workload (1024 trajectories) ===")
    print(f"  tool calls per trajectory: mean {turns.mean():.1f}, max {turns.max()}")
    print(f"  env wait per trajectory:   p50 {np.percentile(env_waits, 50):6.1f} s, "
          f"p99 {np.percentile(env_waits, 99):6.1f} s")
    print(f"  response length:           p50 {np.percentile(lengths, 50):6.0f}, "
          f"p99 {np.percentile(lengths, 99):6.0f} tokens "
          f"(skew {np.percentile(lengths, 99) / np.percentile(lengths, 50):.1f}x)")

    # ------------------------------------------------------------------ Laminar on tool task
    config = make_system_config("laminar", "7B", 32, task_type="tool")
    config = replace(config.scaled(1 / 16), num_iterations=4, warmup_iterations=1)
    system = LaminarSystem(config)
    result = system.run()
    print("\n=== Laminar on the multi-turn task (scaled) ===")
    print(f"  throughput: {result.throughput(1):.0f} tokens/s, "
          f"max inherent staleness {int(result.extras['max_inherent_staleness'])}")

    # ------------------------------------------------------------------ Fig 12 style comparison
    print("\n=== Steady-state tool-task throughput (Fig 12 shape) ===")
    for name in ("verl", "stream_gen", "laminar"):
        point = measure_point(name, "7B", 64, task_type="tool", batch_scale=0.25)
        print(f"  {name:10s}: {point.throughput:9.0f} tokens/s")


if __name__ == "__main__":
    main()
