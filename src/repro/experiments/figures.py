"""Drivers for every remaining table and figure of the evaluation.

Each function returns plain Python data (dicts / lists) so the benchmark
harness and the examples can print the same rows/series the paper reports.
Figure 11/12 live in :mod:`repro.experiments.throughput`.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..algorithms.convergence import SystemConvergenceProfile
from ..systems import (
    FailureEvent,
    FailureInjector,
    FailureKind,
    LaminarSystem,
    figure18_series,
    make_system,
    rollout_wait_comparison,
)
from ..llm import DecodeModel, QWEN_7B, QWEN_32B, QWEN_72B, get_model
from ..workload import get_env_latency, get_length_distribution
from .generation_rate import replica_batch_cycle
from .placements import make_system_config
from .throughput import measure_point


# --------------------------------------------------------------------------- Fig 1b
def figure1_time_breakdown(batch_scale: float = 1.0 / 8.0, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Stage-time fractions of synchronous RL on single- and multi-turn tasks."""
    out: Dict[str, Dict[str, float]] = {}
    for task_type in ("math", "tool"):
        config = make_system_config("verl", "7B", 32, task_type=task_type, seed=seed)
        config = config.scaled(batch_scale)
        config = replace(config, num_iterations=2, warmup_iterations=0)
        result = make_system(config).run()
        out[task_type] = result.mean_breakdown().fractions()
    return out


# --------------------------------------------------------------------------- Fig 2 / 17
def figure2_distributions(num_samples: int = 100_000, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Response-length and sandbox-latency distribution statistics."""
    rng = np.random.default_rng(seed)
    lengths = get_length_distribution("math", "7B").sample(rng, num_samples)
    latencies = get_env_latency("code-sandbox").sample(rng, num_samples)
    return {
        "response_length": {
            "p50": float(np.percentile(lengths, 50)),
            "p99": float(np.percentile(lengths, 99)),
            "skew_p99_over_p50": float(np.percentile(lengths, 99) / np.percentile(lengths, 50)),
            "mean": float(lengths.mean()),
            "max": float(lengths.max()),
        },
        "env_latency": {
            "p50": float(np.percentile(latencies, 50)),
            "p99": float(np.percentile(latencies, 99)),
            "mean": float(latencies.mean()),
            "max": float(latencies.max()),
        },
    }


def figure17_length_distributions(num_samples: int = 50_000, seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Per-checkpoint response-length statistics (Fig 17 a-d)."""
    rng = np.random.default_rng(seed)
    out: Dict[str, Dict[str, float]] = {}
    for key in ("math-7B", "math-32B", "math-72B", "tool-7B"):
        task, size = key.split("-")
        dist = get_length_distribution(task, size)
        samples = dist.sample(rng, num_samples)
        out[key] = {
            "p50": float(np.percentile(samples, 50)),
            "p95": float(np.percentile(samples, 95)),
            "p99": float(np.percentile(samples, 99)),
            "mean": float(samples.mean()),
            "max_tokens": float(dist.max_tokens),
        }
    return out


# --------------------------------------------------------------------------- Fig 4
def figure4_decode_latency(
    sequence_length: int = 4096,
    batch_sizes: Optional[List[int]] = None,
) -> Dict[str, Dict[int, float]]:
    """One-step decode latency (ms) vs decode batch size for 7B/32B and TP sizes."""
    batch_sizes = batch_sizes or [1, 4, 8, 16, 32, 64, 128, 256, 512]
    configs = [
        ("7B, TP=1", QWEN_7B, 1),
        ("7B, TP=2", QWEN_7B, 2),
        ("7B, TP=4", QWEN_7B, 4),
        ("32B, TP=2", QWEN_32B, 2),
        ("32B, TP=4", QWEN_32B, 4),
        ("32B, TP=8", QWEN_32B, 8),
    ]
    series: Dict[str, Dict[int, float]] = {}
    for label, model, tp in configs:
        decode = DecodeModel(model=model, tensor_parallel=tp)
        series[label] = {
            b: decode.decode_step_time(b, sequence_length) * 1e3 for b in batch_sizes
        }
    return series


# --------------------------------------------------------------------------- Fig 9
def figure9_kvcache_lifecycle(seed: int = 0, batch_size: int = 512) -> Dict[str, object]:
    """KVCache utilisation lifecycle of one 32B TP=4 replica over a 512-batch."""
    config = make_system_config("laminar", "32B", 128, seed=seed)
    cycle = replica_batch_cycle(config, batch_size=batch_size, seed=seed)
    return {
        "batch_size": cycle.batch_size,
        "full_duration_s": cycle.full_duration,
        "release_time_s": cycle.release_time,
        "release_fraction_of_cycle": cycle.release_time / cycle.full_duration,
        "mean_kvcache_utilization": cycle.mean_kvcache_utilization,
        "mean_kvcache_utilization_to_release": cycle.mean_kvcache_utilization_to_release,
        "tokens_generated": cycle.total_tokens,
    }


# --------------------------------------------------------------------------- Fig 10
def figure10_staleness_distribution(
    batch_scale: float = 1.0 / 8.0, num_iterations: int = 8, seed: int = 0
) -> Dict[str, object]:
    """Inherent staleness distribution of Laminar trajectories (7B, 64 GPUs)."""
    config = make_system_config("laminar", "7B", 64, seed=seed).scaled(batch_scale)
    config = replace(config, num_iterations=num_iterations, warmup_iterations=1)
    system = LaminarSystem(config)
    system.run()
    tracker = system.staleness
    by_bucket = {
        f"{int(lo)}-{int(hi)}s": dist
        for (lo, hi), dist in tracker.by_finish_time_bucket(bucket_seconds=120.0).items()
    }
    return {
        "distribution": tracker.distribution(),
        "max_staleness": tracker.max_staleness(),
        "mean_staleness": tracker.mean_staleness(),
        "fraction_at_most_3": tracker.fraction_at_most(3),
        "by_finish_time": by_bucket,
    }


# --------------------------------------------------------------------------- Fig 13
def figure13_profiles(model_size: str = "7B", total_gpus: int = 32,
                      seed: int = 0) -> List[SystemConvergenceProfile]:
    """Build per-system convergence profiles from the throughput model.

    Memoised per process: each profile set prices one full throughput
    measurement per system (tens of seconds at the paper's batch geometry),
    and the convergence benchmark grid asks for the identical set once per
    (system × scale) unit.  The profiles are frozen dataclasses, so sharing
    the tuple across callers is safe; a fresh list is returned each call.
    """
    return list(_figure13_profiles_cached(model_size, total_gpus, seed))


@lru_cache(maxsize=32)
def _figure13_profiles_cached(
    model_size: str, total_gpus: int, seed: int
) -> Tuple[SystemConvergenceProfile, ...]:
    profiles: List[SystemConvergenceProfile] = []
    spec = {
        "verl": dict(mean_staleness=0.0, max_staleness=0, mixture_fraction=0.0, algorithm="grpo"),
        "one_step": dict(mean_staleness=1.0, max_staleness=1, mixture_fraction=0.0, algorithm="grpo"),
        "stream_gen": dict(mean_staleness=1.0, max_staleness=1, mixture_fraction=0.0, algorithm="grpo"),
        "areal": dict(mean_staleness=2.5, max_staleness=4, mixture_fraction=0.35,
                      algorithm="decoupled_ppo"),
        "laminar": dict(mean_staleness=1.0, max_staleness=4, mixture_fraction=0.0, algorithm="grpo"),
    }
    for system, kwargs in spec.items():
        point = measure_point(system, model_size, total_gpus, seed=seed)
        profiles.append(
            SystemConvergenceProfile(name=system, iteration_time=point.iteration_time, **kwargs)
        )
    return tuple(profiles)


# --------------------------------------------------------------------------- Fig 14
def figure14_weight_sync(model_size: str = "32B",
                         rollout_gpu_counts: Optional[List[int]] = None) -> Dict[int, Dict[str, float]]:
    """Rollout waiting time during weight sync: Laminar relay vs GPU-direct."""
    rollout_gpu_counts = rollout_gpu_counts or [32, 64, 128, 256, 512]
    model = get_model(model_size)
    tp = 4 if model_size == "32B" else 8
    return {
        gpus: rollout_wait_comparison(model, gpus, tp) for gpus in rollout_gpu_counts
    }


# --------------------------------------------------------------------------- Fig 15
def figure15_fault_tolerance(batch_scale: float = 1.0 / 8.0, failure_time: float = 60.0,
                             seed: int = 0) -> Dict[str, object]:
    """Throughput timeline with a rollout-machine failure mid-run (32B setting
    scaled down to a 7B/64-GPU equivalent so the simulation stays fast)."""
    config = make_system_config("laminar", "7B", 64, seed=seed).scaled(batch_scale)
    config = replace(config, num_iterations=30, warmup_iterations=1)
    injector = FailureInjector()
    injector.add(FailureEvent(time=failure_time, kind=FailureKind.ROLLOUT_MACHINE, target=0))
    system = LaminarSystem(config, failure_injector=injector)
    result = system.run()
    records = system.manager.recovery_records
    rate = system.generation_rate_series(bucket=60.0)
    recovered_at = records[0].recovered_at if records else failure_time
    window_end = min(result.wall_clock, recovered_at + 600.0)

    def mean_rate(start: float, end: float) -> float:
        """Mean of the 60 s buckets starting in ``[start, end)``; NaN if none."""
        return rate.window_mean(start, end) if end > start else math.nan

    before = mean_rate(0.0, failure_time)
    during = mean_rate(failure_time, recovered_at)
    after = mean_rate(recovered_at, window_end)
    return {
        "failure_time": failure_time,
        "recovery_seconds": records[0].downtime if records else 0.0,
        "trajectories_redirected": records[0].trajectories_redirected if records else 0,
        "trajectories_lost": records[0].trajectories_lost if records else 0,
        "generation_rate_before": before,
        "generation_rate_during_outage": during,
        "generation_rate_after_recovery": after,
        "iterations_completed": len(result.iterations),
        "training_continued": len(result.iterations) > 0,
    }


# --------------------------------------------------------------------------- Fig 16 / Table 1
def figure16_repack_efficiency(model_size: str = "32B", total_gpus: int = 128,
                               seed: int = 0) -> Dict[str, object]:
    """Generation throughput and KVCache utilisation with and without repack."""
    config = make_system_config("laminar", model_size, total_gpus, seed=seed)
    cycle = replica_batch_cycle(config, seed=seed)
    with_repack = cycle.rate_with_repack
    without_repack = cycle.rate_without_repack
    return {
        "generation_rate_with_repack": with_repack,
        "generation_rate_without_repack": without_repack,
        "throughput_gain": with_repack / without_repack if without_repack else float("inf"),
        "kvcache_util_with_repack": cycle.mean_kvcache_utilization_to_release,
        "kvcache_util_without_repack": cycle.mean_kvcache_utilization,
        "replica_cycle_time": cycle.full_duration,
        "replica_release_time": cycle.release_time,
    }


def table1_repack_stats(batch_scale: float = 1.0 / 8.0, num_iterations: int = 6,
                        seed: int = 0) -> Dict[str, Dict[str, float]]:
    """Table 1: trajectory latency, repack overhead and KVCache utilisation."""
    rows: Dict[str, Dict[str, float]] = {}
    for enabled in (True, False):
        config = make_system_config("laminar", "7B", 64, seed=seed).scaled(batch_scale)
        config = replace(config, num_iterations=num_iterations, warmup_iterations=1,
                         repack_enabled=enabled)
        system = LaminarSystem(config)
        result = system.run()
        latencies = [s.generation_latency for s in system.staleness.samples]
        rows["w/ repack" if enabled else "w/o repack"] = {
            "mean_trajectory_latency": float(np.mean(latencies)) if latencies else 0.0,
            "max_trajectory_latency": float(np.max(latencies)) if latencies else 0.0,
            "repack_overhead_mean": result.extras.get("repack_overhead_mean", 0.0),
            "mean_kvcache_utilization": system.mean_kvcache_utilization(),
            "throughput": result.steady_throughput(2),
        }
    return rows


# --------------------------------------------------------------------------- Fig 18
def figure18_broadcast_latency() -> Dict[str, Dict[int, float]]:
    """Relay broadcast latency vs machine count for the 32B and 72B models."""
    return {
        "32B": figure18_series(QWEN_32B),
        "72B": figure18_series(QWEN_72B),
    }


# --------------------------------------------------------------------------- Table 3
def table3_hyperparameters() -> Dict[str, Dict[str, object]]:
    """Convergence-experiment hyperparameters (Table 3)."""
    base = {
        "algorithm": "GRPO",
        "learning_rate": 1e-6,
        "weight_decay": 0.1,
        "clip_eps_high": 0.28,
        "clip_eps_low": 0.2,
        "discount_gamma": 1.0,
        "gae_lambda": 1.0,
        "group_size": 16,
        "global_batch_size": 8192,
        "mini_batch_size": 512,
        "max_staleness": 0,
        "sampling": None,
        "per_rollout_max_concurrency": None,
    }
    table: Dict[str, Dict[str, object]] = {}
    table["verl"] = dict(base)
    for name in ("one_step", "stream_gen"):
        row = dict(base)
        row.update(mini_batch_size=2048, max_staleness=1)
        table[name] = row
    areal = dict(base)
    areal.update(
        algorithm="Decoupled PPO",
        learning_rate=2e-5,
        weight_decay=0.05,
        clip_eps_high=0.2,
        mini_batch_size=2048,
        max_staleness=4,
        sampling="FIFO",
        per_rollout_max_concurrency=256,
    )
    table["areal"] = areal
    laminar = dict(base)
    laminar.update(
        mini_batch_size=2048,
        max_staleness="4 (observed)",
        sampling="FIFO",
        per_rollout_max_concurrency=256,
    )
    table["laminar"] = laminar
    return table
