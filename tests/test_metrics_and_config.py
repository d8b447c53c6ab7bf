"""Tests for metrics time series, run configuration and ablation-style sweeps."""

import math

import pytest

from repro.config import SystemConfig, default_trainer_parallel
from repro.systems import optimal_chunks, broadcast_latency
from repro.llm import QWEN_32B
from repro.metrics import EventCounterSeries, TimeSeries
from repro.sim.network import RDMA_SINGLE_NIC_LINK, chain_pipelined_broadcast_time


# --------------------------------------------------------------------------- time series
def test_timeseries_window_mean():
    series = TimeSeries(name="util")
    for t, v in [(0.0, 0.1), (10.0, 0.5), (20.0, 0.9)]:
        series.record(t, v)
    assert series.window_mean(0.0, 30.0) == pytest.approx(0.5)
    assert series.window_mean(10.0, 20.0) == 0.5  # half-open: 20.0 excluded
    # An empty window has no rate: NaN, never a neighbouring window's value.
    assert math.isnan(series.window_mean(21.0, 40.0))
    with pytest.raises(ValueError):
        series.window_mean(5.0, 5.0)
    with pytest.raises(ValueError):
        series.record(5.0, 1.0)  # timestamps must not go backwards


def test_event_counter_rate_series():
    counter = EventCounterSeries(name="tokens")
    for t in range(10):
        counter.record(float(t), 100.0)
    rate = counter.rate_series(bucket=5.0)
    assert counter.total() == 1000.0
    assert len(rate) >= 2
    assert rate.values[0] == pytest.approx(100.0)  # 500 tokens / 5 s


# --------------------------------------------------------------------------- config validation
def test_system_config_validation_errors():
    parallel = default_trainer_parallel("7B", 8, "verl")
    base = dict(system="verl", model_size="7B", task_type="math", trainer_gpus=8,
                rollout_gpus=0, rollout_tensor_parallel=2, trainer_parallel=parallel)
    assert SystemConfig(**base).colocated
    with pytest.raises(ValueError):
        SystemConfig(**{**base, "task_type": "vision"})
    with pytest.raises(ValueError):
        SystemConfig(**{**base, "global_batch_size": 1000, "num_prompts_per_batch": 300})
    with pytest.raises(ValueError):
        SystemConfig(**{**base, "num_iterations": 2, "warmup_iterations": 2})


def test_default_trainer_parallel_handles_small_gpu_counts():
    # Fewer trainer GPUs than the preferred FSDP group size must still work.
    config = default_trainer_parallel("32B", 8, "one_step")
    assert config.world_size <= 16
    areal = default_trainer_parallel("72B", 32, "areal")
    assert areal.model_shards == 16  # TP=4 x PP=4


def test_system_config_task_group_size_follows_batch_geometry():
    parallel = default_trainer_parallel("7B", 8, "verl")
    config = SystemConfig(system="verl", model_size="7B", task_type="math",
                          trainer_gpus=8, rollout_gpus=0, rollout_tensor_parallel=2,
                          trainer_parallel=parallel, global_batch_size=256,
                          num_prompts_per_batch=32)
    assert config.group_size == 8
    assert config.task().group_size == 8


# --------------------------------------------------------------------------- ablation: chunk sweep
def test_chunk_count_ablation_optimum_matches_k_star():
    """Appendix D ablation: Eq. (1) is minimised near the closed-form k*."""
    nodes = 64
    nbytes = QWEN_32B.weight_bytes
    k_star = optimal_chunks(QWEN_32B, nodes)
    best_time = broadcast_latency(QWEN_32B, nodes)
    for k in (1, 4, 16, 64, 256, 1024, 8192, 65536):
        assert chain_pipelined_broadcast_time(nbytes, nodes, k, RDMA_SINGLE_NIC_LINK) >= best_time * 0.999
    assert k_star >= 1
