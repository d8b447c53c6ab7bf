"""Fig 9, Fig 10, Fig 14, Fig 15, Fig 16 and Table 1: the Laminar-specific
mechanisms — KVCache lifecycle, emergent staleness, relay weight sync,
fault tolerance, and repack efficiency."""

from conftest import report, run_once

from repro.experiments import (
    figure9_kvcache_lifecycle,
    figure10_staleness_distribution,
    figure14_weight_sync,
    figure15_fault_tolerance,
    figure16_repack_efficiency,
    table1_repack_stats,
)


def test_fig09_kvcache_lifecycle(benchmark):
    stats = run_once(benchmark, figure9_kvcache_lifecycle, 0, 256)
    report("Figure 9 KVCache lifecycle (32B replica)", stats)
    assert 0.0 < stats["release_fraction_of_cycle"] <= 1.0
    assert stats["mean_kvcache_utilization"] > 0.2


def test_fig10_staleness_distribution(benchmark):
    stats = run_once(benchmark, figure10_staleness_distribution, 1.0 / 16.0, 6)
    report("Figure 10 inherent staleness distribution (Laminar)", stats)
    # §6: staleness remains consistently low without any configured bound.
    assert stats["max_staleness"] <= 8
    assert stats["fraction_at_most_3"] > 0.4
    assert abs(sum(stats["distribution"].values()) - 1.0) < 1e-6


def test_fig14_weight_sync(benchmark):
    series = run_once(benchmark, figure14_weight_sync, "32B")
    series72 = figure14_weight_sync("72B")
    report("Figure 14 rollout waiting time during weight sync (32B)", series)
    report("Figure 14 rollout waiting time during weight sync (72B)", series72)
    for gpus, row in series.items():
        assert row["laminar_mean"] < row["gpu_direct"]
        assert row["laminar_best"] <= row["laminar_mean"]


def test_fig15_fault_tolerance(benchmark):
    stats = run_once(benchmark, figure15_fault_tolerance, 1.0 / 16.0, 60.0)
    report("Figure 15 rollout-machine failure and recovery", stats)
    assert stats["training_continued"]
    assert 0 < stats["recovery_seconds"] < 600.0
    assert stats["trajectories_lost"] == 0
    # Each rate is the mean of the 60 s buckets inside its own window.
    assert stats["generation_rate_before"] > 0
    assert stats["generation_rate_after_recovery"] > 0


def test_fig16_repack_efficiency(benchmark):
    stats = run_once(benchmark, figure16_repack_efficiency, "7B", 64)
    report("Figure 16 repack efficiency", stats)
    # The paper measures a ~26% generation-throughput gain from repacking.
    assert 1.02 < stats["throughput_gain"] < 3.0
    assert stats["kvcache_util_with_repack"] >= stats["kvcache_util_without_repack"] - 1e-9


def test_tab1_repack_stats(benchmark):
    rows = run_once(benchmark, table1_repack_stats, 1.0 / 16.0, 5)
    report("Table 1 repack statistics", rows)
    with_repack, without = rows["w/ repack"], rows["w/o repack"]
    assert with_repack["mean_kvcache_utilization"] > 0.0
    assert without["mean_kvcache_utilization"] > 0.0
    assert with_repack["repack_overhead_mean"] < 5.0
    # Repack should not make trajectories slower (Table 1: latency unchanged).
    assert with_repack["mean_trajectory_latency"] < 1.5 * without["mean_trajectory_latency"] + 1.0
