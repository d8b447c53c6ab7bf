"""Tests for the bench features: the broadcast-latency scenario kind, the
``--budget`` wall-clock gate and the system CLI surface (``list --systems``
and the ``--system`` grid filter)."""

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.compare import VERDICT_IMPROVEMENT, VERDICT_REGRESSION, judge_unit
from repro.bench.registry import ScenarioConfig, get_scenario, register_scenario, unregister_scenario
from repro.bench.runner import PRIMARY_METRICS, UnitResult, execute_unit


@pytest.fixture
def cheap_scenario():
    scenario = register_scenario(ScenarioConfig(
        id="features_test_scenario",
        description="test-only",
        kind="weight_sync",
        systems=("laminar",),
        model_size="32B",
        gpu_scales=(128,),
        iterations=1,
        warmup=0,
        timeout_s=60.0,
        tags=("test-only",),
    ))
    yield scenario
    unregister_scenario(scenario.id)


# --------------------------------------------------------------------------- broadcast latency
def test_broadcast_latency_scenario_is_registered_and_smoke_gated():
    scenario = get_scenario("broadcast_latency")
    assert scenario.kind == "broadcast_latency"
    assert "smoke" in scenario.tags and "fig18" in scenario.tags
    assert scenario.kind in PRIMARY_METRICS


def test_broadcast_latency_unit_reports_fig18_series():
    unit = get_scenario("broadcast_latency").expand()[0]
    result = execute_unit(unit)
    assert result.status == "ok", result.error
    metrics = result.metrics
    # The Fig 18 series: latency grows (weakly) with the machine count.
    series = sorted(
        (int(k.split("_m")[-1]), v)
        for k, v in metrics.items()
        if k.startswith("broadcast_s_m")
    )
    assert len(series) >= 4
    latencies = [latency for _, latency in series]
    assert all(b >= a - 1e-9 for a, b in zip(latencies, latencies[1:]))
    assert metrics["broadcast_s_at_max_scale"] == latencies[-1]
    # Appendix D decomposition adds up to more than the bandwidth floor.
    assert metrics["bandwidth_term_s"] > 0
    assert metrics["optimal_chunks_at_max_scale"] >= 1
    # The chain broadcast beats the blocking GPU-direct sync at scale.
    assert metrics["speedup_vs_gpu_direct_at_max_scale"] > 1.0


def test_broadcast_latency_gate_treats_lower_as_better():
    unit = get_scenario("broadcast_latency").expand()[0]
    base = execute_unit(unit)
    slower = UnitResult(
        scenario_id=base.scenario_id, system=base.system,
        model_size=base.model_size, total_gpus=base.total_gpus,
        variant=base.variant, seed=base.seed,
        metrics={"broadcast_s_at_max_scale":
                 base.metrics["broadcast_s_at_max_scale"] * 2.0},
    )
    verdict = judge_unit("broadcast_latency", base, slower, tolerance=0.05)
    assert verdict.verdict == VERDICT_REGRESSION
    faster = UnitResult(
        scenario_id=base.scenario_id, system=base.system,
        model_size=base.model_size, total_gpus=base.total_gpus,
        variant=base.variant, seed=base.seed,
        metrics={"broadcast_s_at_max_scale":
                 base.metrics["broadcast_s_at_max_scale"] * 0.5},
    )
    assert judge_unit("broadcast_latency", base, faster, 0.05).verdict == VERDICT_IMPROVEMENT


# --------------------------------------------------------------------------- wall-clock budget
def test_cli_run_budget_gate(cheap_scenario, capsys):
    ok = bench_main([
        "run", "--scenario", cheap_scenario.id, "--no-save", "--budget", "300",
    ])
    assert ok == 0
    assert "within" in capsys.readouterr().out
    failed = bench_main([
        "run", "--scenario", cheap_scenario.id, "--no-save", "--budget", "0.000001",
    ])
    out = capsys.readouterr().out
    assert failed == 1
    assert "EXCEEDED" in out


# --------------------------------------------------------------------------- system CLI surface
def test_cli_list_systems_renders_capability_table(capsys):
    assert bench_main(["list", "--systems", "-v"]) == 0
    out = capsys.readouterr().out
    for name in ("verl", "one_step", "stream_gen", "areal", "laminar",
                 "laminar_norepack", "semi_sync"):
        assert name in out
    assert "weight-sync" in out and "repack" in out


def test_cli_run_unknown_system_fails_with_registered_names(capsys):
    code = bench_main(["run", "--scenario", "throughput_smoke",
                       "--system", "nope", "--no-save"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown system 'nope'" in err
    assert "laminar" in err and "semi_sync" in err


def test_cli_run_system_filter_restricts_the_grid(cheap_scenario, capsys):
    # The weight_sync fixture scenario only evaluates laminar; filtering to a
    # system no selected scenario evaluates is an explicit error...
    code = bench_main(["run", "--scenario", cheap_scenario.id,
                       "--system", "verl", "--no-save"])
    assert code == 2
    assert "no selected scenario evaluates" in capsys.readouterr().err
    # ...while filtering to a subset runs only that subset.
    code = bench_main(["run", "--scenario", cheap_scenario.id,
                       "--system", "laminar", "--no-save"])
    out = capsys.readouterr().out
    assert code == 0
    assert "laminar:32B/128gpu" in out


def test_cli_run_system_filter_preserves_unit_seeds(tmp_path, capsys):
    """The --system filter drops units after grid expansion, so a surviving
    unit keeps its original grid-index seed and its metrics are bit-identical
    to the same unit in a full-grid run (a filtered --compare against a
    full-grid baseline must gate at delta 0.000)."""
    artifact = str(tmp_path / "BENCH_full_grid.json")
    assert bench_main(["run", "--scenario", "semi_sync",
                       "--export", artifact]) == 0
    capsys.readouterr()
    # semi_sync is grid index 1 of the scenario; filtering must not renumber
    # it to index 0 (which would shift its seed and fail the zero-tolerance
    # gate).
    code = bench_main(["run", "--scenario", "semi_sync", "--system", "semi_sync",
                       "--compare", "--baseline", artifact, "--tolerance", "0",
                       "--no-save"])
    out = capsys.readouterr().out
    assert code == 0
    assert "within-tolerance" in out and "no regression" in out


def test_cli_run_system_filter_never_saves_partial_default_artifacts(
        tmp_path, capsys, monkeypatch):
    """A --system run executes a partial grid; persisting it over the
    canonical BENCH_<id>.json would silently stop gating the dropped units,
    so default-path saving is suppressed (explicit --export stays allowed)."""
    monkeypatch.chdir(tmp_path)
    assert bench_main(["run", "--scenario", "semi_sync",
                       "--system", "semi_sync"]) == 0
    out = capsys.readouterr().out
    assert "not saved" in out
    assert not (tmp_path / "BENCH_semi_sync.json").exists()
    export = tmp_path / "partial.json"
    assert bench_main(["run", "--scenario", "semi_sync", "--system", "semi_sync",
                       "--export", str(export)]) == 0
    capsys.readouterr()
    assert export.exists()
