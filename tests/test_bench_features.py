"""Tests for the PR-3 bench additions: broadcast-latency scenario kind,
``repro-bench trend`` history reporting, ``--profile`` hot-path capture and
the ``--budget`` wall-clock gate."""

import json

import pytest

from repro.bench.cli import main as bench_main
from repro.bench.compare import VERDICT_IMPROVEMENT, VERDICT_REGRESSION, judge_unit
from repro.bench.registry import ScenarioConfig, get_scenario, register_scenario, unregister_scenario
from repro.bench.runner import (
    PRIMARY_METRICS,
    UnitResult,
    execute_unit,
    execute_unit_profiled,
    run_scenarios,
)
from repro.bench.store import save_artifact
from repro.bench.trend import (
    RunSnapshot,
    collect_history,
    render_trend,
    scenario_trends,
    sparkline,
)
from repro.bench.runner import ScenarioResult


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


# --------------------------------------------------------------------------- sparklines / trend
def test_sparkline_scales_and_handles_gaps():
    line = sparkline([1.0, None, 2.0, 3.0])
    assert len(line) == 4
    assert line[0] == "▁" and line[1] == " " and line[3] == "█"
    assert sparkline([]) == ""
    assert sparkline([None, None]) == "  "
    flat = sparkline([2.0, 2.0])
    assert len(set(flat)) == 1  # constant series renders one level


def _snapshot(rev, created, scenario_id, value, elapsed):
    return RunSnapshot(
        path="x.json", git_rev=rev, created_at=created,
        results=[ScenarioResult(
            scenario_id=scenario_id, kind="weight_sync",
            units=[UnitResult(
                scenario_id=scenario_id, system="laminar", model_size="32B",
                total_gpus=128, variant="", seed=0,
                metrics={"relay_speedup_vs_gpu_direct": value},
            )],
            elapsed_s=elapsed,
        )],
    )


def test_scenario_trends_orders_runs_and_tracks_elapsed():
    snapshots = [
        _snapshot("aaa", "2026-01-01T00:00:00", "ws", 1.5, 10.0),
        _snapshot("bbb", "2026-02-01T00:00:00", "ws", 1.8, 4.0),
    ]
    trends = scenario_trends(snapshots)
    assert set(trends) == {"ws"}
    _, series_list = trends["ws"]
    by_label = {s.label: s for s in series_list}
    assert by_label["elapsed_s"].values == [10.0, 4.0]
    assert by_label["laminar:32B/128gpu"].values == [1.5, 1.8]
    assert by_label["elapsed_s"].delta_pct() == pytest.approx(-60.0)
    rendered = render_trend(snapshots)
    assert "elapsed_s" in rendered and "ws [weight_sync]" in rendered


def test_collect_history_merges_same_revision_and_skips_git(tmp_path, cheap_scenario):
    results = run_scenarios([cheap_scenario])
    path_a = tmp_path / "BENCH_a.json"
    path_b = tmp_path / "BENCH_b.json"
    save_artifact(results, str(path_a), configs=[cheap_scenario])
    save_artifact(results, str(path_b), configs=[cheap_scenario])
    # Same git revision in both files -> one merged run snapshot.
    snapshots = collect_history([str(path_a), str(path_b)], include_git_history=False)
    assert len(snapshots) == 1
    assert {r.scenario_id for r in snapshots[0].results} == {cheap_scenario.id}
    # A corrupt artifact is skipped, not fatal.
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{not json")
    assert len(collect_history([str(path_a), str(bad)], include_git_history=False)) == 1


def test_cli_trend_renders_history(tmp_path, cheap_scenario, capsys, monkeypatch):
    results = run_scenarios([cheap_scenario])
    save_artifact(results, str(tmp_path / "BENCH_t.json"), configs=[cheap_scenario])
    monkeypatch.chdir(tmp_path)
    code = bench_main(["trend", "--no-git-history"])
    out = capsys.readouterr().out
    assert code == 0
    assert "run(s)" in out and cheap_scenario.id in out


def test_cli_trend_without_artifacts_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert bench_main(["trend", "--no-git-history"]) == 1


def test_cli_trend_scenario_without_history_reports_cleanly(
    tmp_path, cheap_scenario, capsys, monkeypatch
):
    """A registered scenario with no committed artifact versions is a normal
    state (e.g. freshly added), so a filtered trend reports it and exits 0."""
    results = run_scenarios([cheap_scenario])
    save_artifact(results, str(tmp_path / "BENCH_t.json"), configs=[cheap_scenario])
    monkeypatch.chdir(tmp_path)
    code = bench_main(["trend", "--no-git-history",
                       "--scenario", "datacenter_1k"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no history" in out and "datacenter_1k" in out


def test_cli_trend_tolerates_retired_scenarios(tmp_path, capsys, monkeypatch):
    """Artifacts outlive the registry: a renamed/retired scenario's history
    must still trend (formerly a KeyError), and a pattern matching nothing
    anywhere is noted and skipped rather than failing the whole report."""
    scenario = register_scenario(ScenarioConfig(
        id="retired_trend_scenario",
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
    try:
        results = run_scenarios([scenario])
        save_artifact(results, str(tmp_path / "BENCH_retired.json"),
                      configs=[scenario])
    finally:
        unregister_scenario(scenario.id)
    monkeypatch.chdir(tmp_path)

    # Unfiltered: the retired scenario's history renders from the artifact.
    assert bench_main(["trend", "--no-git-history"]) == 0
    assert "retired_trend_scenario" in capsys.readouterr().out

    # Filtered by the retired id: resolves against the history ids.
    assert bench_main(["trend", "--no-git-history",
                       "--scenario", "retired_trend_scenario"]) == 0
    assert "retired_trend_scenario" in capsys.readouterr().out

    # An unknown pattern alongside a real one: noted and skipped.
    assert bench_main(["trend", "--no-git-history",
                       "--scenario", "retired_trend_scenario",
                       "--scenario", "no_such_scenario_xyz"]) == 0
    out = capsys.readouterr().out
    assert "no_such_scenario_xyz" in out and "skipping" in out
    assert "retired_trend_scenario" in out

    # Only unknown patterns: clean empty report, exit 0.
    assert bench_main(["trend", "--no-git-history",
                       "--scenario", "no_such_scenario_xyz"]) == 0
    assert "no history" in capsys.readouterr().out


# --------------------------------------------------------------------------- profiling
def test_execute_unit_profiled_attaches_report(cheap_scenario):
    unit = cheap_scenario.expand()[0]
    result = execute_unit_profiled(unit, top=10)
    assert result.status == "ok", result.error
    assert "cumulative" in result.profile_text
    # The profile never leaks into the persisted artifact payload.
    assert "profile_text" not in result.as_dict()


def test_run_scenarios_profile_top_forces_serial(cheap_scenario):
    results = run_scenarios([cheap_scenario], jobs=4, profile_top=5)
    assert all(u.profile_text for r in results for u in r.units)
    with pytest.raises(ValueError):
        run_scenarios([cheap_scenario], profile_top=0)


def test_cli_run_profile_prints_hot_paths(cheap_scenario, capsys):
    code = bench_main([
        "run", "--scenario", cheap_scenario.id, "--no-save", "--profile", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "--- profile:" in out and "cumulative" in out


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
