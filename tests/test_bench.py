"""Tests for the repro.bench subsystem: registry, runner, store, compare, CLI."""

import json

import pytest

from repro.bench import (
    SCENARIOS,
    ScenarioConfig,
    ScenarioResult,
    UnitResult,
    all_scenarios,
    compare_runs,
    default_artifact_path,
    get_scenario,
    load_artifact,
    merge_artifacts,
    register_scenario,
    results_from_artifact,
    run_scenarios,
    save_artifact,
    select_scenarios,
    unregister_scenario,
)
from repro.bench.cli import main as bench_main
from repro.bench.compare import (
    VERDICT_ERROR,
    VERDICT_IMPROVEMENT,
    VERDICT_MISSING,
    VERDICT_NEW,
    VERDICT_REGRESSION,
    VERDICT_UNCHANGED,
)
from repro.bench.report import render_comparison
from repro.bench.store import SCHEMA_VERSION


#: Cheap two-unit scenario for runner tests (analytic Laminar + repack cycle
#: composition: no event-driven simulation, runs in well under a second).
def _tiny_scenario(scenario_id="tiny_test_scenario", **kwargs):
    defaults = dict(
        id=scenario_id,
        description="test-only scenario",
        kind="throughput",
        systems=("laminar", "areal"),
        model_size="7B",
        gpu_scales=(16,),
        batch_scale=0.125,
        timeout_s=120.0,
        tags=("test-only",),
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


@pytest.fixture
def tiny_scenario():
    scenario = register_scenario(_tiny_scenario())
    yield scenario
    unregister_scenario(scenario.id)


# --------------------------------------------------------------------------- registry
def test_canonical_catalog_ids_are_unique():
    ids = [s.id for s in SCENARIOS]
    assert len(ids) == len(set(ids))
    assert "throughput_smoke" in ids


def test_get_scenario_exact_and_unknown():
    assert get_scenario("throughput_smoke").kind == "throughput"
    with pytest.raises(KeyError):
        get_scenario("definitely_not_a_scenario")


def test_select_scenarios_by_glob_tag_and_substring():
    by_glob = {s.id for s in select_scenarios(["throughput_*"])}
    assert "throughput_smoke" in by_glob and "throughput_7b_tool" in by_glob
    by_tag = {s.id for s in select_scenarios(["fig11"])}
    assert by_tag == {"throughput_7b_math", "throughput_32b_math", "throughput_72b_math"}
    # "smoke" is both a tag and an id substring; either way it must resolve.
    by_sub = {s.id for s in select_scenarios(["smoke"])}
    assert "throughput_smoke" in by_sub
    with pytest.raises(KeyError):
        select_scenarios(["no_such_pattern_anywhere"])


def test_select_scenarios_deduplicates_and_keeps_catalog_order():
    selected = select_scenarios(["throughput_smoke", "smoke", "throughput_*"])
    ids = [s.id for s in selected]
    assert len(ids) == len(set(ids))
    catalog_order = [s.id for s in all_scenarios() if s.id in set(ids)]
    assert ids == catalog_order


def test_register_rejects_duplicates_and_unregister_restores_canonical():
    with pytest.raises(ValueError):
        register_scenario(get_scenario("throughput_smoke"))
    scenario = register_scenario(_tiny_scenario("tmp_register_test"))
    assert get_scenario("tmp_register_test") is scenario
    unregister_scenario("tmp_register_test")
    with pytest.raises(KeyError):
        get_scenario("tmp_register_test")
    unregister_scenario("throughput_smoke")  # canonical ids survive unregister
    assert get_scenario("throughput_smoke").id == "throughput_smoke"


def test_scenario_validation_rejects_bad_configs():
    with pytest.raises(ValueError):
        _tiny_scenario(kind="not_a_kind")
    with pytest.raises(ValueError):
        _tiny_scenario(systems=("laminar",), gpu_scales=(48,))  # no Table 2 placement
    with pytest.raises(ValueError):
        _tiny_scenario(systems=("hal9000",))
    with pytest.raises(ValueError):
        _tiny_scenario(variants=(("a", ()), ("a", ())))
    with pytest.raises(ValueError):
        _tiny_scenario(batch_scale=0.0)
    with pytest.raises(ValueError):
        _tiny_scenario(iterations=2, warmup=2)


def test_grid_expansion_covers_matrix_with_distinct_seeds():
    scenario = _tiny_scenario(
        systems=("laminar", "verl"),
        gpu_scales=(16, 64),
        variants=(("a", ()), ("b", (("repack_interval", 10.0),))),
        seed=7,
    )
    units = scenario.expand()
    assert len(units) == 2 * 2 * 2
    assert len({u.key for u in units}) == len(units)
    assert len({u.seed for u in units}) == len(units)
    assert all(u.base_seed == 7 for u in units)
    variant_b = [u for u in units if u.variant == "b"]
    assert all(("repack_interval", 10.0) in u.overrides for u in variant_b)


def test_new_scenario_kinds_are_registered_and_gated():
    lifecycle = get_scenario("kvcache_lifecycle_7b")
    weight_sync = get_scenario("weight_sync_32b")
    assert lifecycle.kind == "kvcache_lifecycle" and "smoke" in lifecycle.tags
    assert weight_sync.kind == "weight_sync" and "smoke" in weight_sync.tags
    smoke_ids = {s.id for s in select_scenarios(["smoke"])}
    assert {"kvcache_lifecycle_7b", "weight_sync_32b"} <= smoke_ids


def test_kvcache_lifecycle_unit_reports_ramp_plateau_drain():
    (result,) = run_scenarios([get_scenario("kvcache_lifecycle_7b")], jobs=1)
    assert result.status == "ok"
    (unit,) = result.units
    metrics = unit.metrics
    # Fig 9 shape: the cache ramps up, plateaus near its peak for a sustained
    # stretch, and drains at the end of the cycle.
    assert 0.0 < metrics["mean_kvcache_utilization"] <= 1.0
    assert metrics["peak_kvcache_utilization"] >= metrics["mean_kvcache_utilization"]
    assert 0.0 < metrics["ramp_seconds"] < metrics["cycle_seconds"]
    assert 0.1 < metrics["plateau_fraction"] < 1.0
    assert 0.0 < metrics["drain_seconds"] < metrics["cycle_seconds"]
    assert metrics["ramp_seconds"] + metrics["drain_seconds"] < metrics["cycle_seconds"]
    # The repack release point falls inside the drain phase, before the end.
    assert 0.0 < metrics["release_fraction_of_cycle"] <= 1.0


def test_weight_sync_unit_compares_relay_to_gpu_direct():
    (result,) = run_scenarios([get_scenario("weight_sync_32b")], jobs=1)
    assert result.status == "ok"
    by_gpus = {u.total_gpus: u.metrics for u in result.units}
    for metrics in by_gpus.values():
        assert metrics["relay_best_wait_s"] <= metrics["relay_mean_wait_s"]
        assert metrics["relay_mean_wait_s"] < metrics["gpu_direct_wait_s"]
        assert metrics["relay_speedup_vs_gpu_direct"] > 1.0
    # Fig 14: the relay's advantage grows with the rollout fleet.
    assert (
        by_gpus[512]["relay_speedup_vs_gpu_direct"]
        > by_gpus[128]["relay_speedup_vs_gpu_direct"]
    )


# --------------------------------------------------------------------------- runner
def test_runner_serial_results_and_summary(tiny_scenario):
    (result,) = run_scenarios([tiny_scenario], jobs=1)
    assert result.status == "ok"
    assert [u.system for u in result.units] == ["laminar", "areal"]
    for unit in result.units:
        assert unit.metrics["throughput_tok_s"] > 0
    assert result.summary["units_ok"] == 2
    assert result.summary["primary_metric"] == "throughput_tok_s"
    assert result.summary["best_system_by_scale"]["16"] == "laminar"


def test_runner_parallel_matches_serial_bit_identically(tiny_scenario):
    serial = run_scenarios([tiny_scenario], jobs=1)
    parallel = run_scenarios([tiny_scenario], jobs=2)
    assert [r.comparable() for r in serial] == [r.comparable() for r in parallel]
    # The regression gate agrees: every unit is exactly on the baseline.
    report = compare_runs(parallel, serial, tolerance=0.0)
    assert report.passed and all(v.delta == 0.0 for v in report.verdicts)


def test_runner_reports_unit_failures_without_raising():
    scenario = register_scenario(
        _tiny_scenario("failing_test_scenario", systems=("laminar",),
                       overrides=(("no_such_config_field", 1),))
    )
    try:
        (result,) = run_scenarios([scenario], jobs=1)
    finally:
        unregister_scenario(scenario.id)
    assert result.status == "failed"
    assert result.units[0].status == "failed"
    assert "no_such_config_field" in result.units[0].error
    assert result.summary["units_ok"] == 0


def test_unit_and_scenario_results_round_trip_via_dicts(tiny_scenario):
    (result,) = run_scenarios([tiny_scenario], jobs=1)
    clone = ScenarioResult.from_dict(json.loads(json.dumps(result.as_dict())))
    assert clone.comparable() == result.comparable()


# --------------------------------------------------------------------------- store
def test_artifact_save_load_round_trip(tiny_scenario, tmp_path):
    results = run_scenarios([tiny_scenario], jobs=1)
    path = str(tmp_path / default_artifact_path(tiny_scenario.id, ""))
    save_artifact(results, path, configs=[tiny_scenario])
    artifact = load_artifact(path)
    assert artifact["schema_version"] == SCHEMA_VERSION
    assert artifact["git_rev"]
    entry = artifact["scenarios"][tiny_scenario.id]
    assert entry["config"]["id"] == tiny_scenario.id  # config echo
    (loaded,) = results_from_artifact(artifact)
    assert loaded.comparable() == results[0].comparable()


def test_load_artifact_rejects_foreign_and_versioned_files(tmp_path):
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"hello": "world"}))
    with pytest.raises(ValueError):
        load_artifact(str(foreign))
    futuristic = tmp_path / "future.json"
    futuristic.write_text(json.dumps({
        "kind": "repro-bench-results", "schema_version": SCHEMA_VERSION + 1,
        "scenarios": {},
    }))
    with pytest.raises(ValueError):
        load_artifact(str(futuristic))


def test_merge_artifacts_overlays_new_scenarios():
    base = {"schema_version": SCHEMA_VERSION, "kind": "repro-bench-results",
            "git_rev": "aaa", "scenarios": {"s1": {"result": 1}, "s2": {"result": 2}}}
    update = {"schema_version": SCHEMA_VERSION, "kind": "repro-bench-results",
              "git_rev": "bbb", "scenarios": {"s2": {"result": 22}, "s3": {"result": 3}}}
    merged = merge_artifacts(base, update)
    assert merged["git_rev"] == "bbb"
    assert merged["scenarios"] == {"s1": {"result": 1}, "s2": {"result": 22},
                                   "s3": {"result": 3}}


def test_save_artifact_merges_prior_runs(tiny_scenario, tmp_path):
    path = str(tmp_path / "BENCH_merge.json")
    other = ScenarioResult(scenario_id="other_scenario", kind="throughput", units=[
        UnitResult(scenario_id="other_scenario", system="laminar", model_size="7B",
                   total_gpus=16, variant="", seed=0,
                   metrics={"throughput_tok_s": 1.0}),
    ])
    save_artifact([other], path)
    results = run_scenarios([tiny_scenario], jobs=1)
    artifact = save_artifact(results, path, configs=[tiny_scenario])
    assert set(artifact["scenarios"]) == {"other_scenario", tiny_scenario.id}


# --------------------------------------------------------------------------- compare
def _unit(system="laminar", tput=100.0, status="ok", scenario_id="s"):
    return UnitResult(scenario_id=scenario_id, system=system, model_size="7B",
                      total_gpus=16, variant="", seed=0, status=status,
                      metrics={"throughput_tok_s": tput} if status == "ok" else {})


def _result(units, scenario_id="s"):
    return ScenarioResult(scenario_id=scenario_id, kind="throughput", units=units)


def test_compare_verdicts_cover_all_outcomes():
    baseline = _result([
        _unit("laminar", 100.0), _unit("verl", 100.0), _unit("areal", 100.0),
        _unit("one_step", 100.0), _unit("stream_gen", 100.0),
    ])
    candidate = _result([
        _unit("laminar", 120.0),            # improvement
        _unit("verl", 98.0),                # within tolerance
        _unit("areal", 80.0),               # regression
        _unit("one_step", 100.0, status="failed"),  # unit-error
        # stream_gen absent -> missing-in-candidate
    ])
    report = compare_runs([candidate], [baseline], tolerance=0.05)
    verdicts = {v.unit_label.split(":")[0]: v.verdict for v in report.verdicts}
    assert verdicts["laminar"] == VERDICT_IMPROVEMENT
    assert verdicts["verl"] == VERDICT_UNCHANGED
    assert verdicts["areal"] == VERDICT_REGRESSION
    assert verdicts["one_step"] == VERDICT_ERROR
    assert verdicts["stream_gen"] == VERDICT_MISSING
    assert not report.passed
    assert len(report.regressions) == 3


def test_compare_without_baseline_passes():
    candidate = _result([_unit("laminar", 50.0)])
    report = compare_runs([candidate], [], tolerance=0.05)
    assert [v.verdict for v in report.verdicts] == [VERDICT_NEW]
    assert report.passed


def test_compare_identical_runs_report_no_regression():
    run = _result([_unit("laminar", 100.0), _unit("verl", 90.0)])
    report = compare_runs([run], [run], tolerance=0.0)
    assert report.passed
    assert all(v.verdict == VERDICT_UNCHANGED for v in report.verdicts)
    assert all(v.delta == 0.0 for v in report.verdicts)


def test_compare_respects_tolerance_boundary():
    baseline = _result([_unit("laminar", 100.0)])
    report = compare_runs([_result([_unit("laminar", 94.0)])], [baseline], tolerance=0.05)
    assert not report.passed
    report = compare_runs([_result([_unit("laminar", 96.0)])], [baseline], tolerance=0.05)
    assert report.passed


def test_compare_at_zero_tolerance_fails_a_primary_improvement():
    baseline = _result([_unit("laminar", 100.0)])
    report = compare_runs([_result([_unit("laminar", 101.0)])], [baseline], tolerance=0.0)
    (verdict,) = report.verdicts
    assert verdict.verdict == VERDICT_REGRESSION
    assert "throughput_tok_s" in verdict.note
    assert not report.passed


def test_compare_at_zero_tolerance_checks_every_metric():
    def unit(iteration_time):
        u = _unit("laminar", 100.0)
        u.metrics["iteration_time_s"] = iteration_time
        return u

    baseline = _result([unit(10.0)])
    candidate = _result([unit(10.5)])
    report = compare_runs([candidate], [baseline], tolerance=0.0)
    (verdict,) = report.verdicts
    assert verdict.verdict == VERDICT_REGRESSION
    assert verdict.delta == 0.0
    assert verdict.note.endswith(": iteration_time_s")
    assert f"laminar:7B/16gpu: {verdict.note}" in render_comparison(report)
    # A positive tolerance keeps the directional primary-metric rule.
    report = compare_runs([candidate], [baseline], tolerance=0.05)
    assert report.passed
    assert [v.verdict for v in report.verdicts] == [VERDICT_UNCHANGED]


# --------------------------------------------------------------------------- CLI
def test_cli_list_runs_clean(capsys):
    assert bench_main(["list", "-v"]) == 0
    out = capsys.readouterr().out
    assert "throughput_smoke" in out and "fault_injection" in out


def test_cli_run_and_regression_gate(tiny_scenario, tmp_path, capsys):
    artifact = str(tmp_path / "BENCH_cli.json")
    assert bench_main(["run", "--scenario", tiny_scenario.id,
                       "--export", artifact]) == 0
    capsys.readouterr()

    # Same seed, same tree: the gate must report no regression.
    assert bench_main(["run", "--scenario", tiny_scenario.id, "--export", artifact,
                       "--compare"]) == 0
    assert "no regression" in capsys.readouterr().out

    # Degrade the stored candidate and gate it against the healthy baseline.
    degraded = json.loads(open(artifact).read())
    entry = degraded["scenarios"][tiny_scenario.id]["result"]
    for unit in entry["units"]:
        unit["metrics"]["throughput_tok_s"] *= 0.5
    bad_path = str(tmp_path / "BENCH_bad.json")
    with open(bad_path, "w") as handle:
        json.dump(degraded, handle)
    assert bench_main(["compare", "--baseline", artifact,
                       "--candidate", bad_path]) == 1
    assert "REGRESSION" in capsys.readouterr().out
