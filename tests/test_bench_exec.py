"""Tests for `repro.bench.exec`: backend selection, the `repro` package
surface (lazy exports, one version string), unit-timeout surfacing and the
`compare` re-run path."""

import os
import subprocess
import sys

import pytest

from repro.bench import ScenarioConfig, register_scenario, unregister_scenario
from repro.bench.cli import main as bench_main
from repro.bench.compare import VERDICT_TIMEOUT, judge_unit
from repro.bench.exec import ProcessPoolBackend, SerialBackend, default_backend
from repro.bench.runner import UnitResult


def _tiny_scenario(scenario_id="exec_test_scenario", **kwargs):
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


# --------------------------------------------------------------------------- lazy exports
def test_repro_lazy_bench_exports_resolve_in_fresh_interpreter():
    """`repro.run_scenarios` / `repro.ProcessPoolBackend` must resolve without
    importing repro.bench first (the PEP 562 hook used to recurse: the
    `from . import bench` fromlist probe re-entered __getattr__)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro; print(repro.run_scenarios.__name__, "
         "repro.ProcessPoolBackend.__name__)"],
        capture_output=True, text=True, timeout=120, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["run_scenarios", "ProcessPoolBackend"]


def test_setup_py_version_is_the_package_version():
    """One version string: setup.py reads `repro.__version__`."""
    import repro

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "setup.py", "--version"],
        capture_output=True, text=True, timeout=120, cwd=root,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == repro.__version__


# --------------------------------------------------------------------------- backend selection
def test_default_backend_matches_jobs():
    assert isinstance(default_backend(jobs=1), SerialBackend)
    assert isinstance(default_backend(jobs=4), ProcessPoolBackend)


# --------------------------------------------------------------------------- timeout surfacing
def test_timeout_units_get_distinct_compare_verdict():
    ok = UnitResult(scenario_id="s", system="laminar", model_size="7B",
                    total_gpus=16, variant="", seed=0,
                    metrics={"throughput_tok_s": 100.0})
    timed_out = UnitResult(scenario_id="s", system="laminar", model_size="7B",
                           total_gpus=16, variant="", seed=0, status="timeout",
                           error="unit exceeded 1s budget")
    verdict = judge_unit("throughput", ok, timed_out, tolerance=0.05)
    assert verdict.verdict == VERDICT_TIMEOUT
    assert not verdict.passed


def test_cli_run_compare_reports_unit_timeout(tiny_scenario, tmp_path, capsys):
    artifact = str(tmp_path / "BENCH_exec_cli.json")
    assert bench_main(["run", "--scenario", tiny_scenario.id,
                       "--export", artifact]) == 0
    capsys.readouterr()
    # An absurd budget forces every unit over; the gate must call out
    # unit-timeout (not generic unit-error) and exit non-zero.
    code = bench_main(["run", "--scenario", tiny_scenario.id, "--export", artifact,
                       "--compare", "--timeout", "0.000001", "--no-save"])
    out = capsys.readouterr().out
    assert code == 1
    assert "unit-timeout" in out


# --------------------------------------------------------------------------- CLI integration
def test_cli_compare_rerun_on_process_pool(tiny_scenario, tmp_path, capsys):
    """`repro-bench compare` without --candidate re-runs the baseline's
    scenarios (here on a 2-process pool) and gates them bit-identically
    against the serial export."""
    artifact = str(tmp_path / "BENCH_pool_compare.json")
    assert bench_main(["run", "--scenario", tiny_scenario.id,
                       "--export", artifact]) == 0
    capsys.readouterr()
    code = bench_main(["compare", "--baseline", artifact, "--jobs", "2",
                       "--tolerance", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "re-running 1 scenario(s)" in out
    assert "no regression" in out
