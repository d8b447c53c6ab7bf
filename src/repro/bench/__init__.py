"""Benchmark subsystem: scenario registry, matrix runner, persisted results.

* :mod:`repro.bench.registry` — declarative :class:`ScenarioConfig` grids and
  the canonical :data:`SCENARIOS` catalog.
* :mod:`repro.bench.runner` — parallel matrix execution with per-unit seeds
  and timeouts, returning structured :class:`ScenarioResult`\\ s.
* :mod:`repro.bench.exec` — execution backends: in-process serial (optionally
  traced) and the local process pool behind ``--jobs N``.
* :mod:`repro.bench.store` — schema-versioned ``BENCH_<scenario>.json``
  artifact persistence with load/merge of prior runs.
* :mod:`repro.bench.compare` — regression gating of a run against a stored
  baseline with configurable tolerance.
* :mod:`repro.bench.report` — console presenters.
* :mod:`repro.bench.cli` — the ``repro-bench`` command-line front end.

Results hold simulated quantities only.  Host speed is measured outside the
system under test, by ``perfbench/``.
"""

from .compare import (
    DEFAULT_TOLERANCE,
    ComparisonReport,
    UnitVerdict,
    compare_runs,
)
from .exec import ExecBackend, ProcessPoolBackend, SerialBackend
from .registry import (
    KINDS,
    SCENARIOS,
    ScenarioConfig,
    ScenarioUnit,
    all_scenarios,
    get_scenario,
    register_scenario,
    select_scenarios,
    unregister_scenario,
)
from .report import render_comparison, render_results, render_scenario_list
from .runner import (
    PRIMARY_METRICS,
    ScenarioResult,
    UnitResult,
    execute_unit,
    run_scenarios,
)
from .store import (
    SCHEMA_VERSION,
    default_artifact_path,
    load_artifact,
    load_results,
    make_artifact,
    merge_artifacts,
    results_from_artifact,
    save_artifact,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "ComparisonReport",
    "ExecBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "UnitVerdict",
    "compare_runs",
    "KINDS",
    "SCENARIOS",
    "ScenarioConfig",
    "ScenarioUnit",
    "all_scenarios",
    "get_scenario",
    "register_scenario",
    "select_scenarios",
    "unregister_scenario",
    "render_comparison",
    "render_results",
    "render_scenario_list",
    "PRIMARY_METRICS",
    "ScenarioResult",
    "UnitResult",
    "execute_unit",
    "run_scenarios",
    "SCHEMA_VERSION",
    "default_artifact_path",
    "load_artifact",
    "load_results",
    "make_artifact",
    "merge_artifacts",
    "results_from_artifact",
    "save_artifact",
]
