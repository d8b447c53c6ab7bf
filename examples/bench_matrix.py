#!/usr/bin/env python3
"""Programmatic use of the ``repro.bench`` subsystem.

Selects scenarios from the registry, registers a custom one, runs the
(system × GPU scale × variant) matrix on two worker processes, persists the
results as a schema-versioned ``BENCH_*.json`` artifact, and regression-gates
a second run against it.

The same workflow is available from the command line::

    repro-bench list
    repro-bench run --scenario throughput_smoke --jobs 2 --export BENCH_smoke.json
    repro-bench compare --baseline BENCH_smoke.json

Usage::

    python examples/bench_matrix.py
"""

import os
import tempfile

from repro.bench import (
    ScenarioConfig,
    compare_runs,
    register_scenario,
    render_comparison,
    render_results,
    run_scenarios,
    save_artifact,
    select_scenarios,
    unregister_scenario,
)


def main() -> None:
    # ------------------------------------------------------------------ select + extend
    # Patterns resolve ids, globs, substrings and tags; "smoke" picks the
    # quick scenarios the CI gate runs.
    scenarios = select_scenarios(["smoke"])

    custom = register_scenario(ScenarioConfig(
        id="example_tool_matrix",
        description="Laminar vs stream generation on the multi-turn tool task, "
                    "with a long-horizon variant (16 environment turns).",
        kind="throughput",
        systems=("stream_gen", "laminar"),
        model_size="7B",
        task_type="tool",
        gpu_scales=(16,),
        variants=(
            ("8-turn", ()),
            ("16-turn", (("max_tool_turns", 16),)),
        ),
        batch_scale=0.125,
        tags=("example",),
    ))
    scenarios = scenarios + [custom]

    # ------------------------------------------------------------------ run the matrix
    print(f"running {sum(len(s.expand()) for s in scenarios)} units across "
          f"{len(scenarios)} scenarios on 2 workers...\n")
    results = run_scenarios(scenarios, jobs=2)
    print(render_results(results))

    # ------------------------------------------------------------------ persist + gate
    path = os.path.join(tempfile.mkdtemp(prefix="repro_bench_"), "BENCH_example.json")
    save_artifact(results, path, configs=scenarios)
    print(f"\nartifact written to {path}")

    # A rerun with the same seeds is bit-identical, so the gate reports
    # "no regression" with every unit within tolerance.
    rerun = run_scenarios(scenarios, jobs=2)
    report = compare_runs(rerun, results, tolerance=0.05)
    print()
    print(render_comparison(report))

    unregister_scenario(custom.id)


if __name__ == "__main__":
    main()
