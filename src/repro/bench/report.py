"""Console presenters for scenario listings, run results and comparisons."""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .compare import ComparisonReport
from .registry import ScenarioConfig
from .runner import PRIMARY_METRICS, ScenarioResult


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Plain fixed-width table; numbers are right-aligned."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    numeric = [
        all(_is_number(row[i]) for row in rows) if rows else False
        for i in range(len(headers))
    ]

    def line(values: Sequence[str]) -> str:
        out = []
        for i, value in enumerate(values):
            out.append(value.rjust(widths[i]) if numeric[i] else value.ljust(widths[i]))
        return "  ".join(out).rstrip()

    rule = "  ".join("-" * w for w in widths)
    return "\n".join([line(list(headers)), rule] + [line(row) for row in cells])


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.3f}"
    return str(value)


def render_scenario_list(scenarios: Iterable[ScenarioConfig], verbose: bool = False) -> str:
    rows: List[List[object]] = []
    for s in scenarios:
        rows.append([
            s.id, s.kind, ",".join(s.systems), s.model_size, s.task_type,
            "x".join(str(g) for g in s.gpu_scales), len(s.expand()),
            ",".join(s.tags) or "-",
        ])
    table = format_table(
        ["scenario", "kind", "systems", "model", "task", "gpus", "units", "tags"], rows
    )
    if not verbose:
        return table
    details = [table, ""]
    for s in scenarios:
        details.append(f"{s.id}: {s.description}")
    return "\n".join(details)


def render_system_list(verbose: bool = False) -> str:
    """Registered systems with their declared capabilities
    (``repro-bench list --systems``)."""
    from ..systems.base import available_systems, get_system_class

    rows: List[List[object]] = []
    for name in available_systems():
        caps = get_system_class(name).capabilities
        rows.append([
            name,
            "continuous" if caps.continuous else "batch",
            "yes" if caps.colocated else "no",
            caps.weight_sync,
            caps.staleness,
            "yes" if caps.repack else "no",
            caps.placement_like or name,
            caps.throughput_method,
        ])
    table = format_table(
        ["system", "generation", "colocated", "weight-sync", "staleness",
         "repack", "placements", "throughput-eval"],
        rows,
    )
    if not verbose:
        return table
    details = [table, ""]
    for name in available_systems():
        details.append(f"{name}: {get_system_class(name).capabilities.description}")
    return "\n".join(details)


def render_results(results: Sequence[ScenarioResult]) -> str:
    """Per-unit primary metrics plus scenario-level summaries."""
    blocks: List[str] = []
    for result in results:
        metric, _ = PRIMARY_METRICS[result.kind]
        rows: List[List[object]] = []
        for unit in result.units:
            rows.append([
                unit.label,
                unit.status,
                unit.metrics.get(metric, float("nan")),
                unit.metrics.get("iteration_time_s", float("nan")),
            ])
        blocks.append(
            f"=== {result.scenario_id} [{result.kind}] status={result.status} ==="
        )
        blocks.append(format_table(["unit", "status", metric, "iteration_time_s"], rows))
        speedups = result.summary.get("laminar_speedup_vs_verl")
        if speedups:
            pretty = ", ".join(f"{g} GPUs: {v:.2f}x" for g, v in sorted(speedups.items()))
            blocks.append(f"laminar speedup vs verl — {pretty}")
        failures = [u for u in result.units if u.status != "ok"]
        for unit in failures:
            first_line = unit.error.strip().splitlines()[-1] if unit.error else ""
            blocks.append(f"!! {unit.label}: {unit.status} {first_line}")
        blocks.append("")
    return "\n".join(blocks).rstrip()


def render_comparison(report: ComparisonReport) -> str:
    rows: List[List[object]] = []
    for v in report.verdicts:
        rows.append([
            v.scenario_id, v.unit_label, v.metric,
            v.baseline if v.baseline is not None else float("nan"),
            v.candidate if v.candidate is not None else float("nan"),
            v.delta,
            v.verdict,
        ])
    table = format_table(
        ["scenario", "unit", "metric", "baseline", "candidate", "delta", "verdict"], rows
    )
    counts = ", ".join(f"{k}: {n}" for k, n in sorted(report.counts().items()))
    outcome = (
        "no regression" if report.passed
        else f"REGRESSION ({len(report.regressions)} failing unit(s))"
    )
    notes = [f"!! {v.scenario_id} {v.unit_label}: {v.note}"
             for v in report.regressions if v.note]
    return "\n".join([
        table,
        *notes,
        "",
        f"tolerance: {report.tolerance:.0%} | {counts}",
        f"result: {outcome}",
    ])

