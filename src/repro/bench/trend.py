"""Historical trend reporting over committed ``BENCH_*.json`` artifacts.

Every merged artifact run carries its git revision, creation timestamp,
per-scenario harness wall-clock (``elapsed_s``) and the per-unit primary
metrics.  ``repro-bench trend`` stitches those runs into per-scenario time
series — pulling prior versions of each artifact out of git history, so the
perf trajectory of the repo is visible from the committed JSONs alone — and
renders them as sparkline tables: one ``elapsed_s`` row (the engine-speed
signal perf PRs move) plus one row per unit's primary metric (the
regression-gate signal that must stay flat).
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .runner import PRIMARY_METRICS, ScenarioResult
from .store import load_artifact, results_from_artifact

#: Eight-level block sparkline ramp.
_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


@dataclass
class RunSnapshot:
    """One historical artifact state: which run produced it, and its results."""

    path: str
    git_rev: str
    created_at: str
    results: List[ScenarioResult] = field(default_factory=list)

    @property
    def order_key(self) -> Tuple[str, str]:
        # ISO-8601 timestamps sort lexicographically.
        return (self.created_at, self.git_rev)

    def merge(self, other: "RunSnapshot") -> None:
        """Fold another artifact state of the same run into this snapshot."""
        mine = {r.scenario_id for r in self.results}
        self.results.extend(r for r in other.results if r.scenario_id not in mine)
        self.created_at = max(self.created_at, other.created_at)


def _git_revisions_of(path: str) -> List[str]:
    """Commits that touched ``path``, oldest first ('' outside a checkout)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        out = subprocess.run(
            ["git", "log", "--follow", "--format=%H", "--", os.path.basename(path)],
            cwd=directory, capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return []
    if out.returncode != 0:
        return []
    return [rev for rev in reversed(out.stdout.split())]

def _git_show(path: str, revision: str) -> Optional[str]:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        out = subprocess.run(
            ["git", "show", f"{revision}:./{os.path.basename(path)}"],
            cwd=directory, capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _snapshot_from_payload(path: str, payload: Dict[str, object]) -> RunSnapshot:
    return RunSnapshot(
        path=path,
        git_rev=str(payload.get("git_rev", "unknown")),
        created_at=str(payload.get("created_at", "")),
        results=results_from_artifact(payload),
    )


def collect_history(
    paths: Sequence[str],
    include_git_history: bool = True,
    max_revisions: int = 50,
) -> List[RunSnapshot]:
    """Load each artifact plus (optionally) its prior versions from git.

    Artifact states produced by the same run (same recorded ``git_rev``) are
    merged into one snapshot — the per-scenario ``BENCH_*.json`` files of one
    benchmark sweep count as a single run — and a commit that merely carried
    an artifact forward unchanged adds no new run.  Snapshots are returned
    oldest-first.
    """
    by_rev: Dict[str, RunSnapshot] = {}

    def record(snapshot: RunSnapshot) -> None:
        existing = by_rev.get(snapshot.git_rev)
        if existing is None:
            by_rev[snapshot.git_rev] = snapshot
        else:
            existing.merge(snapshot)

    for path in paths:
        if include_git_history:
            for revision in _git_revisions_of(path)[-max_revisions:]:
                text = _git_show(path, revision)
                if text is None:
                    continue
                try:
                    payload = json.loads(text)
                    if not isinstance(payload, dict) or "scenarios" not in payload:
                        continue
                    record(_snapshot_from_payload(path, payload))
                except (ValueError, KeyError, TypeError):
                    continue  # unreadable / pre-schema version: skip
        if os.path.exists(path):
            try:
                record(_snapshot_from_payload(path, load_artifact(path)))
            except (ValueError, OSError):
                continue
    return sorted(by_rev.values(), key=lambda s: s.order_key)


def sparkline(values: Sequence[Optional[float]]) -> str:
    """Render a block sparkline; gaps (None/NaN) become spaces."""
    present = [v for v in values if v is not None and v == v]
    if not present:
        return " " * len(values)
    low, high = min(present), max(present)
    span = high - low
    chars: List[str] = []
    for value in values:
        if value is None or value != value:
            chars.append(" ")
        elif span <= 0:
            chars.append(_SPARK_LEVELS[3])
        else:
            level = int((value - low) / span * (len(_SPARK_LEVELS) - 1))
            chars.append(_SPARK_LEVELS[level])
    return "".join(chars)


@dataclass
class TrendSeries:
    """One metric's history across the collected runs."""

    label: str
    values: List[Optional[float]]

    def first(self) -> Optional[float]:
        return next((v for v in self.values if v is not None), None)

    def last(self) -> Optional[float]:
        return next((v for v in reversed(self.values) if v is not None), None)

    def delta_pct(self) -> Optional[float]:
        first, last = self.first(), self.last()
        if first is None or last is None or first == 0:
            return None
        return (last - first) / abs(first) * 100.0


def scenario_trends(
    snapshots: Sequence[RunSnapshot],
) -> Dict[str, Tuple[str, List[TrendSeries]]]:
    """Build per-scenario series over the snapshot sequence.

    Returns ``{scenario_id: (kind, [elapsed_s series, unit series...])}``,
    ordered by scenario id; scenarios present in only some runs get gaps.
    """
    by_scenario: Dict[str, Dict[str, List[Optional[float]]]] = {}
    kinds: Dict[str, str] = {}
    runs = len(snapshots)
    for index, snapshot in enumerate(snapshots):
        for result in snapshot.results:
            kinds[result.scenario_id] = result.kind
            series = by_scenario.setdefault(result.scenario_id, {})
            elapsed = series.setdefault("elapsed_s", [None] * runs)
            elapsed[index] = float(result.elapsed_s)
            metric, _ = PRIMARY_METRICS.get(result.kind, (None, True))
            if metric is None:
                continue
            for unit in result.units:
                if unit.status != "ok" or metric not in unit.metrics:
                    continue
                row = series.setdefault(unit.label, [None] * runs)
                row[index] = float(unit.metrics[metric])
    out: Dict[str, Tuple[str, List[TrendSeries]]] = {}
    for scenario_id in sorted(by_scenario):
        series_map = by_scenario[scenario_id]
        ordered = [TrendSeries("elapsed_s", series_map.pop("elapsed_s"))]
        ordered.extend(
            TrendSeries(label, series_map[label]) for label in sorted(series_map)
        )
        out[scenario_id] = (kinds[scenario_id], ordered)
    return out


def render_trend(snapshots: Sequence[RunSnapshot]) -> str:
    """Console report: per-scenario sparkline tables over the run history."""
    if not snapshots:
        return "no artifact history found"
    from .report import format_table

    header = [
        f"{len(snapshots)} run(s): "
        + " -> ".join(
            f"{s.git_rev}@{s.created_at[:10] or '?'}" for s in snapshots
        )
    ]
    blocks: List[str] = ["\n".join(header), ""]
    for scenario_id, (kind, series_list) in scenario_trends(snapshots).items():
        metric, _ = PRIMARY_METRICS.get(kind, ("?", True))
        rows = []
        for series in series_list:
            delta = series.delta_pct()
            rows.append([
                series.label,
                sparkline(series.values),
                series.first() if series.first() is not None else float("nan"),
                series.last() if series.last() is not None else float("nan"),
                f"{delta:+.1f}%" if delta is not None else "-",
            ])
        blocks.append(f"=== {scenario_id} [{kind}] primary={metric} ===")
        blocks.append(format_table(["series", "trend", "first", "last", "delta"], rows))
        blocks.append("")
    return "\n".join(blocks).rstrip()
