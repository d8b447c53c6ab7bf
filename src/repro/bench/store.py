"""Persistence of benchmark results as ``BENCH_<scenario>.json`` artifacts.

An artifact is a single schema-versioned JSON document holding one or more
scenario results together with the scenario configs that produced them and
the git revision of the tree.  Artifacts from successive runs can be merged
(new scenario results replace old ones, everything else is kept), which is
how the repo accumulates its ``BENCH_*.json`` trajectory over time.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .registry import ScenarioConfig
from .runner import ScenarioResult

#: Bump on any backwards-incompatible artifact layout change.
SCHEMA_VERSION = 1

ARTIFACT_KIND = "repro-bench-results"


def git_revision(cwd: Optional[str] = None) -> str:
    """Current git revision, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def default_artifact_path(scenario_id: str, outdir: str = ".") -> str:
    """Canonical per-scenario artifact location: ``BENCH_<scenario>.json``."""
    return os.path.join(outdir, f"BENCH_{scenario_id}.json")


def make_artifact(
    results: Sequence[ScenarioResult],
    configs: Sequence[ScenarioConfig] = (),
    git_rev: Optional[str] = None,
) -> Dict[str, object]:
    """Build the artifact document for a set of scenario results."""
    configs_by_id = {c.id: c for c in configs}
    scenarios: Dict[str, Dict[str, object]] = {}
    for result in sorted(results, key=lambda r: r.scenario_id):
        entry: Dict[str, object] = {"result": result.as_dict()}
        config = configs_by_id.get(result.scenario_id)
        if config is not None:
            entry["config"] = config.as_dict()
        scenarios[result.scenario_id] = entry
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": ARTIFACT_KIND,
        "git_rev": git_rev if git_rev is not None else git_revision(),
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "scenarios": scenarios,
    }


def save_artifact(
    results: Sequence[ScenarioResult],
    path: str,
    configs: Sequence[ScenarioConfig] = (),
    merge_existing: bool = True,
) -> Dict[str, object]:
    """Write (and by default merge into) the artifact at ``path``."""
    artifact = make_artifact(results, configs)
    if merge_existing and os.path.exists(path):
        try:
            artifact = merge_artifacts(load_artifact(path), artifact)
        except ValueError:
            pass  # unreadable/foreign file: overwrite with the fresh artifact
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return artifact


def load_artifact(path: str) -> Dict[str, object]:
    """Read and validate an artifact document."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or payload.get("kind") != ARTIFACT_KIND:
        raise ValueError(f"{path}: not a {ARTIFACT_KIND} artifact")
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema version {version!r} is not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    if not isinstance(payload.get("scenarios"), dict):
        raise ValueError(f"{path}: malformed artifact (missing scenarios map)")
    return payload


def merge_artifacts(base: Dict[str, object], update: Dict[str, object]) -> Dict[str, object]:
    """Overlay ``update`` onto ``base``: newer scenario entries win."""
    merged = dict(base)
    scenarios = dict(base.get("scenarios", {}))
    scenarios.update(update.get("scenarios", {}))
    merged["scenarios"] = scenarios
    for key in ("schema_version", "kind", "git_rev", "created_at"):
        if key in update:
            merged[key] = update[key]
    return merged


def results_from_artifact(artifact: Dict[str, object]) -> List[ScenarioResult]:
    """Reconstruct the scenario results stored in an artifact."""
    results = []
    for entry in artifact.get("scenarios", {}).values():
        results.append(ScenarioResult.from_dict(entry["result"]))
    return sorted(results, key=lambda r: r.scenario_id)


def load_results(paths: Iterable[str]) -> Tuple[Dict[str, object], List[ScenarioResult]]:
    """Load and merge several artifacts into one result set."""
    merged: Optional[Dict[str, object]] = None
    for path in paths:
        artifact = load_artifact(path)
        merged = artifact if merged is None else merge_artifacts(merged, artifact)
    if merged is None:
        raise ValueError("no artifact paths given")
    return merged, results_from_artifact(merged)
