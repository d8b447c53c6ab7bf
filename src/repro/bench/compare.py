"""Regression comparison of a benchmark run against a stored baseline.

Every unit of the candidate run is matched against the baseline unit with the
same ``(scenario, system, gpus, variant)`` key and judged on the scenario
kind's primary metric with a configurable relative tolerance.  A run passes
when no unit regresses beyond tolerance and no unit that used to succeed now
fails.

Tolerance 0 is an identity gate, not a directional one: a unit passes only
when its whole ``metrics`` map equals the baseline's, so an "improvement" or
a drifted secondary metric fails it just as a regression does.

Traced runs may additionally opt into **derived-metric gates**
(``--derived-metric NAME``): attribution fractions from
:mod:`repro.obs.analysis` carried in ``UnitResult.extras``.  Unlike primary
metrics they have no better/worse direction — a drift beyond tolerance in
*either* direction fails the gate (a bottleneck that moved is a finding even
when throughput held).  Units lacking the metric on either side are skipped,
so untraced baselines never fail a derived gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .runner import PRIMARY_METRICS, ScenarioResult, UnitResult

#: Default relative tolerance before a primary-metric move counts as a
#: regression / improvement.
DEFAULT_TOLERANCE = 0.05

VERDICT_IMPROVEMENT = "improvement"
VERDICT_UNCHANGED = "within-tolerance"
VERDICT_REGRESSION = "regression"
VERDICT_NEW = "no-baseline"
VERDICT_MISSING = "missing-in-candidate"
VERDICT_ERROR = "unit-error"
VERDICT_TIMEOUT = "unit-timeout"

#: Verdicts that fail the gate.
FAILING_VERDICTS = (VERDICT_REGRESSION, VERDICT_MISSING, VERDICT_ERROR,
                    VERDICT_TIMEOUT)


@dataclass
class UnitVerdict:
    """Comparison outcome for one scenario grid point."""

    scenario_id: str
    unit_label: str
    metric: str
    verdict: str
    baseline: Optional[float] = None
    candidate: Optional[float] = None
    #: Signed relative change, candidate vs baseline (NaN when undefined).
    delta: float = float("nan")
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict not in FAILING_VERDICTS


@dataclass
class ComparisonReport:
    """All unit verdicts plus the overall gate outcome."""

    tolerance: float
    verdicts: List[UnitVerdict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    @property
    def regressions(self) -> List[UnitVerdict]:
        return [v for v in self.verdicts if not v.passed]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for verdict in self.verdicts:
            out[verdict.verdict] = out.get(verdict.verdict, 0) + 1
        return out


def _units_by_key(results: Sequence[ScenarioResult]) -> Dict[Tuple, Tuple[str, UnitResult]]:
    out: Dict[Tuple, Tuple[str, UnitResult]] = {}
    for result in results:
        for unit in result.units:
            out[unit.key] = (result.kind, unit)
    return out


def judge_unit(
    kind: str,
    baseline: Optional[UnitResult],
    candidate: Optional[UnitResult],
    tolerance: float,
) -> UnitVerdict:
    """Judge one (baseline, candidate) unit pair on the kind's primary metric.

    At ``tolerance == 0`` the pair must instead match on every metric; any
    difference is a regression whose note names the differing keys.
    """
    metric, higher_is_better = PRIMARY_METRICS[kind]
    some = candidate or baseline
    verdict = UnitVerdict(
        scenario_id=some.scenario_id, unit_label=some.label, metric=metric,
        verdict=VERDICT_UNCHANGED,
    )
    if candidate is None:
        verdict.verdict = VERDICT_MISSING
        verdict.note = "unit present in baseline but absent from the candidate run"
        return verdict
    if candidate.status != "ok":
        # Over-budget units get their own verdict so a wedged grid point is
        # distinguishable from a crashed one in the gate report.
        verdict.verdict = (
            VERDICT_TIMEOUT if candidate.status == "timeout" else VERDICT_ERROR
        )
        verdict.note = f"candidate unit status: {candidate.status}"
        return verdict
    verdict.candidate = candidate.metrics.get(metric)
    if verdict.candidate is None:
        verdict.verdict = VERDICT_ERROR
        verdict.note = f"candidate unit lacks primary metric {metric!r}"
        return verdict
    if baseline is None or baseline.status != "ok" or metric not in baseline.metrics:
        verdict.verdict = VERDICT_NEW
        verdict.note = "no usable baseline for this unit"
        return verdict
    verdict.baseline = baseline.metrics[metric]
    if verdict.baseline == 0:
        verdict.delta = 0.0 if verdict.candidate == 0 else math.inf
    else:
        verdict.delta = (verdict.candidate - verdict.baseline) / abs(verdict.baseline)
    if tolerance == 0:
        differing = sorted(
            key for key in baseline.metrics.keys() | candidate.metrics.keys()
            if baseline.metrics.get(key) != candidate.metrics.get(key)
        )
        if differing:
            verdict.verdict = VERDICT_REGRESSION
            verdict.note = "metrics differ at tolerance 0: " + ", ".join(differing)
        return verdict
    gain = verdict.delta if higher_is_better else -verdict.delta
    if gain < -tolerance:
        verdict.verdict = VERDICT_REGRESSION
        verdict.note = f"{metric} moved {verdict.delta:+.2%} (tolerance {tolerance:.0%})"
    elif gain > tolerance:
        verdict.verdict = VERDICT_IMPROVEMENT
    return verdict


def judge_derived(
    metric: str,
    baseline: UnitResult,
    candidate: UnitResult,
    tolerance: float,
) -> Optional[UnitVerdict]:
    """Judge one derived (trace-analytics) metric pair; ``None`` to skip.

    Derived metrics live in ``UnitResult.extras`` and only exist on traced
    runs; a unit lacking the metric on either side is silently skipped so an
    untraced baseline cannot fail the gate.  Directionless: any relative
    drift beyond tolerance is a regression verdict.
    """
    if candidate.status != "ok" or baseline.status != "ok":
        return None
    cand = candidate.extras.get(metric)
    base = baseline.extras.get(metric)
    if cand is None or base is None:
        return None
    verdict = UnitVerdict(
        scenario_id=candidate.scenario_id, unit_label=candidate.label,
        metric=metric, verdict=VERDICT_UNCHANGED,
        baseline=float(base), candidate=float(cand),
    )
    if base == 0:
        verdict.delta = 0.0 if cand == 0 else math.inf
    else:
        verdict.delta = (cand - base) / abs(base)
    if abs(verdict.delta) > tolerance:
        verdict.verdict = VERDICT_REGRESSION
        verdict.note = (f"derived metric drifted {verdict.delta:+.2%} "
                        f"(tolerance {tolerance:.0%}, either direction)")
    return verdict


def compare_runs(
    candidate: Sequence[ScenarioResult],
    baseline: Sequence[ScenarioResult],
    tolerance: float = DEFAULT_TOLERANCE,
    derived: Sequence[str] = (),
) -> ComparisonReport:
    """Gate a candidate run against a baseline run.

    ``derived`` names trace-analytics metrics (``UnitResult.extras``) to gate
    in addition to each kind's primary metric; pairs lacking a metric are
    skipped (see :func:`judge_derived`).
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    base_units = _units_by_key(baseline)
    cand_units = _units_by_key(candidate)
    report = ComparisonReport(tolerance=tolerance)
    for key, (kind, unit) in cand_units.items():
        base = base_units.get(key)
        report.verdicts.append(judge_unit(kind, base[1] if base else None, unit, tolerance))
        if base is not None:
            for metric in derived:
                extra = judge_derived(metric, base[1], unit, tolerance)
                if extra is not None:
                    report.verdicts.append(extra)
    for key, (kind, unit) in base_units.items():
        if key not in cand_units:
            report.verdicts.append(judge_unit(kind, unit, None, tolerance))
    report.verdicts.sort(key=lambda v: (v.scenario_id, v.unit_label, v.metric))
    return report
