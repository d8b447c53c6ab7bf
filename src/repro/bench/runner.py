"""Parallel matrix runner for the scenario registry.

:func:`run_scenarios` expands every selected :class:`ScenarioConfig` into its
(system × GPU scale × variant) units, executes them on an execution backend
(:mod:`repro.bench.exec`: in-process or a local ``ProcessPoolExecutor``)
with per-unit timeouts, and regroups the structured :class:`UnitResult`s
into per-scenario :class:`ScenarioResult`s.

Unit execution is fully deterministic for a fixed scenario seed: every unit
derives its own seed from the grid index, so results are bit-identical
between ``jobs=1`` and ``jobs=N``.  Results hold simulated quantities only;
host speed is measured by ``perfbench/``, outside the system under test.
"""

from __future__ import annotations

import signal
import threading
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..experiments.placements import make_system_config
from .registry import ScenarioConfig, ScenarioUnit, overrides_dict

#: Per-kind primary metric used for summaries and regression comparison.
PRIMARY_METRICS: Dict[str, Tuple[str, bool]] = {
    "throughput": ("throughput_tok_s", True),
    "convergence": ("final_reward", True),
    "repack_ablation": ("throughput_gain", True),
    "fault_injection": ("throughput_tok_s", True),
    "chaos": ("throughput_tok_s", True),
    "straggler": ("throughput_tok_s", True),
    "kvcache_lifecycle": ("mean_kvcache_utilization", True),
    "weight_sync": ("relay_speedup_vs_gpu_direct", True),
    "broadcast_latency": ("broadcast_s_at_max_scale", False),
}

@dataclass
class UnitResult:
    """Outcome of one scenario grid point."""

    scenario_id: str
    system: str
    model_size: str
    total_gpus: int
    variant: str
    seed: int
    status: str = "ok"  # ok | failed | timeout
    metrics: Dict[str, float] = field(default_factory=dict)
    error: str = ""
    #: Derived (trace-analytics) metrics — attached only when a traced run's
    #: recorder produced a timeline for this unit.  Kept out of ``metrics``
    #: (and out of ``as_dict`` when empty) so nominal untraced artifacts are
    #: byte-identical with or without analytics; ``compare`` gates these only
    #: via an explicit ``--derived-metric`` opt-in.
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str, int, str]:
        return (self.scenario_id, self.system, self.total_gpus, self.variant)

    @property
    def label(self) -> str:
        parts = [self.system, f"{self.model_size}/{self.total_gpus}gpu"]
        if self.variant:
            parts.append(self.variant)
        return ":".join(parts)

    def as_dict(self) -> Dict[str, object]:
        payload = {
            "scenario_id": self.scenario_id,
            "system": self.system,
            "model_size": self.model_size,
            "total_gpus": self.total_gpus,
            "variant": self.variant,
            "seed": self.seed,
            "status": self.status,
            "metrics": dict(sorted(self.metrics.items())),
            "error": self.error,
        }
        if self.extras:
            payload["extras"] = dict(sorted(self.extras.items()))
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "UnitResult":
        return cls(
            scenario_id=str(payload["scenario_id"]),
            system=str(payload["system"]),
            model_size=str(payload["model_size"]),
            total_gpus=int(payload["total_gpus"]),
            variant=str(payload.get("variant", "")),
            seed=int(payload.get("seed", 0)),
            status=str(payload.get("status", "ok")),
            metrics=dict(payload.get("metrics", {})),
            error=str(payload.get("error", "")),
            extras=dict(payload.get("extras", {})),
        )


@dataclass
class ScenarioResult:
    """All unit results of one scenario, plus scenario-level aggregates."""

    scenario_id: str
    kind: str
    units: List[UnitResult] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)

    @property
    def status(self) -> str:
        statuses = {u.status for u in self.units}
        if "failed" in statuses:
            return "failed"
        if "timeout" in statuses:
            return "timeout"
        return "ok"

    def comparable(self) -> Dict[str, object]:
        """The deterministic payload: everything except the derived status."""
        return {
            "scenario_id": self.scenario_id,
            "kind": self.kind,
            "units": [u.as_dict() for u in self.units],
            "summary": dict(sorted(self.summary.items())),
        }

    def as_dict(self) -> Dict[str, object]:
        payload = self.comparable()
        payload["status"] = self.status
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioResult":
        return cls(
            scenario_id=str(payload["scenario_id"]),
            kind=str(payload["kind"]),
            units=[UnitResult.from_dict(u) for u in payload.get("units", [])],
            summary=dict(payload.get("summary", {})),
        )


# --------------------------------------------------------------------------- unit executors
def _build_config(unit: ScenarioUnit, config_overrides: Dict[str, object]) -> SystemConfig:
    config = make_system_config(
        unit.system, unit.model_size, unit.total_gpus, task_type=unit.task_type,
        seed=unit.seed, **config_overrides,
    )
    if unit.batch_scale < 1.0:
        config = config.scaled(unit.batch_scale)
    return replace(config, num_iterations=unit.iterations, warmup_iterations=unit.warmup)


def _run_throughput(unit: ScenarioUnit) -> Dict[str, float]:
    from ..experiments.throughput import measure_config

    config = _build_config(unit, overrides_dict(unit.overrides))
    point = measure_config(config)
    metrics: Dict[str, float] = {
        "throughput_tok_s": float(point.throughput),
        "iteration_time_s": float(point.iteration_time),
        "generation_bound": float(point.generation_bound),
    }
    metrics.update({k: float(v) for k, v in point.details.items()})
    return metrics


def _run_convergence(unit: ScenarioUnit) -> Dict[str, float]:
    from ..algorithms.convergence import run_convergence
    from ..algorithms.task import SyntheticReasoningTask
    from ..experiments.figures import figure13_profiles

    profiles = {
        p.name: p
        for p in figure13_profiles(unit.model_size, unit.total_gpus, seed=unit.base_seed)
    }
    profile = profiles[unit.system]
    # Identical task seed across units so the systems race on the same problem.
    task = SyntheticReasoningTask(seed=unit.base_seed)
    curve = run_convergence(
        profile, task=task, num_iterations=unit.iterations, seed=unit.base_seed
    )
    times = curve.times()
    return {
        "final_reward": float(curve.final_reward()),
        "iterations": float(len(curve.points)),
        "simulated_wall_clock_s": float(times[-1]) if times else 0.0,
    }


def _run_fault_injection(unit: ScenarioUnit) -> Dict[str, float]:
    # The same build as `repro-bench trace` and perfbench, so all three
    # simulate the run this gate checks.
    system = system_for_unit(unit)
    result = system.run()
    records = system.manager.recovery_records
    return {
        "throughput_tok_s": float(result.throughput(unit.warmup)),
        "iterations_completed": float(len(result.iterations)),
        "simulated_wall_clock_s": float(result.wall_clock),
        "failures_handled": float(result.extras.get("failures_handled", 0.0)),
        "recovery_seconds": float(records[0].downtime) if records else 0.0,
        "trajectories_redirected": float(records[0].trajectories_redirected) if records else 0.0,
        "trajectories_lost": float(records[0].trajectories_lost) if records else 0.0,
        "training_continued": float(len(result.iterations) > 0),
    }


#: Chaos counters surfaced by the Laminar runtime only when non-zero; copied
#: into metrics when present so nominal runs keep their metric sets unchanged.
_CHAOS_EXTRAS = (
    "failures_handled",
    "stragglers_handled",
    "straggler_requeues",
    "preemption_warnings",
    "spot_preemptions",
    "network_events",
    "sync_retries",
    "retry_backoff_total",
)


def _rollout_machines(config: SystemConfig) -> int:
    from ..sim.cluster import GPUS_PER_MACHINE

    return max(2, config.rollout_gpus // GPUS_PER_MACHINE)


def _adversarial_system(unit: ScenarioUnit):
    """Laminar system + seeded fault plan for a chaos/straggler unit.

    The schedule derives entirely from ``unit.seed``, so the unit's metrics
    are as deterministic as any nominal unit — the bit-identity contract
    extends to adversarial runs.
    """
    from ..faults import FailurePlan
    from ..systems import LaminarSystem

    params = overrides_dict(unit.overrides)
    if unit.kind == "chaos":
        # Sized so the storm lands inside the measured run (~65 s simulated
        # for the 1/8-scale 7B grid), not after it.
        horizon = float(params.pop("chaos_horizon", 80.0))
        config = _build_config(unit, params)
        plan = FailurePlan.chaos(unit.seed, _rollout_machines(config), horizon)
    elif unit.kind == "straggler":
        persistent = bool(params.pop("persistent", False))
        count = int(params.pop("straggler_count", 2))
        factor_range = (
            float(params.pop("factor_min", 1.5)),
            float(params.pop("factor_max", 4.0)),
        )
        window = (
            float(params.pop("window_start", 10.0)),
            float(params.pop("window_end", 50.0)),
        )
        config = _build_config(unit, params)
        machines = _rollout_machines(config)
        plan = FailurePlan.stragglers(
            unit.seed, machines, window, count=min(count, machines),
            factor_range=factor_range, persistent=persistent,
        )
    else:  # pragma: no cover - guarded by _EXECUTORS / system_for_unit
        raise ValueError(f"not an adversarial kind: {unit.kind!r}")
    return LaminarSystem(config, failure_injector=plan.build_injector()), plan


def _run_adversarial(unit: ScenarioUnit) -> Dict[str, float]:
    system, plan = _adversarial_system(unit)
    result = system.run()
    metrics: Dict[str, float] = {
        "throughput_tok_s": float(result.throughput(unit.warmup)),
        "iterations_completed": float(len(result.iterations)),
        "simulated_wall_clock_s": float(result.wall_clock),
        "events_injected": float(len(plan.events)),
        "training_continued": float(len(result.iterations) > 0),
        "failures_handled": float(result.extras.get("failures_handled", 0.0)),
    }
    for key in _CHAOS_EXTRAS:
        if key in result.extras:
            metrics[key] = float(result.extras[key])
    return metrics


def _run_repack_ablation(unit: ScenarioUnit) -> Dict[str, float]:
    from ..experiments.generation_rate import replica_batch_cycle

    config = _build_config(unit, overrides_dict(unit.overrides))
    cycle = replica_batch_cycle(config, seed=unit.seed)
    without = cycle.rate_without_repack
    return {
        "generation_rate_with_repack": float(cycle.rate_with_repack),
        "generation_rate_without_repack": float(without),
        "throughput_gain": float(cycle.rate_with_repack / without) if without else float("inf"),
        "kvcache_util_with_repack": float(cycle.mean_kvcache_utilization_to_release),
        "kvcache_util_without_repack": float(cycle.mean_kvcache_utilization),
        "replica_cycle_time_s": float(cycle.full_duration),
        "replica_release_time_s": float(cycle.release_time),
    }


def _run_kvcache_lifecycle(unit: ScenarioUnit) -> Dict[str, float]:
    from ..experiments.generation_rate import KVCacheLifecycle, replica_batch_cycle

    config = _build_config(unit, overrides_dict(unit.overrides))
    cycle = replica_batch_cycle(config, seed=unit.seed)
    lifecycle = KVCacheLifecycle.from_profile(cycle)
    return {
        "mean_kvcache_utilization": float(cycle.mean_kvcache_utilization),
        "peak_kvcache_utilization": float(lifecycle.peak_utilization),
        "ramp_seconds": float(lifecycle.ramp_seconds),
        "plateau_fraction": float(lifecycle.plateau_fraction),
        "drain_seconds": float(lifecycle.drain_seconds),
        "cycle_seconds": float(cycle.full_duration),
        "release_fraction_of_cycle": (
            float(cycle.release_time / cycle.full_duration) if cycle.full_duration else 0.0
        ),
        "tokens_generated": float(cycle.total_tokens),
    }


def _run_weight_sync(unit: ScenarioUnit) -> Dict[str, float]:
    from ..systems.broadcast_model import broadcast_latency, rollout_wait_comparison
    from ..sim.cluster import GPUS_PER_MACHINE

    config = _build_config(unit, overrides_dict(unit.overrides))
    model = config.model()
    comparison = rollout_wait_comparison(
        model, config.rollout_gpus, config.rollout_tensor_parallel
    )
    gpu_direct = comparison["gpu_direct"]
    relay_mean = comparison["laminar_mean"]
    machines = max(1, config.rollout_gpus // GPUS_PER_MACHINE)
    return {
        "relay_mean_wait_s": float(relay_mean),
        "relay_best_wait_s": float(comparison["laminar_best"]),
        "gpu_direct_wait_s": float(gpu_direct),
        "relay_speedup_vs_gpu_direct": (
            float(gpu_direct / relay_mean) if relay_mean > 0 else float("inf")
        ),
        "chain_broadcast_s": float(broadcast_latency(model, machines)),
    }


def _run_broadcast_latency(unit: ScenarioUnit) -> Dict[str, float]:
    from ..systems.broadcast_model import (
        broadcast_breakdown,
        figure18_series,
        optimal_chunks,
    )
    from ..sim.network import gpu_direct_global_sync_time

    config = _build_config(unit, overrides_dict(unit.overrides))
    model = config.model()
    series = figure18_series(model)
    max_machines = max(series)
    breakdown = broadcast_breakdown(model, max_machines)
    gpu_direct = gpu_direct_global_sync_time(model.weight_bytes, max_machines)
    at_max = series[max_machines]
    metrics: Dict[str, float] = {
        f"broadcast_s_m{machines}": float(latency)
        for machines, latency in sorted(series.items())
    }
    metrics.update({
        "broadcast_s_at_max_scale": float(at_max),
        "max_scale_machines": float(max_machines),
        "optimal_chunks_at_max_scale": float(optimal_chunks(model, max_machines)),
        "bandwidth_term_s": float(breakdown.bandwidth_term),
        "latency_term_s": float(breakdown.latency_term),
        "pipeline_term_s": float(breakdown.pipeline_term),
        "gpu_direct_s_at_max_scale": float(gpu_direct),
        "speedup_vs_gpu_direct_at_max_scale": (
            float(gpu_direct / at_max) if at_max > 0 else float("inf")
        ),
    })
    return metrics


def system_for_unit(unit: ScenarioUnit):
    """Instantiate the registered system for one grid point.

    Unlike the kind-specific executors above (which may evaluate a unit
    analytically — e.g. the batch-cycle composition for ``laminar``
    throughput), this always builds the full discrete-event system, so a
    traced run produces a complete simulated timeline for every registered
    system.  Fault-injection units keep their failure schedule attached.
    """
    from ..systems import FailureEvent, FailureInjector, FailureKind, LaminarSystem, make_system

    params = overrides_dict(unit.overrides)
    if unit.kind == "fault_injection":
        failure_kind = str(params.pop("failure_kind", FailureKind.ROLLOUT_MACHINE))
        failure_time = float(params.pop("failure_time", 60.0))
        failure_target = int(params.pop("failure_target", 0))
        reinit = bool(params.pop("reinit_succeeds", False))
        config = _build_config(unit, params)
        injector = FailureInjector()
        injector.add(
            FailureEvent(
                time=failure_time, kind=failure_kind, target=failure_target,
                reinit_succeeds=reinit,
            )
        )
        return LaminarSystem(config, failure_injector=injector)
    if unit.kind in ("chaos", "straggler"):
        system, _plan = _adversarial_system(unit)
        return system
    params.pop("staleness_profile", None)  # convergence-only knob
    return make_system(_build_config(unit, params))


_EXECUTORS: Dict[str, Callable[[ScenarioUnit], Dict[str, float]]] = {
    "throughput": _run_throughput,
    "convergence": _run_convergence,
    "fault_injection": _run_fault_injection,
    "chaos": _run_adversarial,
    "straggler": _run_adversarial,
    "repack_ablation": _run_repack_ablation,
    "kvcache_lifecycle": _run_kvcache_lifecycle,
    "weight_sync": _run_weight_sync,
    "broadcast_latency": _run_broadcast_latency,
}


class _UnitTimeout(Exception):
    """Raised inside a worker when its unit exceeds the time budget."""


def _raise_unit_timeout(signum, frame):
    raise _UnitTimeout()


def execute_unit(unit: ScenarioUnit, timeout_s: Optional[float] = None) -> UnitResult:
    """Run one grid point; never raises (errors become a failed UnitResult).

    ``timeout_s`` arms a ``SIGALRM``-based budget around the unit (in the
    parallel runner's worker processes the clock therefore starts when the
    unit actually begins executing, not while it waits in the queue).  On
    platforms without ``SIGALRM``, or off the main thread, the budget is not
    enforced.
    """
    result = UnitResult(
        scenario_id=unit.scenario_id,
        system=unit.system,
        model_size=unit.model_size,
        total_gpus=unit.total_gpus,
        variant=unit.variant,
        seed=unit.seed,
    )
    armed = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if armed:
        previous = signal.signal(signal.SIGALRM, _raise_unit_timeout)
    try:
        if armed:
            # setitimer (not alarm): float precision, so sub-second budgets
            # fire instead of silently rounding up to one second.
            signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 1e-6))
        result.metrics = _EXECUTORS[unit.kind](unit)
    except _UnitTimeout:
        result.status = "timeout"
        result.error = f"unit exceeded {timeout_s:g}s budget"
    except Exception:
        result.status = "failed"
        result.error = traceback.format_exc(limit=8)
    finally:
        if armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    return result


# --------------------------------------------------------------------------- aggregation
def summarise(kind: str, units: Sequence[UnitResult]) -> Dict[str, object]:
    """Scenario-level aggregates over the unit grid."""
    metric, _higher = PRIMARY_METRICS[kind]
    ok = [u for u in units if u.status == "ok" and metric in u.metrics]
    summary: Dict[str, object] = {
        "primary_metric": metric,
        "units_total": len(units),
        "units_ok": sum(1 for u in units if u.status == "ok"),
        "primary_by_unit": {u.label: u.metrics[metric] for u in ok},
    }
    if kind == "throughput":
        by_scale: Dict[int, Dict[str, float]] = {}
        for u in ok:
            by_scale.setdefault(u.total_gpus, {})[u.system] = u.metrics[metric]
        speedups: Dict[str, float] = {}
        winners: Dict[str, str] = {}
        for gpus, tputs in sorted(by_scale.items()):
            winners[str(gpus)] = max(tputs, key=tputs.get)
            if "laminar" in tputs and "verl" in tputs and tputs["verl"] > 0:
                speedups[str(gpus)] = tputs["laminar"] / tputs["verl"]
        if winners:
            summary["best_system_by_scale"] = winners
        if speedups:
            summary["laminar_speedup_vs_verl"] = speedups
    return summary


def _collect(scenarios: Sequence[ScenarioConfig],
             unit_results: Dict[Tuple, UnitResult]) -> List[ScenarioResult]:
    results: List[ScenarioResult] = []
    for scenario in scenarios:
        # Grid-order regrouping; a system-filtered run executed only a subset
        # of the expansion.
        units = [unit_results[u.key] for u in scenario.expand()
                 if u.key in unit_results]
        results.append(
            ScenarioResult(
                scenario_id=scenario.id,
                kind=scenario.kind,
                units=units,
                summary=summarise(scenario.kind, units),
            )
        )
    return results


def run_scenarios(
    scenarios: Sequence[ScenarioConfig],
    jobs: int = 1,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[UnitResult], None]] = None,
    backend: Optional[object] = None,
    systems: Optional[Iterable[str]] = None,
) -> List[ScenarioResult]:
    """Execute every unit of every scenario and regroup per scenario.

    Units run on an execution backend (:mod:`repro.bench.exec`): with no
    explicit ``backend``, ``jobs == 1`` implies the in-process
    ``SerialBackend`` and ``jobs > 1`` the local ``ProcessPoolBackend`` —
    the historical behaviour.  Passing a backend (e.g. the CLI's
    ``TracingSerialBackend``) overrides ``jobs`` entirely.  Because every
    unit derives its seed from its grid index, the regrouped results are
    bit-identical across backends.

    Per-unit budgets are enforced where the unit executes (``SIGALRM`` in
    :func:`execute_unit`, so the clock starts at actual execution, not at
    submission) and over-budget units are reported with status
    ``"timeout"``.  ``timeout_s`` overrides every scenario's own budget.

    ``systems`` restricts execution to the named systems' grid points.  The
    filter drops units *after* grid expansion, so the surviving units keep
    their original grid indices — and therefore their seeds and metrics are
    bit-identical to a full-grid run of the same scenario.
    """
    from .exec import default_backend  # late import: exec builds on this module

    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if backend is None:
        backend = default_backend(jobs=jobs)
    keep_systems = set(systems) if systems is not None else None
    all_units: List[ScenarioUnit] = []
    for scenario in scenarios:
        for unit in scenario.expand():
            if keep_systems is None or unit.system in keep_systems:
                all_units.append(unit)

    unit_results: Dict[Tuple, UnitResult] = {}
    for unit, result in backend.submit(all_units, timeout_s=timeout_s):
        unit_results[unit.key] = result
        if progress is not None:
            progress(result)
    return _collect(scenarios, unit_results)
