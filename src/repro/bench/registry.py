"""Scenario definitions — the canonical list of benchmark evaluations.

A :class:`ScenarioConfig` declaratively describes one benchmark scenario as a
grid of (system × GPU scale × variant) units over the paper's evaluation
settings.  The canonical :data:`SCENARIOS` registry covers throughput sweeps
(Fig 11/12), convergence (Fig 13), fault injection (Fig 15), the adversarial
chaos/straggler drills built on :mod:`repro.faults`, the repack ablation
(Fig 16 / Table 1), the staleness-bound sweep and multi-turn tool workloads.  The matrix runner in :mod:`repro.bench.runner` expands and
executes these grids; scenarios are resolved by exact id, glob pattern,
substring or tag via :func:`select_scenarios`.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from ..experiments.placements import SYSTEMS, placement_for
from ..systems.base import SystemRegistryError, get_system_class

#: Supported scenario kinds (each has an executor in ``repro.bench.runner``).
KINDS = (
    "throughput",
    "convergence",
    "fault_injection",
    "repack_ablation",
    "kvcache_lifecycle",
    "weight_sync",
    "broadcast_latency",
    "chaos",
    "straggler",
)

#: ``(key, value)`` pairs — hashable stand-in for a dict so the config stays frozen.
Overrides = Tuple[Tuple[str, object], ...]

#: ``(label, overrides)`` pairs; each variant adds one axis point to the grid.
Variants = Tuple[Tuple[str, Overrides], ...]


def overrides_dict(overrides: Overrides) -> Dict[str, object]:
    """Materialise an ``Overrides`` tuple as a plain dict."""
    return dict(overrides)


@dataclass(frozen=True)
class ScenarioConfig:
    """Declarative description of one benchmark scenario grid."""

    id: str
    description: str
    kind: str
    systems: Tuple[str, ...]
    model_size: str = "7B"
    task_type: str = "math"
    #: Total-GPU counts to evaluate (must have Table 2 placements).
    gpu_scales: Tuple[int, ...] = (16,)
    #: Extra grid axis: ``(label, overrides)`` per variant; empty means a
    #: single unlabelled variant.
    variants: Variants = ()
    #: Measured iterations per unit (GRPO iterations for convergence).
    iterations: int = 3
    warmup: int = 1
    #: Batch-scale factor passed to ``SystemConfig.scaled`` (1.0 = paper batch).
    batch_scale: float = 1.0
    seed: int = 0
    #: Per-unit wall-clock budget enforced by the parallel runner.
    timeout_s: float = 300.0
    tags: Tuple[str, ...] = ()
    #: ``SystemConfig`` field overrides applied to every unit of the grid.
    overrides: Overrides = ()

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("scenario id must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}; known: {KINDS}")
        if not self.systems:
            raise ValueError("scenario needs at least one system")
        for system in self.systems:
            try:
                get_system_class(system)
            except SystemRegistryError as exc:
                raise ValueError(str(exc)) from None
        for gpus in self.gpu_scales:
            for system in self.systems:
                try:
                    placement_for(system, self.model_size, gpus)
                except KeyError:
                    raise ValueError(
                        f"scenario {self.id!r}: no Table 2 placement for "
                        f"({system}, {self.model_size}, {gpus})"
                    ) from None
        labels = [label for label, _ in self.variants]
        if len(labels) != len(set(labels)):
            raise ValueError(f"scenario {self.id!r}: duplicate variant labels")
        if not (0.0 < self.batch_scale <= 1.0):
            raise ValueError("batch_scale must be in (0, 1]")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if not (0 <= self.warmup < self.iterations):
            raise ValueError("warmup must be in [0, iterations)")
        if self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")

    # -- grid expansion ---------------------------------------------------------
    def expand(self) -> List["ScenarioUnit"]:
        """Expand the (system × GPU scale × variant) grid into runnable units."""
        variants: Variants = self.variants or (("", ()),)
        units: List[ScenarioUnit] = []
        index = 0
        for system in self.systems:
            for gpus in self.gpu_scales:
                for label, var_overrides in variants:
                    units.append(
                        ScenarioUnit(
                            scenario_id=self.id,
                            kind=self.kind,
                            system=system,
                            model_size=self.model_size,
                            task_type=self.task_type,
                            total_gpus=gpus,
                            variant=label,
                            iterations=self.iterations,
                            warmup=self.warmup,
                            batch_scale=self.batch_scale,
                            seed=self.seed + index,
                            base_seed=self.seed,
                            timeout_s=self.timeout_s,
                            overrides=tuple(self.overrides) + tuple(var_overrides),
                        )
                    )
                    index += 1
        return units

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "description": self.description,
            "kind": self.kind,
            "systems": list(self.systems),
            "model_size": self.model_size,
            "task_type": self.task_type,
            "gpu_scales": list(self.gpu_scales),
            "variants": [[label, [list(kv) for kv in ov]] for label, ov in self.variants],
            "iterations": self.iterations,
            "warmup": self.warmup,
            "batch_scale": self.batch_scale,
            "seed": self.seed,
            "timeout_s": self.timeout_s,
            "tags": list(self.tags),
            "overrides": [list(kv) for kv in self.overrides],
        }


@dataclass(frozen=True)
class ScenarioUnit:
    """One grid point of a scenario — the unit of (parallel) execution."""

    scenario_id: str
    kind: str
    system: str
    model_size: str
    task_type: str
    total_gpus: int
    variant: str
    iterations: int
    warmup: int
    batch_scale: float
    #: Per-unit seed (scenario seed + grid index) for independent sampling.
    seed: int
    #: Scenario-level seed, for kinds that must share a task across units
    #: (convergence compares systems on the identical synthetic task).
    base_seed: int
    timeout_s: float
    overrides: Overrides = ()

    @property
    def key(self) -> Tuple[str, str, int, str]:
        """Stable identity used to match units across runs in comparisons."""
        return (self.scenario_id, self.system, self.total_gpus, self.variant)

    @property
    def label(self) -> str:
        parts = [self.system, f"{self.model_size}/{self.total_gpus}gpu"]
        if self.variant:
            parts.append(self.variant)
        return ":".join(parts)


# --------------------------------------------------------------------------- catalog
def _staleness_variants(bounds: Iterable[int]) -> Variants:
    return tuple((f"k={k}", (("staleness_bound", k),)) for k in bounds)


SCENARIOS: Tuple[ScenarioConfig, ...] = (
    ScenarioConfig(
        id="throughput_smoke",
        description="Quick throughput sanity check: all five systems, 7B @ 16 GPUs, "
                    "1/8-scale batch. The CI smoke scenario.",
        kind="throughput",
        systems=SYSTEMS,
        model_size="7B",
        gpu_scales=(16,),
        iterations=3,
        warmup=1,
        batch_scale=0.125,
        timeout_s=120.0,
        tags=("smoke", "throughput"),
    ),
    ScenarioConfig(
        id="throughput_7b_math",
        description="Fig 11a throughput sweep (7B, math) at the smallest and "
                    "largest Table 2 scales.",
        kind="throughput",
        systems=SYSTEMS,
        model_size="7B",
        gpu_scales=(16, 256),
        batch_scale=0.25,
        tags=("throughput", "fig11"),
    ),
    ScenarioConfig(
        id="throughput_32b_math",
        description="Fig 11b throughput sweep (32B, math).",
        kind="throughput",
        systems=SYSTEMS,
        model_size="32B",
        gpu_scales=(32, 512),
        batch_scale=0.25,
        tags=("throughput", "fig11"),
    ),
    ScenarioConfig(
        id="throughput_72b_math",
        description="Fig 11c throughput sweep (72B, math).",
        kind="throughput",
        systems=SYSTEMS,
        model_size="72B",
        gpu_scales=(64, 1024),
        batch_scale=0.25,
        timeout_s=600.0,
        tags=("throughput", "fig11"),
    ),
    ScenarioConfig(
        id="throughput_7b_tool",
        description="Fig 12 multi-turn tool-calling throughput sweep (7B); AReaL "
                    "is omitted as in the paper.",
        kind="throughput",
        systems=("verl", "one_step", "stream_gen", "laminar"),
        model_size="7B",
        task_type="tool",
        gpu_scales=(16, 256),
        batch_scale=0.25,
        tags=("throughput", "tool", "fig12"),
    ),
    ScenarioConfig(
        id="tool_long_horizon",
        description="Long-horizon tool workload: 16 environment turns per "
                    "trajectory, Laminar vs stream generation.",
        kind="throughput",
        systems=("stream_gen", "laminar"),
        model_size="7B",
        task_type="tool",
        gpu_scales=(64,),
        batch_scale=0.25,
        overrides=(("max_tool_turns", 16),),
        tags=("tool",),
    ),
    ScenarioConfig(
        id="convergence_7b",
        description="Fig 13 reward-vs-wall-clock convergence of the synthetic "
                    "GRPO task under every system's staleness profile.",
        kind="convergence",
        systems=SYSTEMS,
        model_size="7B",
        gpu_scales=(32,),
        iterations=8,
        warmup=0,
        # ~1 s per unit uncontended (the 5 units take ~5 s on a 2-vCPU host);
        # budget sized for jobs-wide CPU contention.
        timeout_s=600.0,
        tags=("convergence", "fig13"),
    ),
    ScenarioConfig(
        id="fault_injection",
        description="Fig 15 fault drill: rollout-machine, relay and trainer "
                    "failures injected mid-run into the Laminar simulator.",
        kind="fault_injection",
        systems=("laminar",),
        model_size="7B",
        gpu_scales=(64,),
        variants=(
            ("rollout_machine", (("failure_kind", "rollout_machine"),)),
            ("relay", (("failure_kind", "relay"),)),
            ("trainer", (("failure_kind", "trainer"),)),
        ),
        iterations=6,
        warmup=1,
        batch_scale=0.125,
        timeout_s=240.0,
        tags=("fault",),
    ),
    ScenarioConfig(
        id="chaos_7b",
        description="Adversarial-infrastructure drill: one seeded composition "
                    "of a correlated rack wave, a spot-preemption wave with "
                    "warning lead, a transient straggler and a degraded-network "
                    "window, injected into the Laminar simulator (7B, 64 GPUs). "
                    "Each variant is an independent storm seed.",
        kind="chaos",
        systems=("laminar",),
        model_size="7B",
        gpu_scales=(64,),
        variants=(
            ("storm_a", ()),
            ("storm_b", ()),
        ),
        iterations=6,
        warmup=1,
        batch_scale=0.125,
        timeout_s=240.0,
        tags=("chaos", "fault"),
    ),
    ScenarioConfig(
        id="straggler_7b",
        description="Straggler drill: seeded transient and persistent slowdown "
                    "multipliers on rollout machines; Laminar preempts and "
                    "requeues severe stragglers, waits out mild ones "
                    "(7B, 64 GPUs).",
        kind="straggler",
        systems=("laminar",),
        model_size="7B",
        gpu_scales=(64,),
        variants=(
            ("transient", ()),
            ("persistent", (("persistent", True),)),
            ("severe", (("factor_min", 2.5), ("factor_max", 4.0))),
        ),
        iterations=6,
        warmup=1,
        batch_scale=0.125,
        timeout_s=240.0,
        tags=("chaos", "fault", "straggler"),
    ),
    ScenarioConfig(
        id="repack_ablation_32b",
        description="Fig 16 / Table 1 repack ablation: per-replica generation "
                    "rate and KVCache utilisation with and without repack (32B).",
        kind="repack_ablation",
        systems=("laminar",),
        model_size="32B",
        gpu_scales=(128,),
        tags=("repack", "fig16", "smoke"),
    ),
    ScenarioConfig(
        id="kvcache_lifecycle_7b",
        description="Fig 9 KVCache lifecycle of one rollout replica over a prompt "
                    "batch: utilisation ramp, plateau near C_max, and drain, plus "
                    "the repack release point.",
        kind="kvcache_lifecycle",
        systems=("laminar",),
        model_size="7B",
        gpu_scales=(64,),
        iterations=1,
        warmup=0,
        timeout_s=120.0,
        tags=("kvcache", "fig9", "smoke"),
    ),
    ScenarioConfig(
        id="weight_sync_32b",
        description="Fig 14 rollout waiting time during weight sync: Laminar's "
                    "relay pull vs the blocking GPU-direct global sync (32B).",
        kind="weight_sync",
        systems=("laminar",),
        model_size="32B",
        gpu_scales=(128, 512),
        iterations=1,
        warmup=0,
        timeout_s=60.0,
        tags=("weight_sync", "fig14", "smoke"),
    ),
    ScenarioConfig(
        id="broadcast_latency",
        description="Fig 18 relay broadcast latency: chain-pipelined weight "
                    "broadcast time vs machine count (32B), with the Appendix D "
                    "term breakdown and the GPU-direct comparison.",
        kind="broadcast_latency",
        systems=("laminar",),
        model_size="32B",
        gpu_scales=(128,),
        iterations=1,
        warmup=0,
        timeout_s=60.0,
        tags=("broadcast", "fig18", "smoke"),
    ),
    ScenarioConfig(
        id="laminar_norepack",
        description="Fig 16 repack ablation as a registry variant: Laminar vs "
                    "the registered laminar_norepack system (32B, 128 GPUs), "
                    "cross-checked against the repack_ablation_32b gain.",
        kind="throughput",
        systems=("laminar", "laminar_norepack"),
        model_size="32B",
        gpu_scales=(128,),
        timeout_s=240.0,
        tags=("repack", "fig16", "variant", "smoke"),
    ),
    ScenarioConfig(
        id="semi_sync",
        description="Bounded-staleness barrier hybrid (registered semi_sync "
                    "system) vs the one-step pipeline: a new Fig 11-style "
                    "series, 7B @ 16 GPUs at 1/8-scale batch.",
        kind="throughput",
        systems=("one_step", "semi_sync"),
        model_size="7B",
        gpu_scales=(16,),
        iterations=3,
        warmup=1,
        batch_scale=0.125,
        timeout_s=240.0,
        tags=("throughput", "variant", "smoke"),
    ),
    ScenarioConfig(
        id="fleet_smoke",
        description="Fleet-engine smoke: the three barrier shapes (plain, "
                    "anchored, streamed) at 7B @ 256 GPUs on the fleet-stepped "
                    "path, 1/8-scale batch.",
        kind="throughput",
        systems=("verl", "one_step", "stream_gen"),
        model_size="7B",
        gpu_scales=(256,),
        iterations=2,
        warmup=1,
        batch_scale=0.125,
        timeout_s=120.0,
        tags=("smoke", "fleet", "throughput"),
    ),
    ScenarioConfig(
        id="datacenter_1k",
        description="Datacenter-scale fleet: 7B @ 4096 GPUs (1792-2048 rollout "
                    "replicas per system) at full paper batch — feasible only "
                    "on the fleet-stepped SoA engine.",
        kind="throughput",
        systems=("verl", "one_step", "stream_gen"),
        model_size="7B",
        gpu_scales=(4096,),
        iterations=3,
        warmup=1,
        batch_scale=1.0,
        timeout_s=600.0,
        tags=("fleet", "datacenter", "throughput"),
    ),
    ScenarioConfig(
        id="datacenter_4k",
        description="Full-fidelity datacenter fleet: 7B @ 8192 GPUs (3584-4096 "
                    "rollout replicas per system) at full paper batch — the "
                    "fused cross-replica stepping path carries every barrier.",
        kind="throughput",
        systems=("verl", "one_step", "stream_gen"),
        model_size="7B",
        gpu_scales=(8192,),
        iterations=3,
        warmup=1,
        batch_scale=1.0,
        timeout_s=1200.0,
        tags=("fleet", "datacenter", "throughput"),
    ),
    ScenarioConfig(
        id="staleness_bound_7b",
        description="Staleness-bound sweep: one-step pipelined baseline with "
                    "k ∈ {1, 2, 4, 8}.",
        kind="throughput",
        systems=("one_step",),
        model_size="7B",
        gpu_scales=(32,),
        variants=_staleness_variants((1, 2, 4, 8)),
        batch_scale=0.25,
        tags=("staleness",),
    ),
)

#: Mutable view of the registry; :func:`register_scenario` extends it.
_REGISTRY: Dict[str, ScenarioConfig] = {s.id: s for s in SCENARIOS}

if len(_REGISTRY) != len(SCENARIOS):  # pragma: no cover - catalog invariant
    raise RuntimeError("duplicate scenario ids in the canonical catalog")


def all_scenarios() -> List[ScenarioConfig]:
    """Every registered scenario, in registration order."""
    return list(_REGISTRY.values())


def get_scenario(scenario_id: str) -> ScenarioConfig:
    """Exact-id lookup."""
    try:
        return _REGISTRY[scenario_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {scenario_id!r}; known: {known}") from None


def register_scenario(scenario: ScenarioConfig, replace_existing: bool = False) -> ScenarioConfig:
    """Add a scenario to the registry (used by downstream suites and tests)."""
    if scenario.id in _REGISTRY and not replace_existing:
        raise ValueError(f"scenario {scenario.id!r} is already registered")
    _REGISTRY[scenario.id] = scenario
    return scenario


def unregister_scenario(scenario_id: str) -> None:
    """Remove a non-canonical scenario (tests); canonical ids are restored."""
    _REGISTRY.pop(scenario_id, None)
    for scenario in SCENARIOS:
        if scenario.id == scenario_id:
            _REGISTRY[scenario_id] = scenario


def select_scenarios(patterns: Iterable[str]) -> List[ScenarioConfig]:
    """Resolve ids/globs/substrings/tags to scenarios, preserving catalog order.

    Each pattern matches, in order of preference: an exact scenario id, a
    glob over ids (``throughput_*``), a tag, or an id substring (so
    ``smoke`` selects every scenario tagged or named smoke).
    """
    selected: Dict[str, ScenarioConfig] = {}
    for pattern in patterns:
        matches: List[ScenarioConfig] = []
        if pattern in _REGISTRY:
            matches = [_REGISTRY[pattern]]
        else:
            matches = [s for s in _REGISTRY.values() if fnmatch.fnmatch(s.id, pattern)]
            if not matches:
                matches = [s for s in _REGISTRY.values() if pattern in s.tags]
            if not matches:
                matches = [s for s in _REGISTRY.values() if pattern in s.id]
        if not matches:
            known = ", ".join(sorted(_REGISTRY))
            raise KeyError(f"pattern {pattern!r} matches no scenario; known: {known}")
        for scenario in matches:
            selected[scenario.id] = scenario
    order = {sid: i for i, sid in enumerate(_REGISTRY)}
    return sorted(selected.values(), key=lambda s: order[s.id])
