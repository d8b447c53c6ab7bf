"""GPU placements from Table 2 and rollout parallelism from Appendix A.2.

Table 2 lists, for every (system, model size, total GPU count), how many GPUs
serve the trainer and how many serve rollouts.  verl uses colocation (all GPUs
alternate between the two stages).  The rollout tensor-parallel size also
follows the appendix: TP=1 for the 7B model in AReaL/Laminar, TP=2 for the 7B
model in the other systems, TP=4 for 32B and TP=8 for 72B.

Systems are resolved through the :mod:`repro.systems` registry: a registered
variant (``laminar_norepack``, ``semi_sync``) declares which canonical
system's placements it reuses via ``SystemCapabilities.placement_like``, and
:func:`make_system_config` reads the per-system knobs (staleness bound, max
concurrency, repack) off the registered class instead of hard-coded tables.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..config import SystemConfig, default_trainer_parallel
from ..systems.base import (
    SystemRegistryError,
    get_system_class,
    placement_system,
)

#: Canonical system identifiers evaluated in the paper (Fig 11 series).
#: Registered variants resolve onto these via ``placement_like``.
SYSTEMS = ("verl", "one_step", "stream_gen", "areal", "laminar")

#: Table 2 — (train GPUs, rollout GPUs) per (system, model, total GPUs).
#: verl entries are colocated: (total, 0).
PLACEMENTS: Dict[Tuple[str, str, int], Tuple[int, int]] = {
    # ---- verl (colocated) ----
    **{("verl", "7B", n): (n, 0) for n in (16, 32, 64, 128, 256)},
    **{("verl", "32B", n): (n, 0) for n in (32, 64, 128, 256, 512)},
    **{("verl", "72B", n): (n, 0) for n in (64, 128, 256, 512, 1024)},
    # ---- One-step staleness ----
    ("one_step", "7B", 16): (8, 8),
    ("one_step", "7B", 32): (8, 24),
    ("one_step", "7B", 64): (16, 48),
    ("one_step", "7B", 128): (32, 96),
    ("one_step", "7B", 256): (40, 216),
    ("one_step", "32B", 32): (16, 16),
    ("one_step", "32B", 64): (32, 32),
    ("one_step", "32B", 128): (48, 80),
    ("one_step", "32B", 256): (64, 192),
    ("one_step", "32B", 512): (80, 432),
    ("one_step", "72B", 64): (32, 32),
    ("one_step", "72B", 128): (64, 64),
    ("one_step", "72B", 256): (96, 160),
    ("one_step", "72B", 512): (192, 320),
    ("one_step", "72B", 1024): (256, 768),
    # ---- Stream generation (same placements as one-step in Table 2) ----
    ("stream_gen", "7B", 16): (8, 8),
    ("stream_gen", "7B", 32): (8, 24),
    ("stream_gen", "7B", 64): (16, 48),
    ("stream_gen", "7B", 128): (32, 96),
    ("stream_gen", "7B", 256): (40, 216),
    ("stream_gen", "32B", 32): (16, 16),
    ("stream_gen", "32B", 64): (32, 32),
    ("stream_gen", "32B", 128): (48, 80),
    ("stream_gen", "32B", 256): (64, 192),
    ("stream_gen", "32B", 512): (80, 432),
    ("stream_gen", "72B", 64): (32, 32),
    ("stream_gen", "72B", 128): (64, 64),
    ("stream_gen", "72B", 256): (96, 160),
    ("stream_gen", "72B", 512): (192, 320),
    ("stream_gen", "72B", 1024): (256, 768),
    # ---- AReaL ----
    ("areal", "7B", 16): (8, 8),
    ("areal", "7B", 32): (16, 16),
    ("areal", "7B", 64): (32, 32),
    ("areal", "7B", 128): (64, 64),
    ("areal", "7B", 256): (128, 128),
    ("areal", "32B", 32): (16, 16),
    ("areal", "32B", 64): (32, 32),
    ("areal", "32B", 128): (64, 64),
    ("areal", "32B", 256): (128, 128),
    ("areal", "32B", 512): (256, 256),
    ("areal", "72B", 64): (32, 32),
    ("areal", "72B", 128): (64, 64),
    ("areal", "72B", 256): (128, 128),
    ("areal", "72B", 512): (320, 192),
    ("areal", "72B", 1024): (640, 384),
    # ---- Laminar ----
    ("laminar", "7B", 16): (8, 8),
    ("laminar", "7B", 32): (24, 8),
    ("laminar", "7B", 64): (40, 24),
    ("laminar", "7B", 128): (80, 48),
    ("laminar", "7B", 256): (192, 64),
    ("laminar", "32B", 32): (16, 16),
    ("laminar", "32B", 64): (32, 32),
    ("laminar", "32B", 128): (64, 64),
    ("laminar", "32B", 256): (128, 128),
    ("laminar", "32B", 512): (256, 256),
    ("laminar", "72B", 64): (32, 32),
    ("laminar", "72B", 128): (64, 64),
    ("laminar", "72B", 256): (128, 128),
    ("laminar", "72B", 512): (320, 192),
    ("laminar", "72B", 1024): (768, 256),
}

#: Datacenter-scale placements beyond Table 2, extrapolated with each
#: system's scaling recipe (verl stays colocated; the pipelined systems keep
#: the 256-GPU trainer:rollout ratio trend).  They feed the fleet-scale bench
#: scenarios (``datacenter_1k``) and are deliberately *excluded* from
#: :func:`table2_rows`, which reproduces the paper's table verbatim.
EXTRAPOLATED_PLACEMENTS: Dict[Tuple[str, str, int], Tuple[int, int]] = {
    ("verl", "7B", 4096): (4096, 0),        # 2048 rollout replicas at TP=2
    ("one_step", "7B", 4096): (512, 3584),  # 1792 rollout replicas at TP=2
    ("stream_gen", "7B", 4096): (512, 3584),
    ("verl", "7B", 8192): (8192, 0),        # 4096 rollout replicas at TP=2
    ("one_step", "7B", 8192): (1024, 7168),  # 3584 rollout replicas at TP=2
    ("stream_gen", "7B", 8192): (1024, 7168),
}

#: GPU scales evaluated per model size (Fig 11).
MODEL_SCALES: Dict[str, List[int]] = {
    "7B": [16, 32, 64, 128, 256],
    "32B": [32, 64, 128, 256, 512],
    "72B": [64, 128, 256, 512, 1024],
}


def _placement_base(system: str) -> str:
    """The canonical system whose Table 2 placements ``system`` uses."""
    try:
        return placement_system(system)
    except SystemRegistryError:
        return system  # unregistered name: fall through to the table lookup


def rollout_tensor_parallel(system: str, model_size: str) -> int:
    """Rollout TP size per Appendix A.2 (variants follow their base system)."""
    base = _placement_base(system)
    if model_size == "32B":
        return 4
    if model_size == "72B":
        return 8
    # 7B: AReaL and Laminar maximise throughput with TP=1; others use TP=2.
    return 1 if base in ("areal", "laminar") else 2


def placement_for(system: str, model_size: str, total_gpus: int) -> Tuple[int, int]:
    """Trainer/rollout GPU split from Table 2 (variants follow their base).

    Datacenter-scale points past the end of Table 2 resolve through
    :data:`EXTRAPOLATED_PLACEMENTS`.
    """
    key = (_placement_base(system), model_size, total_gpus)
    try:
        return PLACEMENTS[key]
    except KeyError:
        pass
    try:
        return EXTRAPOLATED_PLACEMENTS[key]
    except KeyError:
        raise KeyError(
            f"no Table 2 placement for system={system!r}, model={model_size!r}, "
            f"GPUs={total_gpus}"
        ) from None


def make_system_config(
    system: str,
    model_size: str,
    total_gpus: int,
    task_type: str = "math",
    **overrides,
) -> SystemConfig:
    """Build the paper-accurate configuration for one evaluation grid point.

    ``system`` may be any name in the :mod:`repro.systems` registry; its
    placement, tensor parallelism, staleness bound, concurrency cap and
    repack setting come from the registered class's capabilities.
    """
    try:
        capabilities = get_system_class(system).capabilities
    except SystemRegistryError as exc:
        raise ValueError(str(exc)) from None
    base = _placement_base(system)
    trainer_gpus, rollout_gpus = placement_for(system, model_size, total_gpus)
    tp = rollout_tensor_parallel(system, model_size)
    config = SystemConfig(
        system=system,
        model_size=model_size,
        task_type=task_type,
        trainer_gpus=trainer_gpus,
        rollout_gpus=rollout_gpus,
        rollout_tensor_parallel=tp,
        trainer_parallel=default_trainer_parallel(model_size, trainer_gpus, base),
        staleness_bound=capabilities.default_staleness_bound,
        max_concurrency_per_replica=capabilities.default_max_concurrency,
        repack_enabled=capabilities.repack,
    )
    if overrides:
        from dataclasses import replace

        config = replace(config, **overrides)
    return config


def table2_rows() -> List[Dict[str, object]]:
    """Reproduce Table 2 as a list of row dictionaries."""
    rows: List[Dict[str, object]] = []
    for (system, model_size, total), (train, rollout) in sorted(
        PLACEMENTS.items(), key=lambda kv: (SYSTEMS.index(kv[0][0]), kv[0][1], kv[0][2])
    ):
        rows.append(
            {
                "system": system,
                "model": model_size,
                "total_gpus": total,
                "trainer_gpus": train if rollout else total,
                "rollout_gpus": rollout if rollout else total,
                "colocated": rollout == 0,
            }
        )
    return rows
