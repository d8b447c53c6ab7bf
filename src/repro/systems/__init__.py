"""Unified system registry: every orchestration behind one protocol.

``repro.systems`` holds everything that *is* an orchestration or belongs to
one — the :class:`System` protocol and string-keyed registry (:mod:`.base`),
the seven registered orchestrations (Laminar, the four §8 baselines and the
composed variants), and Laminar's component library (relays, repack,
staleness tracking, fault tolerance, the broadcast cost model).  The shared
substrate they all run on lives one layer down in :mod:`repro.runtime`.

Registered systems::

    verl             synchronous, on-policy, colocated (Fig 3a)
    one_step         k=1 bounded-staleness pipeline (Fig 3b)
    stream_gen       streaming mini-batch consumption (Fig 3c)
    areal            partial rollout, unbounded staleness (Fig 3d)
    semi_sync        bounded-staleness barrier hybrid (registry variant)
    laminar          trajectory-level asynchronous RL (§3-§6)
    laminar_norepack Laminar with repack ablated (Fig 16 / Table 1)

Adding an orchestration is: subclass :class:`System`, implement ``build``
(a process body over timeouts and ``AllOf`` joins), decorate with
``@register`` — the benchmark registry, experiment drivers and examples all
resolve systems by name from here.
"""

from .base import (
    COLOCATED_SWITCH_OVERHEAD,
    System,
    SystemCapabilities,
    SystemRegistryError,
    available_systems,
    get_system_class,
    make_system,
    placement_system,
    register,
    register_system,
    unregister_system,
)
from .broadcast_model import (
    BroadcastBreakdown,
    broadcast_breakdown,
    broadcast_latency,
    figure18_series,
    optimal_chunks,
    rollout_wait_comparison,
)
from .fault_tolerance import (
    FailureEvent,
    FailureInjector,
    FailureKind,
    RecoveryModel,
    RecoveryRecord,
    known_failure_kinds,
    register_failure_kind,
)
from .relay import PullRecord, RelayService, WeightPublication
from .repack import (
    RepackExecutor,
    RepackPlan,
    RepackStats,
    ReplicaSnapshot,
    best_fit_consolidation,
    group_by_version,
    plan_repack,
)
from .rollout_manager import RolloutManager
from .staleness import StalenessSample, StalenessTracker

# Importing the orchestration modules registers them.
from .verl import VerlSynchronous
from .one_step import OneStepStaleness
from .stream_gen import StreamGeneration
from .areal import PartialRollout
from .semi_sync import SemiSyncBarrier
from .laminar import LaminarNoRepack, LaminarRuntime, LaminarSystem

__all__ = [
    # protocol + registry
    "COLOCATED_SWITCH_OVERHEAD",
    "System",
    "SystemCapabilities",
    "SystemRegistryError",
    "available_systems",
    "get_system_class",
    "make_system",
    "placement_system",
    "register",
    "register_system",
    "unregister_system",
    # orchestrations
    "VerlSynchronous",
    "OneStepStaleness",
    "StreamGeneration",
    "PartialRollout",
    "SemiSyncBarrier",
    "LaminarSystem",
    "LaminarNoRepack",
    "LaminarRuntime",
    # Laminar component library
    "BroadcastBreakdown",
    "broadcast_breakdown",
    "broadcast_latency",
    "figure18_series",
    "optimal_chunks",
    "rollout_wait_comparison",
    "FailureEvent",
    "FailureInjector",
    "FailureKind",
    "RecoveryModel",
    "RecoveryRecord",
    "known_failure_kinds",
    "register_failure_kind",
    "PullRecord",
    "RelayService",
    "WeightPublication",
    "RepackExecutor",
    "RepackPlan",
    "RepackStats",
    "ReplicaSnapshot",
    "best_fit_consolidation",
    "group_by_version",
    "plan_repack",
    "RolloutManager",
    "StalenessSample",
    "StalenessTracker",
]
