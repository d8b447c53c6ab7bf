"""repro.faults: composable, seeded adversarial-infrastructure schedules.

Builders live in :mod:`repro.faults.plan`; the event/recovery vocabulary they
lower into is :mod:`repro.systems.fault_tolerance`, and the Laminar runtime
consumes the resulting :class:`~repro.systems.fault_tolerance.FailureInjector`
in pure event time.  The whole subsystem is deterministic from unit seeds:
fleet stepping stays ``==`` to the per-replica process oracle under injected
chaos.
"""

from ..systems.fault_tolerance import (
    FailureEvent,
    FailureInjector,
    FailureKind,
    RecoveryModel,
    RecoveryRecord,
    known_failure_kinds,
    register_failure_kind,
)
from .plan import DEFAULT_RACK_SIZE, FailurePlan, rack_machines

__all__ = [
    "DEFAULT_RACK_SIZE",
    "FailureEvent",
    "FailureInjector",
    "FailureKind",
    "FailurePlan",
    "RecoveryModel",
    "RecoveryRecord",
    "known_failure_kinds",
    "rack_machines",
    "register_failure_kind",
]
