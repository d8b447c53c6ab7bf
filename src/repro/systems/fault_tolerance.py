"""Failure injection and recovery modelling (§3.3, §4.3, Fig 15).

Laminar isolates faults: a rollout-machine failure neither halts the trainer
nor loses in-progress trajectories (they live in the partial response pool and
are redirected to healthy replicas of the same weight version), and relay
failures are repaired by rebuilding the broadcast chain in O(1).  This module
describes injected failures and the recovery cost model the Laminar simulator
applies.

Failure kinds are registered in a module-level registry
(:func:`register_failure_kind`), mirroring the systems registry: constructing
a :class:`FailureEvent` with an unknown kind raises with the registered list.
The adversarial schedules in :mod:`repro.faults` extend the original crash kinds
with degradation kinds — spot preemption (with a warning lead), stragglers
and network degradation — that the Laminar runtime handles without treating
them as machine losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

# --------------------------------------------------------------------------- kind registry
_KINDS: Dict[str, str] = {}


def register_failure_kind(name: str, description: str = "") -> str:
    """Register a failure kind name; returns it so class attributes read clean.

    Re-registering an existing name with a new description raises, matching
    the systems-registry duplicate rule.
    """
    if not name:
        raise ValueError("failure kind name must be non-empty")
    if name in _KINDS:
        raise ValueError(f"failure kind {name!r} is already registered")
    _KINDS[name] = description
    return name


def known_failure_kinds() -> List[str]:
    """Registered kind names, in registration order."""
    return list(_KINDS)


class FailureKind:
    """Registered failure kinds.

    The first three are the paper's crash kinds (Fig 15); the rest are the
    adversarial-infrastructure kinds added by :mod:`repro.faults`.
    """

    ROLLOUT_MACHINE = register_failure_kind(
        "rollout_machine", "rollout machine crash; replicas lost until recovery")
    RELAY = register_failure_kind(
        "relay", "relay node loss; broadcast chain rebuilt in O(1)")
    TRAINER = register_failure_kind(
        "trainer", "trainer worker loss; restore from checkpoint")
    SPOT_WARNING = register_failure_kind(
        "spot_warning", "spot preemption notice; machine drains gracefully")
    SPOT_PREEMPTION = register_failure_kind(
        "spot_preemption", "spot instance reclaimed; replacement provisioned")
    STRAGGLER = register_failure_kind(
        "straggler", "machine slows down by `factor` (decode + env latency)")
    STRAGGLER_CLEAR = register_failure_kind(
        "straggler_clear", "straggling machine returns to full speed")
    NETWORK_DEGRADED = register_failure_kind(
        "network_degraded", "inter-machine bandwidth dips to `factor` of nominal")
    NETWORK_RESTORED = register_failure_kind(
        "network_restored", "inter-machine bandwidth back to nominal")
    LINK_FLAP = register_failure_kind(
        "link_flap", "machine link flaps for `duration`; syncs retry with backoff")


@dataclass(frozen=True)
class FailureEvent:
    """One injected failure or degradation event."""

    time: float
    kind: str
    #: Target machine id (rollout/relay failures) or trainer-worker index;
    #: -1 = global.
    target: int
    #: Whether a same-GPU re-initialisation succeeds (§3.3 first attempt).
    reinit_succeeds: bool = False
    #: Degradation magnitude: slowdown multiplier for stragglers (> 1 is
    #: slower), bandwidth multiplier for network dips (< 1 is slower).
    factor: float = 1.0
    #: Length of the degradation window in seconds (0 = persistent / n/a).
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("failure time must be non-negative")
        if self.kind not in _KINDS:
            known = ", ".join(known_failure_kinds()) or "(none)"
            raise ValueError(
                f"unknown failure kind {self.kind!r}; registered kinds: {known}"
            )
        if self.factor <= 0:
            raise ValueError("failure factor must be positive")
        if self.duration < 0:
            raise ValueError("failure duration must be non-negative")


@dataclass(frozen=True)
class RecoveryModel:
    """Recovery latencies (§3.3, §8.5)."""

    #: Heartbeat interval / detection latency for rollout machines.
    heartbeat_interval: float = 5.0
    #: Re-initialising a replica on the same GPUs (first recovery attempt).
    reinit_time: float = 30.0
    #: Allocating a replacement machine and bringing up rollouts + relay on it.
    #: §8.5 measures ~252 s end-to-end including detection and weight sync.
    machine_replacement_time: float = 240.0
    #: Rebuilding the relay broadcast chain around a failed node (§4.3).
    chain_rebuild_time: float = 0.5
    #: Restoring the trainer from its latest checkpoint.
    trainer_restore_time: float = 120.0
    #: Replacing a preempted spot machine: the warning already drained it, so
    #: there is no detection latency or re-init attempt, only provisioning.
    spot_replacement_time: float = 180.0

    def rollout_recovery_time(self, event: FailureEvent) -> float:
        """Wall-clock from failure to the replicas being back in service."""
        detection = self.heartbeat_interval
        if event.reinit_succeeds:
            return detection + self.reinit_time
        return detection + self.reinit_time + self.machine_replacement_time

    def relay_recovery_time(self) -> float:
        return self.chain_rebuild_time

    def trainer_recovery_time(self) -> float:
        return self.trainer_restore_time

    def spot_recovery_time(self) -> float:
        return self.spot_replacement_time


@dataclass
class FailureInjector:
    """Holds the failure schedule and tracks which events have fired."""

    events: List[FailureEvent] = field(default_factory=list)
    recovery: RecoveryModel = field(default_factory=RecoveryModel)
    _fired: List[FailureEvent] = field(default_factory=list, init=False)

    def add(self, event: FailureEvent) -> None:
        self.events.append(event)
        self.events.sort(key=lambda e: e.time)

    def due(self, now: float) -> List[FailureEvent]:
        """Pop every failure whose time has arrived."""
        fired = [e for e in self.events if e.time <= now]
        self.events = [e for e in self.events if e.time > now]
        self._fired.extend(fired)
        return fired

    @property
    def fired(self) -> List[FailureEvent]:
        return list(self._fired)

    def next_failure_time(self) -> Optional[float]:
        return self.events[0].time if self.events else None


@dataclass
class RecoveryRecord:
    """Outcome of handling one failure, for reporting (Fig 15)."""

    event: FailureEvent
    detected_at: float
    recovered_at: float
    trajectories_redirected: int = 0
    trajectories_lost: int = 0

    @property
    def downtime(self) -> float:
        return self.recovered_at - self.event.time
