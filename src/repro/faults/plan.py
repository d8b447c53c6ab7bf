"""Generative, seeded fault schedules (adversarial infrastructure).

The Fig 15 experiment injects one rollout-machine failure, which a single
:class:`~repro.systems.fault_tolerance.FailureEvent` expresses.
:class:`FailurePlan` adds the fleet-level dynamics a production datacenter
actually exhibits:

* **correlated failure waves** — a rack/zone power or switch event takes a
  group of machines down simultaneously;
* **spot-preemption waves** — the provider reclaims a set of spot machines
  with a warning lead time, so the system can drain them gracefully;
* **stragglers** — persistent or transient slowdown multipliers on decode
  step time and environment latency for chosen machines;
* **degraded networks** — inter-machine bandwidth dips and per-machine link
  flaps that weight-sync paths ride out with bounded-backoff retries.

Every builder derives its schedule deterministically from an integer seed
(``numpy.random.default_rng``), so a benchmark unit's seed fully determines
its chaos — the bit-identity contract extends to adversarial runs.  Plans
compose with :meth:`FailurePlan.merge` and lower into the existing
:class:`~repro.systems.fault_tolerance.FailureInjector`, which the Laminar
runtime already polls in pure event time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..systems.fault_tolerance import (
    FailureEvent,
    FailureInjector,
    FailureKind,
    RecoveryModel,
)

#: Rollout machines per rack in the simulated topology (8-GPU machines,
#: four to a rack — the zone granularity correlated waves operate on).
DEFAULT_RACK_SIZE = 4


def rack_machines(rack: int, rack_size: int = DEFAULT_RACK_SIZE) -> List[int]:
    """Ids of the machines in ``rack`` under the fixed rack layout."""
    if rack < 0:
        raise ValueError("rack must be non-negative")
    if rack_size <= 0:
        raise ValueError("rack_size must be positive")
    return list(range(rack * rack_size, (rack + 1) * rack_size))


@dataclass
class FailurePlan:
    """A composable, deterministic schedule of failure/degradation events."""

    events: List[FailureEvent] = field(default_factory=list)
    recovery: RecoveryModel = field(default_factory=RecoveryModel)

    # ------------------------------------------------------------------ composition
    def add(self, event: FailureEvent) -> "FailurePlan":
        self.events.append(event)
        return self

    def merge(self, *others: "FailurePlan") -> "FailurePlan":
        """Fold other plans' events into this one (recovery model kept)."""
        for other in others:
            self.events.extend(other.events)
        return self

    def sorted_events(self) -> List[FailureEvent]:
        """Events in firing order (ties broken by kind then target, so the
        order is total and independent of how replicas are stepped)."""
        return sorted(self.events, key=lambda e: (e.time, e.kind, e.target))

    def build_injector(self, recovery: Optional[RecoveryModel] = None) -> FailureInjector:
        return FailureInjector(
            events=self.sorted_events(), recovery=recovery or self.recovery
        )

    @property
    def horizon(self) -> float:
        return max((e.time for e in self.events), default=0.0)

    # ------------------------------------------------------------------ builders
    @classmethod
    def correlated_wave(
        cls,
        time: float,
        machines: Sequence[int],
        reinit_succeeds: bool = False,
    ) -> "FailurePlan":
        """Rack/zone-scoped wave: every machine in the group fails at once."""
        plan = cls()
        for machine in machines:
            plan.add(FailureEvent(time=time, kind=FailureKind.ROLLOUT_MACHINE,
                                  target=machine, reinit_succeeds=reinit_succeeds))
        return plan

    @classmethod
    def rack_wave(
        cls,
        time: float,
        rack: int,
        rack_size: int = DEFAULT_RACK_SIZE,
        reinit_succeeds: bool = False,
    ) -> "FailurePlan":
        """A correlated wave scoped to one rack of the fixed topology."""
        return cls.correlated_wave(time, rack_machines(rack, rack_size),
                                   reinit_succeeds=reinit_succeeds)

    @classmethod
    def preemption_wave(
        cls,
        time: float,
        machines: Sequence[int],
        warning_lead: float = 120.0,
    ) -> "FailurePlan":
        """Spot-preemption wave with a warning lead time.

        Each machine receives a :data:`~FailureKind.SPOT_WARNING` at ``time``
        (the system drains it gracefully — zero trajectory loss) and the
        :data:`~FailureKind.SPOT_PREEMPTION` reclaim ``warning_lead`` seconds
        later.
        """
        if warning_lead < 0:
            raise ValueError("warning_lead must be non-negative")
        plan = cls()
        for machine in machines:
            plan.add(FailureEvent(time=time, kind=FailureKind.SPOT_WARNING,
                                  target=machine, duration=warning_lead))
            plan.add(FailureEvent(time=time + warning_lead,
                                  kind=FailureKind.SPOT_PREEMPTION, target=machine))
        return plan

    @classmethod
    def stragglers(
        cls,
        seed: int,
        num_machines: int,
        window: Tuple[float, float],
        count: int = 1,
        factor_range: Tuple[float, float] = (1.5, 4.0),
        duration_range: Tuple[float, float] = (20.0, 60.0),
        persistent: bool = False,
    ) -> "FailurePlan":
        """Seeded straggler schedule over ``count`` distinct machines.

        Transient stragglers (the default) emit a paired
        :data:`~FailureKind.STRAGGLER_CLEAR` when their window ends;
        persistent ones degrade for the rest of the run.
        """
        if num_machines <= 0:
            raise ValueError("num_machines must be positive")
        if not 0 < count <= num_machines:
            raise ValueError("count must be in [1, num_machines]")
        start, end = window
        if end <= start:
            raise ValueError("window must have positive length")
        rng = np.random.default_rng(seed)
        machines = rng.choice(num_machines, size=count, replace=False)
        plan = cls()
        for machine in sorted(int(m) for m in machines):
            t = float(rng.uniform(start, end))
            factor = float(rng.uniform(*factor_range))
            if persistent:
                plan.add(FailureEvent(time=t, kind=FailureKind.STRAGGLER,
                                      target=machine, factor=factor))
                continue
            duration = float(rng.uniform(*duration_range))
            plan.add(FailureEvent(time=t, kind=FailureKind.STRAGGLER,
                                  target=machine, factor=factor, duration=duration))
            plan.add(FailureEvent(time=t + duration, kind=FailureKind.STRAGGLER_CLEAR,
                                  target=machine))
        return plan

    @classmethod
    def network_degradation(
        cls,
        seed: int,
        window: Tuple[float, float],
        dips: int = 1,
        dip_factor_range: Tuple[float, float] = (0.2, 0.6),
        dip_duration_range: Tuple[float, float] = (30.0, 90.0),
        flap_machines: Sequence[int] = (),
        flap_duration_range: Tuple[float, float] = (5.0, 15.0),
    ) -> "FailurePlan":
        """Seeded bandwidth dips (global) and link flaps (per machine)."""
        start, end = window
        if end <= start:
            raise ValueError("window must have positive length")
        rng = np.random.default_rng(seed)
        plan = cls()
        for _ in range(dips):
            t = float(rng.uniform(start, end))
            factor = float(rng.uniform(*dip_factor_range))
            duration = float(rng.uniform(*dip_duration_range))
            plan.add(FailureEvent(time=t, kind=FailureKind.NETWORK_DEGRADED,
                                  target=-1, factor=factor, duration=duration))
            plan.add(FailureEvent(time=t + duration,
                                  kind=FailureKind.NETWORK_RESTORED, target=-1))
        for machine in flap_machines:
            t = float(rng.uniform(start, end))
            duration = float(rng.uniform(*flap_duration_range))
            plan.add(FailureEvent(time=t, kind=FailureKind.LINK_FLAP,
                                  target=machine, duration=duration))
        return plan

    @classmethod
    def chaos(
        cls,
        seed: int,
        num_machines: int,
        horizon: float,
        rack_size: int = DEFAULT_RACK_SIZE,
    ) -> "FailurePlan":
        """The kitchen sink: one seeded composition of every adversity.

        Schedules, in rng order: a correlated rack wave, a spot-preemption
        wave with warning lead, a transient straggler, and a network window
        (one bandwidth dip plus one link flap).  All times land inside
        ``[0.1, 0.8] * horizon`` so recoveries overlap live work rather than
        trailing off the end of the run.
        """
        if num_machines < 2:
            raise ValueError("chaos needs at least two machines")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = np.random.default_rng(seed)
        lo, hi = 0.1 * horizon, 0.8 * horizon
        plan = cls()

        num_racks = max(1, num_machines // rack_size)
        rack = int(rng.integers(num_racks))
        machines = [m for m in rack_machines(rack, rack_size) if m < num_machines]
        # Never take the whole fleet down at once: cap the wave at half.
        machines = machines[: max(1, num_machines // 2)]
        plan.merge(cls.correlated_wave(float(rng.uniform(lo, hi)), machines))

        victim = int(rng.integers(num_machines))
        lead = float(rng.uniform(0.05, 0.15)) * horizon
        plan.merge(cls.preemption_wave(float(rng.uniform(lo, hi)), [victim],
                                       warning_lead=lead))

        plan.merge(cls.stragglers(
            int(rng.integers(2 ** 31)), num_machines, (lo, hi),
            duration_range=(0.1 * horizon, 0.3 * horizon)))

        flap_machine = int(rng.integers(num_machines))
        plan.merge(cls.network_degradation(
            int(rng.integers(2 ** 31)), (lo, hi),
            dip_duration_range=(0.1 * horizon, 0.2 * horizon),
            flap_machines=[flap_machine],
            flap_duration_range=(0.02 * horizon, 0.08 * horizon)))
        return plan
