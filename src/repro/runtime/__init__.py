"""Shared runtime layer: one workload, one engine, every orchestration.

``repro.runtime`` is the layer between the discrete-event engine
(:mod:`repro.sim.engine`) and the registered systems
(:mod:`repro.systems`).  It provides:

* :class:`WorkloadBundle` — identically-seeded construction of the shared
  workload objects (dataset, factory, environment, decode model, trainer,
  buffer) so every system replays the exact same workload;
* :class:`CompletionPipeline` and the weight-sync components
  (:class:`GlobalWeightSync`, :class:`RelayWeightSync`) — the per-completion
  and per-update plumbing shared across systems;
* the DES harness (:mod:`repro.runtime.harness`), which steps every replica
  from one engine process: :func:`generation_barrier` drains a whole batch
  of replicas behind one join for the batch-synchronous systems, and
  :class:`ReplicaFleet` members share one :class:`FleetStepper` process,
  scheduled off a :class:`FleetState` wake-up heap, for the continuous ones.
"""

from .components import CompletionPipeline, GlobalWeightSync, RelayWeightSync
from .harness import (
    EventBox,
    FleetState,
    FleetStepper,
    GenerationOutcome,
    ReplicaFleet,
    generation_barrier,
)
from .workload import WorkloadBundle

__all__ = [
    "CompletionPipeline",
    "EventBox",
    "FleetState",
    "FleetStepper",
    "GenerationOutcome",
    "GlobalWeightSync",
    "RelayWeightSync",
    "ReplicaFleet",
    "WorkloadBundle",
    "generation_barrier",
]
