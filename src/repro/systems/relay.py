"""Relay workers: the distributed parameter service (§4).

The actor pushes each new weight version to a single *master relay* (a CPU
process on one rollout machine) and immediately resumes training; the master
reshards the weights to the rollout layout and broadcasts them to the relay
on every other rollout machine through a chain-pipelined RDMA broadcast
(Appendix D).  A rollout replica can pull the newest weights from its
colocated relay at any time over PCIe, without stalling the actor or any
other rollout.

:class:`RelayService` is the bookkeeping model used by the Laminar simulator:
it records when each weight version becomes available on each machine, the
actor's stall time per publication, and every rollout pull (for Fig 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..llm.model_spec import ModelSpec
from ..sim.network import (
    LinkSpec,
    PCIE_LINK,
    RDMA_SINGLE_NIC_LINK,
    RetryPolicy,
    chain_pipelined_broadcast_time,
)


#: Time for the master relay to reshard a published model to the rollout
#: tensor-parallel layout (CPU memcpy bound; §4.2).  Seconds per gigabyte.
RESHARD_SECONDS_PER_GB = 0.05
#: Fixed per-publication overhead on the actor side (launch, registration).
PUBLISH_OVERHEAD = 0.05


@dataclass
class WeightPublication:
    """One published weight version and its availability on each machine."""

    version: int
    publish_time: float
    actor_stall: float
    master_available_at: float
    broadcast_complete_at: float
    #: Per-machine availability time (master machine is earliest).
    available_at: Dict[int, float] = field(default_factory=dict)


@dataclass
class PullRecord:
    """One rollout's weight pull (for the Fig 14 waiting-time distribution)."""

    replica_id: int
    machine_id: int
    version: int
    request_time: float
    wait_time: float
    #: True if the version was already resident on the local relay.
    local_hit: bool


class RelayService:
    """Hierarchical relay workers with chain-pipelined broadcast."""

    def __init__(
        self,
        model: ModelSpec,
        rollout_machine_ids: List[int],
        rollout_tensor_parallel: int,
        inter_link: LinkSpec = RDMA_SINGLE_NIC_LINK,
        pcie_link: LinkSpec = PCIE_LINK,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if not rollout_machine_ids:
            raise ValueError("need at least one rollout machine")
        self.model = model
        self.machine_ids = list(rollout_machine_ids)
        self.rollout_tensor_parallel = max(1, rollout_tensor_parallel)
        self.inter_link = inter_link
        self.pcie_link = pcie_link
        self.retry_policy = retry_policy or RetryPolicy()
        self.master_machine = self.machine_ids[0]
        self.publications: Dict[int, WeightPublication] = {}
        self.pulls: List[PullRecord] = []
        self.failed_machines: set[int] = set()
        self.master_failovers = 0
        self.chain_rebuilds = 0
        # Degraded-network state (repro.faults): a bandwidth multiplier on
        # the inter-machine link plus per-machine flap windows.  Sync paths
        # ride out flaps with the bounded-backoff retry policy.
        self.bandwidth_factor = 1.0
        self._flap_until: Dict[int, float] = {}
        self.sync_retries = 0
        self.retry_backoff_total = 0.0
        # Version 0 (the initial checkpoint) is available everywhere at t=0.
        self.publications[0] = WeightPublication(
            version=0,
            publish_time=0.0,
            actor_stall=0.0,
            master_available_at=0.0,
            broadcast_complete_at=0.0,
            available_at={m: 0.0 for m in self.machine_ids},
        )

    # ------------------------------------------------------------------ degradation
    def effective_inter_link(self) -> LinkSpec:
        """Inter-machine link under the current bandwidth factor."""
        return self.inter_link.scaled(self.bandwidth_factor)

    def set_bandwidth_factor(self, factor: float) -> None:
        """Set the inter-machine bandwidth multiplier (1.0 = nominal)."""
        if factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        self.bandwidth_factor = factor

    def start_flap(self, machine_id: int, until: float) -> None:
        """Declare ``machine_id``'s link unreachable until ``until``."""
        if machine_id not in self.machine_ids:
            raise KeyError(f"machine {machine_id} is not a rollout machine")
        self._flap_until[machine_id] = max(self._flap_until.get(machine_id, 0.0), until)

    def flap_remaining(self, machine_id: int, time: float) -> float:
        """Seconds of link flap left on ``machine_id`` at ``time`` (0 if up)."""
        return max(0.0, self._flap_until.get(machine_id, 0.0) - time)

    def _ride_out_flap(self, machine_id: int, time: float) -> float:
        """Bounded-backoff wait to get a sync through a flapping link."""
        outage = self.flap_remaining(machine_id, time)
        if outage <= 0:
            return 0.0
        wait, retries = self.retry_policy.wait_through(outage)
        self.sync_retries += retries
        self.retry_backoff_total += wait
        return wait

    # ------------------------------------------------------------------ topology
    @property
    def num_machines(self) -> int:
        return len(self.healthy_machines())

    def healthy_machines(self) -> List[int]:
        return [m for m in self.machine_ids if m not in self.failed_machines]

    def fail_machine(self, machine_id: int) -> float:
        """Mark a machine failed; rebuild the broadcast chain (§4.3).

        Returns the repair latency, a constant-time operation (<1 s).
        """
        if machine_id not in self.machine_ids:
            raise KeyError(f"machine {machine_id} is not a rollout machine")
        self.failed_machines.add(machine_id)
        self.chain_rebuilds += 1
        repair = 0.5
        if machine_id == self.master_machine:
            healthy = self.healthy_machines()
            if not healthy:
                raise RuntimeError("all relay machines have failed")
            self.master_machine = healthy[0]
            self.master_failovers += 1
            repair += 0.5  # trainer is re-pointed at the new master relay
        return repair

    def recover_machine(self, machine_id: int, time: float) -> float:
        """Re-admit a machine: its relay syncs the newest weights from the master.

        Returns the time at which the machine's relay is caught up.
        """
        self.failed_machines.discard(machine_id)
        latest = self.latest_version()
        catch_up = self.effective_inter_link().transfer_time(self.model.weight_bytes)
        publication = self.publications[latest]
        publication.available_at[machine_id] = max(time, publication.master_available_at) + catch_up
        return max(time, publication.master_available_at) + catch_up

    # ------------------------------------------------------------------ publish
    def actor_push_time(self) -> float:
        """Actor stall: one RDMA transfer of the full weights to the master relay."""
        return self.effective_inter_link().transfer_time(self.model.weight_bytes) + PUBLISH_OVERHEAD

    def reshard_time(self) -> float:
        return RESHARD_SECONDS_PER_GB * self.model.weight_bytes / 1e9

    def broadcast_time(self) -> float:
        """Chain-pipelined broadcast from the master to all other relays."""
        return chain_pipelined_broadcast_time(
            self.model.weight_bytes, self.num_machines, link=self.effective_inter_link()
        )

    def publish(self, version: int, time: float) -> WeightPublication:
        """Record the actor publishing ``version`` at ``time``.

        The actor stalls only for the push to the master relay; resharding and
        the chain broadcast run in the background on CPUs (§3.2 steps 5-6).
        """
        if version in self.publications:
            raise ValueError(f"version {version} already published")
        if version != self.latest_version() + 1:
            raise ValueError("weight versions must be published in order")
        actor_stall = self.actor_push_time()
        master_ready = time + actor_stall + self.reshard_time()
        broadcast_done = master_ready + self.broadcast_time()
        available: Dict[int, float] = {}
        healthy = self.healthy_machines()
        for index, machine_id in enumerate(healthy):
            if machine_id == self.master_machine:
                arrival = master_ready
            else:
                # The chain delivers machines progressively; interpolate their
                # completion between master_ready and broadcast_done.
                fraction = (index + 1) / max(1, len(healthy))
                arrival = master_ready + fraction * (broadcast_done - master_ready)
                # A flapping link delays delivery: the chain segment retries
                # with bounded backoff until the flap window has passed.
                flap_end = self._flap_until.get(machine_id, 0.0)
                if arrival < flap_end:
                    arrival += self._ride_out_flap(machine_id, arrival)
            available[machine_id] = arrival
        publication = WeightPublication(
            version=version,
            publish_time=time,
            actor_stall=actor_stall,
            master_available_at=master_ready,
            broadcast_complete_at=broadcast_done,
            available_at=available,
        )
        self.publications[version] = publication
        return publication

    def latest_version(self) -> int:
        return max(self.publications)

    # ------------------------------------------------------------------ pull
    def available_version(self, machine_id: int, time: float) -> int:
        """Newest version whose weights are resident on ``machine_id`` at ``time``."""
        best = 0
        for version, publication in self.publications.items():
            available = publication.available_at.get(machine_id)
            if available is not None and available <= time and version > best:
                best = version
        return best

    def pull_latency(self, machine_id: int, time: float, replica_id: int = -1) -> PullRecord:
        """A rollout pulls the newest weights from its colocated relay.

        Best case (§8.3): the weights are already in the relay's CPU memory and
        the rollout only pays the PCIe load of its shard, with the TP group
        loading its shards in parallel.  If a newer version is mid-broadcast
        and strictly newer than what is resident, the rollout does NOT wait —
        it takes the resident version (rollouts never block on the broadcast).
        """
        resident = self.available_version(machine_id, time)
        shard_bytes = self.model.weight_bytes / self.rollout_tensor_parallel
        load = self.pcie_link.transfer_time(shard_bytes)
        record = PullRecord(
            replica_id=replica_id,
            machine_id=machine_id,
            version=resident,
            request_time=time,
            wait_time=load,
            local_hit=True,
        )
        self.pulls.append(record)
        return record

    # ------------------------------------------------------------------ statistics
    def mean_pull_wait(self) -> float:
        if not self.pulls:
            return 0.0
        return sum(p.wait_time for p in self.pulls) / len(self.pulls)

    def best_pull_wait(self) -> float:
        if not self.pulls:
            return 0.0
        return min(p.wait_time for p in self.pulls)

    def total_actor_stall(self) -> float:
        return sum(p.actor_stall for p in self.publications.values())
