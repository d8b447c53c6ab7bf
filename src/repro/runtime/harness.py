"""Event-driven harness: one engine process steps every rollout replica.

Two execution shapes cover every registered system (:mod:`repro.systems`):

* **Batch generation behind a barrier** (verl, one-step, stream generation,
  semi-sync): :func:`generation_barrier` drains a fresh set of replicas to
  completion and joins at the slowest one.  No external actor mutates a
  barrier replica mid-drain, so the whole drain is simulated eagerly at
  barrier start, and the engine sees one event: the join wake-up.  Every
  completion comes back as data, stamped with its local finish time.  With
  ``origin`` set the drain is *anchored*: the join lands at
  ``origin + local clock`` exactly — the mode the pipelined systems build
  their pure event-time iteration clocks on.

* **Continuous generation** (AReaL, Laminar): the members of a
  :class:`ReplicaFleet` are stepped by one :class:`FleetStepper` process that
  sleeps until the earliest member wake-up in a :class:`FleetState` heap (or
  moves the clock there itself when no other event is due first), refills
  idle replicas and reports completions through the fleet's hooks.
  External actors (trainer, repack, failures) ``touch`` the replicas they
  mutate (pull trajectories, inject a stall) and the stepper recomputes their
  next events — so simulated time jumps between real events instead of being
  stepped through lock-step rounds.

Bit-identity contract
---------------------
Each replica observes the same ``(next_event_in, advance)`` call sequence, at
the same simulated instants, as it would under one engine process per
replica; the harness organises *scheduling*, never replica arithmetic.  The
per-replica process shapes are kept as the test oracle (``tests/oracles.py``)
and ``tests/test_fleet_equivalence.py`` compares the two with ``==``.
Residual freedom exists only where the engine's FIFO tie-break ordered events
of *different* replicas at exactly equal float times.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from ..rollout.generation import ReplicaBatchView, ReplicaGenerationState
from ..sim.engine import Environment, Event, Interrupt, Process
from ..types import Trajectory

#: Numerical slack when comparing simulated times (mirrors the replica engine).
_EPS = 1e-9


def _flush_decode_samples(tracer, replica: ReplicaGenerationState,
                          offset: float = 0.0) -> None:
    """Batched flush of the replica's buffered decode samples to the tracer.

    The SoA decode loop only appends ``(clock, tokens)`` rows; turning them
    into cumulative-token counter events happens here, once per phase
    boundary, so tracing adds no per-decode-window tracer calls.
    """
    samples = replica.take_trace_samples(offset)
    if samples:
        tracer.counter_batch(f"replica-{replica.replica_id}", "tokens", samples)


@dataclass
class GenerationOutcome:
    """Result of generating one batch of trajectories on a set of replicas."""

    duration: float
    trajectories: List[Trajectory]
    #: Per-replica generation time (time until that replica finished its share).
    per_replica_time: List[float]
    tokens_generated: int

    @property
    def bubble_time(self) -> float:
        """Aggregate idle GPU-time caused by the long tail (relative units).

        Mean idle span per replica: the gap between a replica finishing its
        share and the slowest replica finishing (the bubbles of Fig 3a-c).
        """
        if not self.per_replica_time:
            return 0.0
        slowest = max(self.per_replica_time)
        return float(np.mean([slowest - t for t in self.per_replica_time]))


class EventBox:
    """One-slot broadcast event: processes sleep on :meth:`wait`, and
    :meth:`notify` wakes every current waiter at once.

    The box swaps in a fresh event *before* succeeding the old one, so a
    waiter re-yielding inside the same wake-up chain sleeps on the next
    occurrence instead of the already-fired event (the lost-wakeup idiom
    shared by the trainer wake-ups and the producer/consumer variants).
    With no waiter the notify is dropped: the event stays pending and the
    next waiter sleeps on it, as it would have on a fresh one, without an
    engine step for an event nobody observes.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._event: Event = env.event()

    def wait(self) -> Event:
        return self._event

    def notify(self) -> None:
        event = self._event
        if not event.callbacks:
            return
        self._event = self.env.event()
        event.succeed()


# -- batch-synchronous barrier -----------------------------------------------


def generation_barrier(
    env: Environment,
    replicas: Sequence[ReplicaGenerationState],
    origin: Optional[float] = None,
) -> Generator:
    """Sub-process: drain every replica to completion behind one join.

    This is the global barrier of the batch-synchronous systems: the batch is
    done only when the slowest replica finishes.  Trajectories are collected
    replica-major (replica 0's completions first, each replica's in
    completion order), matching the scoring order the reward RNG stream
    depends on.  Each carries its local ``finish_time``, so a consumer that
    needs completion instants (stream generation's mini-batch schedule)
    reads them off the outcome instead of waiting on events.

    Plain mode accumulates each replica's own ``t = t + delta`` float chain
    (the engine's ``now + delay`` arithmetic).  With ``origin`` set the drain
    is anchored: the replica's local clock is authoritative, so the join time
    ``max_r fl(origin + clock_r)`` equals the local stage arithmetic bit for
    bit.

    Barrier drains are mutually independent by construction (replicas
    interact only at the join), so the whole fleet is drained in lockstep
    rounds through one :class:`~repro.rollout.generation.ReplicaBatchView`,
    while each lane's float chain (``t = t + delta`` / ``fl(origin +
    clock)``) stays per-lane and bit-identical.  A wide barrier (at least
    ``_FUSE_MIN_LANES`` eligible lanes) is drained *together*: each round
    asks every still-live lane for its next event with one stacked reduction
    and advances all of them with one grouped kernel sweep.  A narrower
    barrier routes every lane to its own engine's ``next_event_in`` and
    ``advance``, which is cheaper than a fused round at that width.  Lanes
    with waiting queues, active slowdowns, trace sampling (armed here when
    tracing is on) or KV pools the drain could overflow always step one
    replica at a time.  The engine schedules a single ``timeout_until`` at
    the join time ``max_r(final_r)``.

    A replica left holding only queued sequences whose head can never fit
    its KV pool raises (:meth:`ReplicaGenerationState.stuck_error`) instead
    of joining without them.
    """
    tracer = env.tracer
    barrier_start = env.now
    if tracer.enabled:
        for replica in replicas:
            replica.enable_trace_sampling()

    starts = [replica.clock for replica in replicas]
    t_chain = [barrier_start] * len(replicas)  # plain mode only
    view = ReplicaBatchView(replicas)
    active = [pos for pos in range(len(replicas)) if view.lane_live(pos)]
    while active:
        deltas = view.next_event_in_many(active)
        round_pos: List[int] = []
        dts: List[float] = []
        for pos, delta in zip(active, deltas):
            if delta is None:
                # Only inadmissible queued sequences are left: the drain
                # would drop them from the outcome.
                raise replicas[pos].stuck_error()
            round_pos.append(pos)
            dts.append(delta)
        view.advance_many(round_pos, dts)
        if origin is None:
            for pos, dt in zip(round_pos, dts):
                t_chain[pos] = t_chain[pos] + dt
        active = [pos for pos in round_pos if view.lane_live(pos)]
    # ``settle`` hands the fused lanes' completions back to their engines;
    # fallback lanes kept theirs in ``advance``.  Barrier replicas start with
    # nothing completed, so each ``drain_completed`` below is exactly that
    # replica's completions in completion order.
    view.settle()

    per_replica_time: List[float] = []
    trajectories: List[Trajectory] = []
    finals: List[float] = []
    counts: List[int] = []
    tokens = 0
    for pos, replica in enumerate(replicas):
        completed = replica.drain_completed()
        per_replica_time.append(replica.clock - starts[pos])
        trajectories.extend(completed)
        counts.append(len(completed))
        tokens += replica.stats.tokens_generated
        finals.append(t_chain[pos] if origin is None else origin + replica.clock)

    if tracer.enabled:
        for pos, replica in enumerate(replicas):
            if origin is None:
                span_begin, flush_offset = barrier_start, barrier_start - starts[pos]
            else:
                span_begin, flush_offset = origin + starts[pos], origin
            tracer.span(f"replica-{replica.replica_id}", "generate",
                        span_begin, finals[pos],
                        args={"trajectories": counts[pos],
                              "tokens": replica.stats.tokens_generated})
            _flush_decode_samples(tracer, replica, offset=flush_offset)

    if replicas:
        yield env.timeout_until(max(finals))
    return GenerationOutcome(
        duration=max(per_replica_time) if per_replica_time else 0.0,
        trajectories=trajectories,
        per_replica_time=per_replica_time,
        tokens_generated=tokens,
    )


# -- continuous fleet --------------------------------------------------------


class ReplicaFleet:
    """Book-keeping and wake-up plumbing for a fleet of continuous replicas.

    Subclasses provide the policy hooks:

    * :meth:`replica` — resolve a replica id (``None`` retires the replica,
      e.g. after a machine failure);
    * :meth:`refill` — give an idle replica new work (may inject a weight-pull
      stall first);
    * :meth:`on_advance` — consume an advance step's completions (score,
      buffer, record tokens).
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._data_box = EventBox(env)
        self._stepper: Optional[FleetStepper] = None

    # -- stepping lifecycle -------------------------------------------------
    def spawn(self, replica_id: int) -> Process:
        """Start stepping ``replica_id``; every member shares one
        :class:`FleetStepper` process, which is returned."""
        if self._stepper is None:
            self._stepper = FleetStepper(self.env, self)
        return self._stepper.spawn(replica_id)

    def touch(self, replica_ids: Optional[Sequence[int]] = None) -> None:
        """Make the stepper recompute the next event of ``replica_ids``.

        Called whenever an external actor mutated replica state between
        wake-ups: a repack moved trajectories, a stall was injected, a weight
        update arrived.  ``None`` touches every live member.
        """
        stepper = self._stepper
        if stepper is None:
            return
        stepper.touch(stepper.live_ids() if replica_ids is None else list(replica_ids))

    # -- wake-up signals ----------------------------------------------------
    def data_event(self) -> Event:
        """Event a trainer sleeps on while waiting for buffered experiences."""
        return self._data_box.wait()

    def notify_refill(self) -> None:
        """Wake every member parked for lack of work (budget freed)."""
        if self._stepper is not None:
            self._stepper.notify_refill()

    def notify_data(self) -> None:
        """Wake the trainer: the experience buffer can satisfy a batch."""
        self._data_box.notify()

    # -- policy hooks (subclass responsibility) ------------------------------
    def replica(self, replica_id: int) -> Optional[ReplicaGenerationState]:
        raise NotImplementedError

    def refill(self, replica: ReplicaGenerationState) -> None:
        raise NotImplementedError

    def on_advance(self, replica: ReplicaGenerationState, completed: List[Trajectory]) -> None:
        raise NotImplementedError

    # -- helpers -------------------------------------------------------------
    def catch_up(self, replica: ReplicaGenerationState) -> None:
        """Advance ``replica`` to the current simulation time.

        External actors call this before inspecting or mutating a replica
        that is mid-sleep, so snapshots (KVCache utilisation, request counts,
        streamed tokens) are exact at the current instant.
        """
        behind = self.env.now - replica.clock
        if behind > _EPS:
            self.on_advance(replica, replica.advance(behind))
            if self.env.tracer.enabled:
                _flush_decode_samples(self.env.tracer, replica)


class FleetState:
    """Lazy-invalidation heap of member wake-ups, keyed by replica id.

    Heap entries are ``(wake, stamp, replica_id)``; the stamp is unique and
    increasing, mirroring the engine's event-id FIFO tie-break, so entries pop
    in exactly the (time, FIFO) order one timeout event per replica would
    have fired in.  Re-arming or disarming a member leaves its old entry in
    the heap; an entry is live only while its stamp is the member's current
    one.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int]] = []
        self._stamp: Dict[int, int] = {}
        self._counter = itertools.count()

    def schedule(self, replica_id: int, at: float) -> None:
        """Arm (or re-arm) a member's wake-up at absolute time ``at``."""
        stamp = next(self._counter)
        self._stamp[replica_id] = stamp
        heapq.heappush(self._heap, (at, stamp, replica_id))

    def clear(self, replica_id: int) -> None:
        """Disarm a member's wake-up (its heap entry dies lazily)."""
        self._stamp.pop(replica_id, None)

    def _peek(self) -> Optional[Tuple[float, int, int]]:
        heap = self._heap
        while heap:
            entry = heap[0]
            if self._stamp.get(entry[2]) == entry[1]:
                return entry
            heapq.heappop(heap)  # superseded or disarmed entry
        return None

    def next_wake(self) -> Optional[float]:
        """Absolute time of the fleet's earliest armed wake-up (None if none).

        Returns the exact float stored by :meth:`schedule` — the stepper
        sleeps on this value directly so wake-ups land bit-identically to the
        engine's own ``now + delay`` timeout arithmetic.
        """
        entry = self._peek()
        return None if entry is None else entry[0]

    def pop_due(self, now: float) -> Optional[int]:
        """Pop and disarm the earliest member due at or before ``now``.

        Members come out in ``(wake time, stamp)`` order — the exact sequence
        the engine heap would have resumed one process per member in.
        """
        entry = self._peek()
        if entry is None or entry[0] > now:
            return None
        heapq.heappop(self._heap)
        replica_id = entry[2]
        del self._stamp[replica_id]
        return replica_id


#: FleetStepper per-replica states.
_RUNNING = 0       #: armed timer in FleetState (or about to be serviced)
_WAIT_REFILL = 1   #: parked until notify_refill / touch
_RETIRED = 2       #: replica resolved to None (machine failure)


class FleetStepper:
    """The one engine process that steps every member of a :class:`ReplicaFleet`.

    It sleeps until the earliest member wake-up in its :class:`FleetState`
    and services due members one at a time, each with one pass of the driver
    loop: consume elapsed time (``advance`` + ``on_advance``), refill when
    idle, park when there is no work, and re-arm ``wake = now + (ahead +
    delta)`` with the same float arithmetic the engine's relative timeouts
    use.  When no other event is queued at or before the next wake-up,
    nothing else can run first, so the stepper moves the clock there itself
    (:meth:`~repro.sim.engine.Environment.try_jump`) instead of sleeping on
    an event; a tie still sleeps, so FIFO order holds.  ``touch`` delivers
    one prio-0 interrupt for the whole fleet and services the touched members
    in call order (the order per-member interrupts would have fired);
    ``notify_refill`` wakes parked members in wait order.  Between two
    members the immediate-service queue is drained, which is the
    interleaving one process per member would have produced.
    """

    def __init__(self, env: Environment, fleet: ReplicaFleet) -> None:
        self.env = env
        self.fleet = fleet
        self.state = FleetState()
        #: Per-member state, in spawn order (the touch-broadcast order).
        self._rstate: Dict[int, int] = {}
        #: Immediate-service FIFO: spawns, touches and refill wake-ups in
        #: call order (serviced before due timers, as prio-0 interrupts were).
        self._service_queue: List[int] = []
        self._wait_refill: List[int] = []
        self._servicing: Optional[int] = None
        self._process: Optional[Process] = None
        self._poked = False

    # -- membership ---------------------------------------------------------
    def spawn(self, replica_id: int) -> Process:
        self._rstate[replica_id] = _RUNNING
        self._service_queue.append(replica_id)
        if self._process is None or not self._process.is_alive:
            self._process = self.env.process(self._run(), name="fleet-stepper")
        else:
            self._poke()
        return self._process

    def live_ids(self) -> List[int]:
        """Unretired members in spawn order (the touch-broadcast order)."""
        return [rid for rid, st in self._rstate.items() if st != _RETIRED]

    # -- external signals ---------------------------------------------------
    def touch(self, replica_ids: Sequence[int]) -> None:
        queued = False
        for replica_id in replica_ids:
            if self._rstate.get(replica_id, _RETIRED) == _RETIRED:
                continue
            if replica_id == self._servicing:
                continue  # a member never interrupts itself
            if self._rstate[replica_id] == _WAIT_REFILL:
                self._wait_refill.remove(replica_id)
                self._rstate[replica_id] = _RUNNING
            self._service_queue.append(replica_id)
            queued = True
        if queued:
            self._poke()

    def notify_refill(self) -> None:
        if not self._wait_refill:
            return
        waiters, self._wait_refill = self._wait_refill, []
        for replica_id in waiters:
            self._rstate[replica_id] = _RUNNING
        self._service_queue.extend(waiters)
        self._poke()

    def _poke(self) -> None:
        """Wake the sleeping stepper once (idempotent within one wake)."""
        process = self._process
        if (
            not self._poked
            and process is not None
            and process.is_alive
            and process is not self.env.active_process
        ):
            self._poked = True
            process.interrupt()

    # -- the fleet process ---------------------------------------------------
    def _run(self) -> Generator:
        env = self.env
        state = self.state
        while True:
            self._poked = False
            while self._service_queue:
                self._service(self._service_queue.pop(0))
            replica_id = state.pop_due(env.now)
            if replica_id is not None:
                self._service(replica_id)
                continue
            wake = state.next_wake()
            if wake is None:
                # No armed timers: park until an external poke.
                try:
                    yield env.event()
                except Interrupt:
                    continue
            elif env.try_jump(wake):
                continue  # nothing else is due first: no event needed
            else:
                try:
                    yield env.timeout_until(wake)
                except Interrupt:
                    continue

    def _service(self, replica_id: int) -> None:
        """Run one driver-loop pass for ``replica_id`` until it sleeps."""
        env = self.env
        fleet = self.fleet
        tracer = env.tracer

        if self._rstate.get(replica_id, _RETIRED) == _RETIRED:
            return
        self._servicing = replica_id
        try:
            while True:
                replica = fleet.replica(replica_id)
                if replica is None:
                    self._retire(replica_id)
                    return
                if tracer.enabled:
                    replica.enable_trace_sampling()
                behind = env.now - replica.clock
                if behind > _EPS:
                    fleet.on_advance(replica, replica.advance(behind))
                    if tracer.enabled:
                        _flush_decode_samples(tracer, replica)
                    continue
                if replica.is_idle:
                    fleet.refill(replica)
                    if replica.is_idle:
                        self._park(replica_id)
                        return
                ahead = max(0.0, replica.clock - env.now)
                delta = replica.next_event_in()
                if delta is None:
                    if ahead <= _EPS:
                        # Sequences exist but none can run: wait for help.
                        self._park(replica_id)
                        return
                    wait = ahead  # stalled: let the stall elapse
                else:
                    wait = ahead + delta
                self._rstate[replica_id] = _RUNNING
                self.state.schedule(replica_id, env.now + wait)
                return
        finally:
            self._servicing = None

    def _park(self, replica_id: int) -> None:
        self._rstate[replica_id] = _WAIT_REFILL
        self._wait_refill.append(replica_id)
        self.state.clear(replica_id)

    def _retire(self, replica_id: int) -> None:
        self._rstate[replica_id] = _RETIRED
        self.state.clear(replica_id)
        if replica_id in self._wait_refill:
            self._wait_refill.remove(replica_id)
