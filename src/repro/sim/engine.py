"""Discrete-event simulation engine.

This module implements a from-scratch, generator-based discrete-event
simulation (DES) core in the style of SimPy.  It is the substrate on which the
whole Laminar reproduction runs: the :mod:`repro.runtime` layer drives every
system on it — the fleet process that steps every rollout replica, the
trainer process, the failure/recovery processes and the rollout-manager
process in Laminar, and the generation-barrier processes of the baselines —
so simulated time jumps from event to event instead of being stepped through
in rounds.

The engine is deliberately small and deterministic:

* Events scheduled at the same simulated time fire in FIFO order of their
  scheduling (a monotonically increasing sequence number breaks ties), so a
  simulation run is fully reproducible.
* Processes are plain Python generators.  A process yields events (most
  commonly :class:`Timeout`) and is resumed when the yielded event fires.
* A process can be interrupted by another process via
  :meth:`Process.interrupt`, which raises :class:`Interrupt` inside the
  generator.  This is used by the repack mechanism to pull in-progress
  trajectories off a rollout replica.
"""

from __future__ import annotations

import heapq
import inspect
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..obs.trace import current_tracer


class SimulationError(RuntimeError):
    """Raised for illegal uses of the simulation engine."""


class StopSimulation(Exception):
    """Internal signal used to end :meth:`Environment.run`."""

    def __init__(self, value: Any = None) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Raised inside a process generator when the process is interrupted.

    The ``cause`` attribute carries an arbitrary payload supplied by the
    interrupting party (e.g. a repack directive).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event state markers.
PENDING = object()


class Event:
    """A single occurrence that processes may wait for.

    An event starts *untriggered*.  Calling :meth:`succeed` or :meth:`fail`
    triggers it; the environment then invokes its callbacks at the current
    simulation time.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event has not been triggered yet")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event carries (its result or exception)."""
        if self._value is PENDING:
            raise SimulationError("event has not been triggered yet")
        return self._value

    def defused(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ------------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, delay=delay)


class TimeoutUntil(Event):
    """An event that fires at an absolute simulated time.

    Unlike ``Timeout(target - env.now)``, the event lands on ``at`` exactly
    (no ``now + delay`` rounding), which is what lets anchored processes —
    ones whose wake-ups are derived from a local clock as ``origin + local``
    — keep their event times bit-identical to the local arithmetic.  ``at``
    may equal the current time (fires this instant, FIFO-ordered after
    already-scheduled same-time events) but must not lie in the past.
    """

    def __init__(self, env: "Environment", at: float, value: Any = None) -> None:
        if at < env.now:
            raise SimulationError(
                f"timeout_until({at!r}) lies in the past (now={env.now!r})"
            )
        super().__init__(env)
        self.at = at
        self._ok = True
        self._value = value
        env._schedule_at(self, at)


class ConditionError(SimulationError):
    """Raised when a sub-event of a condition fails."""


class _Condition(Event):
    """Base class for AllOf / AnyOf composite events.

    A sub-event counts as *done* only once its callbacks have run (``callbacks
    is None``); merely being scheduled (as a ``Timeout`` is at construction)
    does not count.
    """

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self.events = list(events)
        self._done = 0
        for event in self.events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            if event.callbacks is None:
                self._count(event)
            else:
                event.callbacks.append(self._observe)
        if not self.triggered and self._check_now():
            self.succeed(self._collect())

    def _count(self, event: Event) -> None:
        if not event._ok:
            event._defused = True
            self.fail(ConditionError(f"sub-event failed: {event._value!r}"))
            return
        self._done += 1

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        self._count(event)
        if not self.triggered and self._check_now():
            self.succeed(self._collect())

    def _collect(self) -> dict:
        return {e: e._value for e in self.events if e.callbacks is None and e._ok}

    def _check_now(self) -> bool:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when all sub-events have fired."""

    def _check_now(self) -> bool:
        return self._done >= len(self.events)


class AnyOf(_Condition):
    """Fires as soon as any sub-event has fired."""

    def _check_now(self) -> bool:
        return (not self.events) or self._done >= 1


class Initialize(Event):
    """Immediate event that starts a process."""

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self)


class Process(Event):
    """A running process wrapping a generator.

    The process itself is an event that fires when the generator terminates;
    its value is the generator's return value.  Other processes may therefore
    ``yield`` a process to wait for its completion.
    """

    def __init__(self, env: "Environment", generator: Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise SimulationError("Process requires a generator")
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Interrupt the process, raising :class:`Interrupt` inside it.

        The interruption is delivered as a high-priority event at the current
        simulation time.  At delivery the process is detached from whatever
        event it was waiting on, so that event firing later can no longer wake
        the process a second time — an interrupted process that keeps running
        (e.g. the fleet stepper recomputing a replica's next decode event after
        a repack pull) would otherwise receive a stale, spurious resume.
        """
        if not self.is_alive:
            raise SimulationError(f"{self.name} has terminated and cannot be interrupted")
        if self.env._active_process is self:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks.append(self._deliver_interrupt)
        self.env._schedule(interrupt_event, priority=0)

    def _deliver_interrupt(self, event: Event) -> None:
        """Detach from the awaited event, then resume with the interrupt."""
        if self._value is not PENDING:
            # The process terminated before the interrupt was delivered
            # (e.g. a second interrupt queued behind one that killed it).
            return
        if inspect.getgeneratorstate(self._generator) == inspect.GEN_CREATED:
            # The process has not started yet (its Initialize event is still
            # queued at this same timestamp).  A generator cannot receive a
            # throw() before its first resume, so redeliver the interrupt at
            # normal priority — behind Initialize — and it will land on the
            # process's first yield.
            retry = Event(self.env)
            retry._ok = False
            retry._value = event._value
            retry._defused = True
            retry.callbacks.append(self._deliver_interrupt)
            self.env._schedule(retry)
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
        self._resume(event)

    def _resume(self, event: Event) -> None:
        if self._value is not PENDING:
            # The process already terminated (e.g. it was interrupted while
            # waiting on an event that later fires anyway).  Ignore the wake-up.
            return
        self.env._active_process = self
        self._target = None
        while True:
            # Deliver the event's outcome into the generator.
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as exc:
                self._ok = True
                self._value = exc.value
                self.env._schedule(self)
                break
            except BaseException as exc:
                self._ok = False
                self._value = exc
                self.env._schedule(self)
                break

            if not isinstance(next_event, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                self._ok = False
                self._value = exc
                self.env._schedule(self)
                break

            if next_event.callbacks is not None:
                # Event not yet processed: wait for it.  ``_target`` keeps the
                # reference so an interrupt can detach the process from it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            # Event already processed; feed its value in immediately.
            event = next_event

        self.env._active_process = None


class Environment:
    """The simulation environment: clock, event queue and scheduler."""

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: List = []
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        #: Numeric ``until`` of the last :meth:`run` (``inf`` if it had
        #: none): :meth:`try_jump` never moves the clock past it.
        self._until = float("inf")
        # Observability: capture the active tracer at construction so every
        # process on this environment reports to the same recorder.  The
        # default NullTracer is shared and disabled; instrumentation sites
        # guard on ``env.tracer.enabled`` and only *observe* (the tracing
        # on/off bit-identity contract).
        self.tracer = current_tracer()

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timeout_until(self, at: float, value: Any = None) -> TimeoutUntil:
        return TimeoutUntil(self, at, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        heapq.heappush(self._queue, (self._now + delay, priority, next(self._eid), event))

    def _schedule_at(self, event: Event, at: float, priority: int = 1) -> None:
        """Schedule ``event`` at the absolute time ``at`` (no ``now +`` rounding)."""
        heapq.heappush(self._queue, (at, priority, next(self._eid), event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def try_jump(self, at: float) -> bool:
        """Move the clock to ``at`` without an event, if nothing can run first.

        The running process may skip its own ``timeout_until(at)`` when no
        event is queued at or before ``at`` and ``at`` is not past the
        numeric ``until`` of :meth:`run`: that timeout would have been the
        next event, so resuming now at ``at`` is what the engine would do.
        An event at exactly ``at`` fires first under the FIFO tie-break, so
        the caller must yield.  Returns whether the clock moved.
        """
        if at < self._now:
            raise SimulationError(f"try_jump({at!r}) lies in the past (now={self._now!r})")
        queue = self._queue
        if at > self._until or (queue and queue[0][0] <= at):
            return False
        self._now = at
        return True

    def step(self) -> None:
        """Process the next scheduled event."""
        if not self._queue:
            raise SimulationError("no scheduled events")
        when, _prio, _eid, event = heapq.heappop(self._queue)
        self._now = when
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event._value

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number (run
        until that simulated time) or an :class:`Event` (run until it fires,
        returning its value).
        """
        stop_at = None
        stop_event: Optional[Event] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                return stop_event.value
            stop_event.callbacks.append(self._stop_on_event)
        else:
            stop_at = float(until)
            if stop_at < self._now:
                raise SimulationError(
                    f"until={stop_at} lies in the past (now={self._now})"
                )

        self._until = float("inf") if stop_at is None else stop_at
        try:
            while self._queue:
                if stop_at is not None and self.peek() > stop_at:
                    self._now = stop_at
                    return None
                self.step()
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None and not stop_event.triggered:
            raise SimulationError("run() finished but the awaited event never fired")
        if stop_at is not None:
            self._now = stop_at
        return stop_event.value if stop_event is not None else None

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        if not event._ok:
            event._defused = True
            raise event._value
        raise StopSimulation(event._value)
