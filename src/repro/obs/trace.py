"""Deterministic tracing primitives: the ``Tracer`` protocol and recorder.

The observability layer's contract is the repo's own determinism contract:
**tracing on is bit-identical to tracing off**.  Tracers therefore only
*observe* — they never consume RNG draws, schedule events or mutate any
simulation state — and every instrumentation site in the hot paths guards on
:attr:`Tracer.enabled` so the default :class:`NullTracer` costs one attribute
load per boundary, not per event.

Times are *simulated* seconds (the event-engine clock).  Spans are recorded
complete — the instrumentation sites all know the exact begin and end of the
phase they describe, so there is no begin/end pairing state to keep and no
ordering ambiguity at equal timestamps.

The active tracer is a module-global stack: :func:`current_tracer` returns
the top, :func:`use_tracer` pushes a recorder for the duration of a ``with``
block, and :class:`~repro.sim.engine.Environment` captures the active tracer
at construction so every process on that environment reports to the same
recorder without threading it through each call signature.

This module imports nothing from the rest of ``repro`` (the event engine
imports *it*, not the other way around).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    "CounterSample",
    "Instant",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceRecorder",
    "Tracer",
    "current_tracer",
    "use_tracer",
]


class NullTracer:
    """Zero-overhead default tracer: every hook is a no-op.

    Hot paths guard on :attr:`enabled`, so with the null tracer active the
    per-event cost of the observability layer is a single attribute load at
    phase boundaries and *nothing* inside the vectorized decode loop.
    """

    enabled: bool = False

    def set_group(self, label: str) -> None:
        """Select the group (Perfetto process) subsequent events belong to."""

    def span(self, track: str, name: str, begin: float, end: float,
             args: Optional[Dict[str, object]] = None) -> None:
        """Record one complete span ``[begin, end]`` on ``track``."""

    def instant(self, track: str, name: str, ts: float,
                args: Optional[Dict[str, object]] = None) -> None:
        """Record a point event at ``ts`` on ``track``."""

    def counter(self, track: str, name: str, ts: float, value: float) -> None:
        """Record one counter sample."""

    def counter_batch(self, track: str, name: str,
                      samples: Iterable[Tuple[float, float]]) -> None:
        """Record many ``(ts, value)`` counter samples at once (batched
        flush of the SoA decode loop's sample buffer)."""


#: Alias for type hints: anything satisfying the tracer protocol.
Tracer = NullTracer

#: The process-wide default tracer (shared, stateless, always disabled).
NULL_TRACER = NullTracer()


@dataclass(frozen=True)
class Span:
    """One complete simulated-time span on a track."""

    group: str
    track: str
    name: str
    begin: float
    end: float
    args: Optional[Dict[str, object]] = None

    @property
    def duration(self) -> float:
        return self.end - self.begin


@dataclass(frozen=True)
class Instant:
    """A point event (failure, recovery, staleness report)."""

    group: str
    track: str
    name: str
    ts: float
    args: Optional[Dict[str, object]] = None


@dataclass(frozen=True)
class CounterSample:
    """One sample of a monotone or gauge counter (tokens, KV utilisation)."""

    group: str
    track: str
    name: str
    ts: float
    value: float


class TraceRecorder(NullTracer):
    """In-memory tracer: collects spans, instants and counter samples.

    Events carry a *group* label (one group per benchmark unit / run) so a
    single recorder can hold the traces of many units; the exporter maps
    groups to Perfetto processes and tracks to threads.
    """

    enabled = True

    def __init__(self, group: str = "run") -> None:
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.counters: List[CounterSample] = []
        self._group = str(group)

    # -- recording ----------------------------------------------------------
    def set_group(self, label: str) -> None:
        self._group = str(label)

    def span(self, track: str, name: str, begin: float, end: float,
             args: Optional[Dict[str, object]] = None) -> None:
        if end < begin:
            raise ValueError(
                f"span {name!r} on {track!r} ends before it begins "
                f"({end} < {begin})"
            )
        self.spans.append(
            Span(self._group, track, name, float(begin), float(end),
                 dict(args) if args else None)
        )

    def instant(self, track: str, name: str, ts: float,
                args: Optional[Dict[str, object]] = None) -> None:
        self.instants.append(
            Instant(self._group, track, name, float(ts),
                    dict(args) if args else None)
        )

    def counter(self, track: str, name: str, ts: float, value: float) -> None:
        self.counters.append(
            CounterSample(self._group, track, name, float(ts), float(value))
        )

    def counter_batch(self, track: str, name: str,
                      samples: Iterable[Tuple[float, float]]) -> None:
        group = self._group
        self.counters.extend(
            CounterSample(group, track, name, float(ts), float(value))
            for ts, value in samples
        )

    # -- introspection ------------------------------------------------------
    def num_events(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    def groups(self) -> List[str]:
        """Group labels in first-appearance order."""
        seen: Dict[str, None] = {}
        for event in (*self.spans, *self.instants, *self.counters):
            seen.setdefault(event.group, None)
        return list(seen)

    def tracks(self, group: Optional[str] = None) -> List[Tuple[str, str]]:
        """``(group, track)`` pairs in first-appearance order."""
        seen: Dict[Tuple[str, str], None] = {}
        for event in (*self.spans, *self.instants, *self.counters):
            if group is None or event.group == group:
                seen.setdefault((event.group, event.track), None)
        return list(seen)

    def span_names(self, group: Optional[str] = None) -> List[str]:
        """Distinct span names (first-appearance order), optionally per group."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            if group is None or span.group == group:
                seen.setdefault(span.name, None)
        return list(seen)


# --------------------------------------------------------------------------- active tracer
_ACTIVE: List[NullTracer] = [NULL_TRACER]


def current_tracer() -> NullTracer:
    """The tracer new :class:`~repro.sim.engine.Environment` objects attach."""
    return _ACTIVE[-1]


@contextmanager
def use_tracer(tracer: NullTracer) -> Iterator[NullTracer]:
    """Scope ``tracer`` as the active tracer for the ``with`` block."""
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.pop()
