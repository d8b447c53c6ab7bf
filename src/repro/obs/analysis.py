"""Trace analytics: critical-path attribution over recorded span timelines.

PR 6 made the simulator's phase structure *recordable* (spans, instants,
counters); this module makes it *interpretable*.  Given a
:class:`~repro.obs.trace.TraceRecorder` — or a Chrome-trace JSON file written
by :func:`~repro.obs.export.write_chrome_trace`, reloaded via
:func:`load_chrome_trace` — it computes, per recorder group:

* **Per-iteration critical paths** — each ``iteration`` span is swept as a
  window and every elementary time segment inside it is attributed to the
  highest-priority *phase family* active there (``training`` >
  ``weight_sync`` > ``repack`` > ``recovery`` > ``generation``; uncovered
  time is ``other``).  The priority order encodes the systems' dependency
  structure: when the trainer computes or syncs weights, that work bounds the
  iteration regardless of concurrent generation; only time where nothing on
  the trainer-side path runs is generation-bound (the Fig. 10 "GPU bubble").
  Shares sum to exactly 1.0 per window, so they aggregate into an exhaustive
  end-to-end attribution.
* **Per-track busy/idle/overlap tables** — the union of each track's span
  intervals against the group window, plus how much of that busy time
  overlaps other tracks (pipelining visible as data, not just pixels).
* **Top-k span-family attribution** — total and union ("busy") time per span
  name, ranked.
* **Derived metrics** (:func:`derived_metrics`) — the curated scalar subset
  (``gen_bubble_frac``, ``sync_frac``, ``critical_path_*_share``) that the
  bench layer attaches to traced :class:`~repro.bench.runner.UnitResult`
  extras so ``compare`` can gate them.

Everything here *reads* recorded data — analysis can never perturb a run, so
the bit-identity contract (tracing on == tracing off) extends to analytics
for free.  Like the rest of ``repro.obs``, this module imports nothing from
the rest of ``repro``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .export import chrome_trace  # noqa: F401  (re-export convenience for tests)
from .trace import TraceRecorder

__all__ = [
    "DERIVED_METRIC_KEYS",
    "PHASE_PRIORITY",
    "SPAN_FAMILIES",
    "FamilyUsage",
    "GroupAnalysis",
    "IterationPath",
    "TraceAnalysis",
    "TrackUsage",
    "analyze_group",
    "analyze_recorder",
    "derived_metrics",
    "diff_analyses",
    "load_chrome_trace",
    "render_analysis",
    "render_diff",
]

#: Simulated seconds -> trace microseconds (mirror of ``export._TIME_SCALE``).
_TIME_SCALE = 1e6

#: Critical-path phases, highest priority first.  A segment covered by
#: several phases is attributed to the earliest entry: trainer-side work
#: (training, weight sync) bounds the iteration whenever it runs; repack and
#: recovery are manager-side serialization; generation only bounds the
#: iteration when nothing upstream of it is active.
PHASE_PRIORITY: Tuple[str, ...] = (
    "training", "weight_sync", "repack", "recovery", "generation",
)

#: Label for window time no phase family covers.
OTHER_PHASE = "other"

#: Span name -> phase family.  ``iteration`` spans are windows, not phases,
#: and deliberately absent.  Names outside this table (system-specific
#: details) fall through to ``other``.
SPAN_FAMILIES: Dict[str, str] = {
    "training": "training",
    "weight_sync": "weight_sync",
    "weight_pull": "weight_sync",
    "repack": "repack",
    "recovery": "recovery",
    "generation": "generation",
    "generate": "generation",
}

#: Phase -> derived-metric key for its critical-path share.
_SHARE_KEYS: Dict[str, str] = {
    "generation": "critical_path_gen_share",
    "training": "critical_path_train_share",
    "weight_sync": "critical_path_sync_share",
    "repack": "critical_path_repack_share",
    "recovery": "critical_path_recovery_share",
    OTHER_PHASE: "critical_path_other_share",
}

#: Every metric key :func:`derived_metrics` may emit — the contract the
#: ROADMAP records and ``compare --derived-metric`` gates against.
DERIVED_METRIC_KEYS: Tuple[str, ...] = (
    "gen_bubble_frac",
    "sync_frac",
    "critical_path_gen_share",
    "critical_path_train_share",
    "critical_path_sync_share",
    "critical_path_repack_share",
    "critical_path_recovery_share",
    "critical_path_other_share",
)


# --------------------------------------------------------------------------- intervals
Interval = Tuple[float, float]


def _merge(intervals: Sequence[Interval]) -> List[Interval]:
    """Sorted union of possibly-overlapping intervals (zero-length dropped)."""
    merged: List[Interval] = []
    for begin, end in sorted(intervals):
        if end <= begin:
            continue
        if merged and begin <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((begin, end))
    return merged


def _total(merged: Sequence[Interval]) -> float:
    return sum(end - begin for begin, end in merged)


def _clip(merged: Sequence[Interval], lo: float, hi: float) -> List[Interval]:
    """Intersect a merged union with the window ``[lo, hi]``."""
    out: List[Interval] = []
    for begin, end in merged:
        if end <= lo:
            continue
        if begin >= hi:
            break
        out.append((max(begin, lo), min(end, hi)))
    return out


def _intersect(a: Sequence[Interval], b: Sequence[Interval]) -> List[Interval]:
    """Intersection of two merged unions (two-pointer sweep)."""
    out: List[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            out.append((lo, hi))
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return out


def _covered_regions(unions: Sequence[Sequence[Interval]],
                     at_least: int) -> List[Interval]:
    """Regions where at least ``at_least`` of the given unions are active."""
    boundaries: List[Tuple[float, int]] = []
    for union in unions:
        for begin, end in union:
            boundaries.append((begin, 1))
            boundaries.append((end, -1))
    boundaries.sort()
    out: List[Interval] = []
    depth = 0
    start: Optional[float] = None
    for ts, delta in boundaries:
        before = depth
        depth += delta
        if before < at_least <= depth:
            start = ts
        elif before >= at_least > depth and start is not None:
            if ts > start:
                out.append((start, ts))
            start = None
    return _merge(out)


# --------------------------------------------------------------------------- results
@dataclass
class IterationPath:
    """Critical-path attribution of one iteration window."""

    index: int
    begin: float
    end: float
    #: Attributed seconds per phase (``other`` included); sums to duration.
    seconds: Dict[str, float] = field(default_factory=dict)
    #: ``seconds`` normalized by the window duration; sums to 1.0.
    shares: Dict[str, float] = field(default_factory=dict)
    #: The phase with the largest attributed share (what bounds this window).
    bound: str = OTHER_PHASE

    @property
    def duration(self) -> float:
        return self.end - self.begin

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "begin_s": self.begin,
            "end_s": self.end,
            "duration_s": self.duration,
            "seconds": dict(sorted(self.seconds.items())),
            "shares": dict(sorted(self.shares.items())),
            "bound": self.bound,
        }


@dataclass
class TrackUsage:
    """Busy/idle/overlap accounting for one track within its group window."""

    track: str
    spans: int
    busy_s: float
    idle_s: float
    #: Portion of ``busy_s`` during which at least one *other* track in the
    #: group was also busy — the visible pipelining/overlap.
    overlap_s: float
    utilization: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "track": self.track,
            "spans": self.spans,
            "busy_s": self.busy_s,
            "idle_s": self.idle_s,
            "overlap_s": self.overlap_s,
            "utilization": self.utilization,
        }


@dataclass
class FamilyUsage:
    """Aggregate time attribution for one span name across the group."""

    name: str
    count: int
    #: Sum of span durations (double-counts overlapping replicas).
    total_s: float
    #: Union of span intervals (wall coverage).
    busy_s: float
    #: ``busy_s`` over the group window duration.
    window_share: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "total_s": self.total_s,
            "busy_s": self.busy_s,
            "window_share": self.window_share,
        }


@dataclass
class GroupAnalysis:
    """Full analysis of one recorder group (one benchmark unit / run)."""

    group: str
    begin: float
    end: float
    tracks: List[TrackUsage] = field(default_factory=list)
    families: List[FamilyUsage] = field(default_factory=list)
    iterations: List[IterationPath] = field(default_factory=list)
    #: Attributed seconds per phase summed over all iteration windows.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: ``phase_seconds`` normalized so the values sum to exactly 1.0.
    phase_shares: Dict[str, float] = field(default_factory=dict)
    #: Union seconds per phase over the whole group window (overlap-free —
    #: ``weight_sync`` + ``weight_pull`` or many-replica ``generate`` spans
    #: count wall coverage once).
    phase_busy_s: Dict[str, float] = field(default_factory=dict)
    derived: Dict[str, float] = field(default_factory=dict)
    counter_series: Dict[str, Dict[str, float]] = field(default_factory=dict)
    instant_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.begin

    @property
    def bound(self) -> str:
        if not self.phase_shares:
            return OTHER_PHASE
        return max(self.phase_shares, key=lambda k: (self.phase_shares[k], k))

    def as_dict(self) -> Dict[str, object]:
        return {
            "group": self.group,
            "begin_s": self.begin,
            "end_s": self.end,
            "duration_s": self.duration,
            "bound": self.bound,
            "phase_seconds": dict(sorted(self.phase_seconds.items())),
            "phase_shares": dict(sorted(self.phase_shares.items())),
            "phase_busy_s": dict(sorted(self.phase_busy_s.items())),
            "derived": dict(sorted(self.derived.items())),
            "tracks": [t.as_dict() for t in self.tracks],
            "families": [f.as_dict() for f in self.families],
            "iterations": [i.as_dict() for i in self.iterations],
            "counter_series": {k: dict(sorted(v.items()))
                               for k, v in sorted(self.counter_series.items())},
            "instant_counts": dict(sorted(self.instant_counts.items())),
        }


@dataclass
class TraceAnalysis:
    """Analyses of every group in a recorder, in first-appearance order."""

    groups: List[GroupAnalysis] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {"groups": {g.group: g.as_dict() for g in self.groups}}


# --------------------------------------------------------------------------- loading
def load_chrome_trace(source) -> TraceRecorder:
    """Rebuild a :class:`TraceRecorder` from a Chrome-trace JSON file or
    payload (the inverse of :func:`~repro.obs.export.write_chrome_trace`).

    Process/thread metadata events restore the group and track names;
    complete ``"X"`` events become spans, ``"i"`` events instants and ``"C"``
    events counter samples (the exporter names counters ``track:name``).
    Timestamps come back through the microsecond scaling, so they are equal
    to the recorded values up to one float rounding step — analysis results
    on a reloaded trace match the in-memory recorder to the same precision.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        payload = source
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("not a Chrome-trace payload: missing traceEvents list")

    group_of: Dict[int, str] = {}
    track_of: Dict[Tuple[int, int], str] = {}
    for event in events:
        if event.get("ph") != "M":
            continue
        if event.get("name") == "process_name":
            group_of[int(event["pid"])] = str(event["args"]["name"])
        elif event.get("name") == "thread_name":
            track_of[(int(event["pid"]), int(event["tid"]))] = (
                str(event["args"]["name"])
            )

    recorder = TraceRecorder()
    for event in events:
        phase = event.get("ph")
        if phase == "M":
            continue
        pid = int(event.get("pid", 0))
        group = group_of.get(pid, f"pid-{pid}")
        recorder.set_group(group)
        args = event.get("args")
        if phase == "X":
            track = track_of.get((pid, int(event["tid"])), "unknown")
            begin = float(event["ts"]) / _TIME_SCALE
            duration = float(event.get("dur", 0.0)) / _TIME_SCALE
            recorder.span(track, str(event["name"]), begin, begin + duration,
                          args=args)
        elif phase == "i":
            track = track_of.get((pid, int(event["tid"])), "unknown")
            recorder.instant(track, str(event["name"]),
                             float(event["ts"]) / _TIME_SCALE, args=args)
        elif phase == "C":
            name = str(event["name"])
            track, _, counter = name.partition(":")
            if not counter:
                track, counter = "counters", name
            value = float((args or {}).get("value", 0.0))
            recorder.counter(track, counter, float(event["ts"]) / _TIME_SCALE,
                             value)
    return recorder


# --------------------------------------------------------------------------- analysis
def _attribute_window(
    begin: float, end: float,
    phase_unions: Dict[str, List[Interval]],
) -> Dict[str, float]:
    """Attribute every elementary segment of ``[begin, end]`` to the highest-
    priority phase active there; uncovered time is ``other``.  The returned
    seconds sum to exactly ``end - begin``."""
    clipped = {phase: _clip(union, begin, end)
               for phase, union in phase_unions.items()}
    boundaries = {begin, end}
    for union in clipped.values():
        for lo, hi in union:
            boundaries.add(lo)
            boundaries.add(hi)
    points = sorted(boundaries)
    cursors = {phase: 0 for phase in clipped}
    seconds = {phase: 0.0 for phase in PHASE_PRIORITY}
    seconds[OTHER_PHASE] = 0.0
    for lo, hi in zip(points, points[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2.0
        owner = OTHER_PHASE
        for phase in PHASE_PRIORITY:
            union = clipped.get(phase)
            if not union:
                continue
            k = cursors[phase]
            while k < len(union) and union[k][1] <= mid:
                k += 1
            cursors[phase] = k
            if k < len(union) and union[k][0] <= mid < union[k][1]:
                owner = phase
                break
        seconds[owner] += hi - lo
    # Re-anchor the residue so the attribution is exhaustive by construction
    # (float summation of segment lengths can drift a few ulps).
    drift = (end - begin) - sum(seconds.values())
    seconds[OTHER_PHASE] += drift
    return seconds


def analyze_group(recorder: TraceRecorder, group: str) -> Optional[GroupAnalysis]:
    """Analyze one recorder group; ``None`` when the group has no events."""
    spans = [s for s in recorder.spans if s.group == group]
    instants = [i for i in recorder.instants if i.group == group]
    counters = [c for c in recorder.counters if c.group == group]
    if not spans and not instants and not counters:
        return None

    stamps = [t for s in spans for t in (s.begin, s.end)]
    stamps += [i.ts for i in instants]
    stamps += [c.ts for c in counters]
    begin, end = min(stamps), max(stamps)
    analysis = GroupAnalysis(group=group, begin=begin, end=end)
    duration = analysis.duration

    # ---- per-track busy/idle/overlap
    track_order: Dict[str, None] = {}
    for span in spans:
        track_order.setdefault(span.track, None)
    track_unions = {
        track: _merge([(s.begin, s.end) for s in spans if s.track == track])
        for track in track_order
    }
    overlap_region = _covered_regions(list(track_unions.values()), at_least=2)
    for track in track_order:
        union = track_unions[track]
        busy = _total(union)
        analysis.tracks.append(TrackUsage(
            track=track,
            spans=sum(1 for s in spans if s.track == track),
            busy_s=busy,
            idle_s=max(0.0, duration - busy),
            overlap_s=_total(_intersect(union, overlap_region)),
            utilization=(busy / duration) if duration > 0 else 0.0,
        ))

    # ---- span-family attribution (by span name, ranked by coverage)
    name_order: Dict[str, None] = {}
    for span in spans:
        name_order.setdefault(span.name, None)
    for name in name_order:
        intervals = [(s.begin, s.end) for s in spans if s.name == name]
        busy = _total(_merge(intervals))
        analysis.families.append(FamilyUsage(
            name=name,
            count=len(intervals),
            total_s=sum(hi - lo for lo, hi in intervals),
            busy_s=busy,
            window_share=(busy / duration) if duration > 0 else 0.0,
        ))
    analysis.families.sort(key=lambda f: (-f.busy_s, f.name))

    # ---- per-iteration critical paths
    phase_unions: Dict[str, List[Interval]] = {p: [] for p in PHASE_PRIORITY}
    for span in spans:
        phase = SPAN_FAMILIES.get(span.name)
        if phase is not None:
            phase_unions[phase].append((span.begin, span.end))
    phase_unions = {p: _merge(v) for p, v in phase_unions.items()}
    analysis.phase_busy_s = {p: _total(v) for p, v in phase_unions.items()}
    windows = sorted(
        [(s.begin, s.end) for s in spans if s.name == "iteration" and s.end > s.begin]
    )
    if not windows and duration > 0 and spans:
        # Groups without explicit iteration spans (single-phase traces) are
        # attributed over their whole window.
        windows = [(begin, end)]
    total_seconds = {phase: 0.0 for phase in PHASE_PRIORITY}
    total_seconds[OTHER_PHASE] = 0.0
    for index, (lo, hi) in enumerate(windows):
        seconds = _attribute_window(lo, hi, phase_unions)
        length = hi - lo
        shares = {phase: (value / length if length > 0 else 0.0)
                  for phase, value in seconds.items()}
        bound = max(seconds, key=lambda k: (seconds[k], k))
        analysis.iterations.append(IterationPath(
            index=index, begin=lo, end=hi,
            seconds=seconds, shares=shares, bound=bound,
        ))
        for phase, value in seconds.items():
            total_seconds[phase] += value
    attributed = sum(total_seconds.values())
    analysis.phase_seconds = total_seconds
    if attributed > 0:
        shares = {p: v / attributed for p, v in total_seconds.items()}
        # Pin the share vector to an exact unit sum (the gate CI asserts it).
        drift = 1.0 - sum(shares.values())
        shares[OTHER_PHASE] += drift
        analysis.phase_shares = shares

    # ---- counters + instants
    for sample in counters:
        key = f"{sample.track}:{sample.name}"
        series = analysis.counter_series.get(key)
        if series is None:
            series = analysis.counter_series[key] = {
                "samples": 0.0, "min": sample.value, "max": sample.value,
                "last": sample.value,
            }
        series["samples"] += 1.0
        series["min"] = min(series["min"], sample.value)
        series["max"] = max(series["max"], sample.value)
        series["last"] = sample.value
    for instant in instants:
        analysis.instant_counts[instant.name] = (
            analysis.instant_counts.get(instant.name, 0) + 1
        )

    analysis.derived = derived_metrics(analysis)
    return analysis


def analyze_recorder(recorder: TraceRecorder) -> TraceAnalysis:
    """Analyze every group of the recorder (first-appearance order)."""
    analysis = TraceAnalysis()
    for group in recorder.groups():
        group_analysis = analyze_group(recorder, group)
        if group_analysis is not None:
            analysis.groups.append(group_analysis)
    return analysis


def derived_metrics(analysis: GroupAnalysis) -> Dict[str, float]:
    """The curated scalar subset attached to traced ``UnitResult`` extras.

    Empty when the group has no critical-path attribution (no spans) — the
    bench layer attaches these only when tracing is on, and only for units
    that produced a simulated timeline.
    """
    if not analysis.phase_shares or analysis.duration <= 0:
        return {}
    # Unions, not per-family sums: weight_sync/weight_pull (and the per-
    # replica generate spans) overlap, and the fractions are wall coverage.
    gen_busy = analysis.phase_busy_s.get("generation", 0.0)
    sync_busy = analysis.phase_busy_s.get("weight_sync", 0.0)
    metrics = {
        "sync_frac": min(1.0, sync_busy / analysis.duration),
    }
    if any(SPAN_FAMILIES.get(f.name) == "generation" for f in analysis.families):
        # Only meaningful for systems that record generation spans at all —
        # Laminar's continuous generation is deliberately off-span (token
        # counters carry it), so a bubble fraction there would be a
        # tautological 1.0, not a measurement.
        metrics["gen_bubble_frac"] = max(0.0, 1.0 - gen_busy / analysis.duration)
    for phase, key in _SHARE_KEYS.items():
        metrics[key] = analysis.phase_shares.get(phase, 0.0)
    return metrics


# --------------------------------------------------------------------------- rendering
def _fmt_share(value: float) -> str:
    return f"{value:6.1%}"


def render_analysis(analysis: TraceAnalysis, top: int = 8) -> str:
    """Human-readable critical-path report for every analyzed group."""
    if not analysis.groups:
        return "trace analysis: no events"
    lines: List[str] = []
    for g in analysis.groups:
        lines.append(f"[{g.group}] window={g.duration:.3f}s "
                     f"iterations={len(g.iterations)} bound={g.bound}")
        if g.phase_shares:
            ordered = [*PHASE_PRIORITY, OTHER_PHASE]
            lines.append("  critical path: " + "  ".join(
                f"{phase}={_fmt_share(g.phase_shares.get(phase, 0.0)).strip()}"
                for phase in ordered
            ))
        if g.derived:
            scalars = [k for k in ("gen_bubble_frac", "sync_frac")
                       if k in g.derived]
            lines.append("  derived: " + "  ".join(
                f"{k}={g.derived[k]:.3f}" for k in scalars
            ))
        if g.tracks:
            lines.append("  track             spans    busy_s    idle_s  "
                         "overlap_s   util")
            for t in g.tracks:
                lines.append(
                    f"  {t.track:<16} {t.spans:>6}  {t.busy_s:>8.3f}  "
                    f"{t.idle_s:>8.3f}  {t.overlap_s:>9.3f}  {_fmt_share(t.utilization)}"
                )
        if g.families:
            shown = g.families[:top]
            lines.append(f"  top span families ({len(shown)} of "
                         f"{len(g.families)}):")
            for f in shown:
                lines.append(
                    f"    {f.name:<16} n={f.count:<5} total={f.total_s:>9.3f}s "
                    f"busy={f.busy_s:>9.3f}s share={_fmt_share(f.window_share)}"
                )
        if g.instant_counts:
            rendered = ", ".join(f"{k}×{v}" for k, v in
                                 sorted(g.instant_counts.items()))
            lines.append(f"  instants: {rendered}")
        if g.counter_series:
            lines.append(f"  counters: {len(g.counter_series)} series, "
                         f"{int(sum(s['samples'] for s in g.counter_series.values()))} "
                         f"sample(s)")
    return "\n".join(lines)


def diff_analyses(candidate: TraceAnalysis,
                  baseline: TraceAnalysis) -> Dict[str, object]:
    """Structured per-group deltas of the phase shares and derived metrics.

    Groups are matched by label; groups present on only one side are listed
    (a grid change is itself a finding, not an error).
    """
    cand = {g.group: g for g in candidate.groups}
    base = {g.group: g for g in baseline.groups}
    diff: Dict[str, object] = {
        "only_in_candidate": sorted(set(cand) - set(base)),
        "only_in_baseline": sorted(set(base) - set(cand)),
        "groups": {},
    }
    for group in sorted(set(cand) & set(base)):
        c, b = cand[group], base[group]
        phases = sorted(set(c.phase_shares) | set(b.phase_shares))
        metrics = sorted(set(c.derived) | set(b.derived))
        diff["groups"][group] = {
            "duration_delta_s": c.duration - b.duration,
            "phase_share_delta": {
                p: c.phase_shares.get(p, 0.0) - b.phase_shares.get(p, 0.0)
                for p in phases
            },
            "derived_delta": {
                m: c.derived.get(m, 0.0) - b.derived.get(m, 0.0)
                for m in metrics
            },
        }
    return diff


def render_diff(diff: Dict[str, object]) -> str:
    """Text rendering of :func:`diff_analyses` output."""
    lines: List[str] = ["trace diff (candidate - baseline):"]
    for side in ("only_in_candidate", "only_in_baseline"):
        names = diff.get(side) or []
        if names:
            lines.append(f"  {side.replace('_', ' ')}: " + ", ".join(names))
    groups: Dict[str, Dict[str, object]] = diff.get("groups", {})
    if not groups:
        lines.append("  no common groups")
        return "\n".join(lines)
    for group, payload in groups.items():
        lines.append(f"  [{group}] duration {payload['duration_delta_s']:+.3f}s")
        shares = payload.get("phase_share_delta", {})
        moved = {p: d for p, d in shares.items() if abs(d) >= 0.0005}
        if moved:
            lines.append("    phase shares: " + "  ".join(
                f"{p}{d:+.1%}" for p, d in sorted(
                    moved.items(), key=lambda kv: -abs(kv[1]))
            ))
        else:
            lines.append("    phase shares: unchanged (<0.05% movement)")
        derived = payload.get("derived_delta", {})
        moved = {m: d for m, d in derived.items() if abs(d) >= 0.0005}
        if moved:
            lines.append("    derived: " + "  ".join(
                f"{m}{d:+.3f}" for m, d in sorted(moved.items())
            ))
    return "\n".join(lines)
