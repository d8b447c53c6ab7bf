"""Replica-level generation engine.

:class:`ReplicaGenerationState` models one rollout replica (one vLLM tensor-
parallel group) decoding a set of trajectories.  It is deliberately free of
any discrete-event-simulation dependency: callers drive it by asking "when is
your next internal event?" and then telling it "advance by this much time".
The :mod:`repro.runtime.harness` turns that contract into one engine process
that steps every replica:

* Laminar and AReaL replicas are members of a fleet stepper
  (:class:`repro.runtime.FleetStepper`), which wakes each replica at its own
  next event — so repacking, weight pulls and failures can land at any
  instant and simulated time jumps between real events;
* the batch-synchronous baselines drain a whole batch of replicas behind one
  join (:func:`repro.runtime.generation_barrier`, through one
  :class:`ReplicaBatchView` that steps a wide barrier's replicas together
  and routes a narrow barrier's replicas to their own engines), which
  reproduces their slowest-replica iteration semantics exactly.

Because every system shares this engine (and the roofline decode model inside
it), throughput differences between systems come purely from orchestration —
matching the paper's "alleviating implementation bias" methodology (§8).

Structure-of-arrays core
------------------------
Sequences cross the engine boundary as a :class:`SequenceBatch`: numpy
columns (ids, prompt tokens, target, progress counters, reprefill flag), the
turn schedule in CSR form and one :class:`~repro.types.Trajectory` per row.
``add_sequences`` checks a whole batch at once and writes it into per-slot
arrays indexed by a dense *slot* id and a flat schedule pool;
``remove_sequences``, ``remove_all`` and ``sequences()`` gather a batch back
out of them.  A barrier's fresh replicas take their shares of the global
batch in one fleet intake, :func:`add_fleet_sequences`: the same row checks
once for the whole batch, each column written once fleet-wide, and every
replica's first admissions from one prefix scan segmented by replica.  Both
intakes share one row check (:func:`_check_rows`).  The engine keeps each
row's trajectory object in a slot column and writes its fields only when the
sequence completes (and its ``versions_used`` whenever it first decodes
under a weight version); while a sequence is in flight its progress lives in
the arrays alone.

The decode / env-wait sets are order-preserving parallel vectors of (seq id,
slot, KVCache row) (:class:`_SeqVector`) and the waiting queue holds slots.
The decode set is *offset-encoded*: ``advance`` clips every decode window to
the smallest segment remainder, so all decoding sequences gain the same
number of tokens, and the engine stores their counters relative to one
per-replica count of tokens decoded.  A decode window is one integer add
plus three aggregates kept up to date — a heap of segment ends, the
context-token sum and a histogram of KV residues — and env waits leave from
a heap of return times, so the per-event hot path does no pass over the
batch (see :class:`ReplicaGenerationState`).
Per-sequence Python runs only on the control tail — preemption, segment
finishes, environment transitions.  ``tests/test_engine_equivalence.py``
drives this engine step-for-step against the scalar reference engine kept in
``tests/oracles.py`` and asserts bit-identical trajectories, stats and
KVCache occupancy.

Decode semantics
----------------
All actively decoding sequences advance one token per decode step; the decode
step latency follows the roofline model and depends on the live batch size and
mean context length.  A sequence is one of:

``queued``      waiting for KVCache admission (vLLM waiting queue)
``decoding``    in the decode batch
``env_wait``    waiting on an environment interaction (multi-turn tasks)
``done``        finished (removed from the replica)

KVCache management follows the vLLM model: a sequence is admitted when its
*current* context fits (plus a small growth lookahead), blocks are allocated
incrementally as tokens are decoded, and when the cache fills up the most
recently admitted sequences are preempted back to the waiting queue (their
cache is rebuilt when they are re-admitted).  This reproduces the utilisation
lifecycle of Figure 9: ramp-up, a plateau near ``C_max`` while a waiting queue
exists, and a ramp-down once it drains.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..llm.decode_model import DecodeModel, decode_step_time_arrays
from ..sim.kvcache import KVCache, KVCacheConfig, resize_array
from ..types import Trajectory

#: Numerical slack used when comparing simulated times.
_EPS = 1e-9

#: Bit layout of one decode-index heap entry, a single int ordered by
#: (segment end, insertion stamp): ``seg_end << _KEY_SHIFT | stamp <<
#: _SLOT_BITS | slot``.
_SLOT_BITS = 24
_STAMP_BITS = 32
_KEY_SHIFT = _SLOT_BITS + _STAMP_BITS
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_STAMP_MASK = (1 << _STAMP_BITS) - 1

#: Admissions per call taken by the scalar loop before the vectorized scan.
_ADMIT_SCALAR = 8

#: First head window of the vectorized admission scan (widened 4x per pass).
_ADMIT_WINDOW = 16

#: Fewest eligible lanes a :class:`ReplicaBatchView` fuses.  A fused round
#: pays a fixed set of numpy reductions and kernels whatever its width, while
#: a per-replica decode window is O(1), so a narrower view routes every lane
#: to its own engine.  Seconds per unit on a shared 2-vCPU host, fused vs
#: routed (in-process medians of 4 alternations, env-wait heap in place;
#: registry barriers are 4, 8, 12, 16, 24 or >= 96 lanes wide, and the
#: crossover lies between 16 and 24 lanes, so 24 is the narrowest registry
#: width that fuses):
#:
#: ======================================  =====  =====  ======  ============
#: unit                                    lanes  fused  routed  routed/fused
#: ======================================  =====  =====  ======  ============
#: throughput_7b_tool stream_gen 7B/16         4   4.34    1.33          0.31
#: throughput_7b_math one_step 7B/16           4   0.82    0.22          0.26
#: throughput_7b_tool verl 7B/16               8   2.66    1.05          0.40
#: throughput_7b_math verl 7B/16               8   0.38    0.19          0.50
#: convergence_7b stream_gen 7B/32            12   1.59    1.56          0.98
#: convergence_7b one_step 7B/32              12   1.63    1.56          0.96
#: convergence_7b verl 7B/32                  16   3.05    1.42          0.47
#: tool_long_horizon stream_gen 7B/64         24   1.48    1.73          1.17
#: throughput_7b_tool stream_gen 7B/256      108   0.66    1.11          1.69
#: throughput_7b_tool verl 7B/256            128   0.53    0.96          1.82
#: throughput_7b_math verl 7B/256            128   0.10    0.14          1.40
#: throughput_72b_math verl 72B/1024         128   0.13    0.15          1.13
#: datacenter_1k verl 4096 GPUs            2,048   0.61    1.00          1.66
#: ======================================  =====  =====  ======  ============
_FUSE_MIN_LANES = 24


#: Residency codes of the engine's status array and ``SequenceBatch.status``.
QUEUED = 0
DECODING = 1
ENV_WAIT = 2

#: Zero-length arrays every per-slot array starts as: a replica sizes its
#: state from its first batch (:func:`resize_array` replaces an empty array
#: rather than copying it), so nothing ever writes into these.
_EMPTY = {dtype: np.zeros(0, dtype=dtype) for dtype in (np.int64, np.float64, np.int8, bool)}

#: Per-slot arrays of the engine as ``(attribute, dtype)``: sequence id,
#: decode counters, target and prompt tokens, env return time, last weight
#: version tagged, residency status, turn cursor and count, reprefill flag,
#: and where the slot's schedule starts in the schedule pool.  Intake writes
#: every one of them for the slots it takes, so a free slot's values are
#: never read.
_SLOT_ARRAYS = (
    ("_a_id", np.int64),
    ("_a_seg_rem", np.int64),
    ("_a_gen", np.int64),
    ("_a_target", np.int64),
    ("_a_prompt", np.int64),
    ("_a_ctx", np.int64),
    ("_a_done_turn", np.int64),
    ("_a_env", np.float64),
    ("_a_last_ver", np.int64),
    ("_a_status", np.int8),
    ("_a_turn", np.int64),
    ("_a_nturns", np.int64),
    ("_a_reprefill", bool),
    ("_a_sched_off", np.int64),
)


def _csr_gather(starts: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Compact CSR offsets for rows of ``counts`` entries found at ``starts``
    in some flat array, and the flat positions of those entries in row order."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add.accumulate(counts, out=offsets[1:])
    flat = (starts - offsets[:-1]).repeat(counts) + np.arange(offsets[-1])
    return offsets, flat


@dataclass(slots=True)
class SequenceBatch:
    """Columns of sequences entering, leaving or held by a replica.

    Row ``i`` is trajectory ``trajectories[i]`` (``ids[i]`` is its id).
    Its turn schedule is ``segments[offsets[i]:offsets[i + 1]]`` — response
    tokens decoded per turn — with the environment latency paid after each
    turn in the same slice of ``env_latencies`` (zero after the last turn).
    ``offsets`` starts at 0 and ends at ``len(segments)``; a slice of a
    batch views its parent's arrays.
    ``turn`` / ``done_turn`` locate the row in its schedule, ``generated``
    counts its response tokens so far and ``reprefill`` marks a row whose
    context must be re-prefilled before it decodes again (repack, failover).
    ``status`` is the row's residency when a replica gathered it (``QUEUED``
    for fresh rows); ``add_sequences`` queues every row regardless, and
    carries ``env_return`` along untouched.
    """

    ids: np.ndarray
    prompt_tokens: np.ndarray
    target: np.ndarray
    generated: np.ndarray
    turn: np.ndarray
    done_turn: np.ndarray
    env_return: np.ndarray
    reprefill: np.ndarray
    status: np.ndarray
    offsets: np.ndarray
    segments: np.ndarray
    env_latencies: np.ndarray
    trajectories: List[Trajectory]

    @classmethod
    def fresh(cls, ids: np.ndarray, prompt_tokens: np.ndarray, target: np.ndarray,
              offsets: np.ndarray, segments: np.ndarray, env_latencies: np.ndarray,
              trajectories: List[Trajectory]) -> "SequenceBatch":
        """Rows that have not decoded yet: turn 0, nothing generated."""
        n = len(ids)
        return cls(
            ids=ids, prompt_tokens=prompt_tokens, target=target,
            generated=np.zeros(n, dtype=np.int64), turn=np.zeros(n, dtype=np.int64),
            done_turn=np.zeros(n, dtype=np.int64),
            env_return=np.full(n, math.inf), reprefill=np.zeros(n, dtype=bool),
            status=np.zeros(n, dtype=np.int8), offsets=offsets, segments=segments,
            env_latencies=env_latencies, trajectories=trajectories,
        )

    def __len__(self) -> int:
        return len(self.trajectories)

    def __getitem__(self, rows: slice) -> "SequenceBatch":
        """A contiguous run of rows, as views of this batch's arrays."""
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("a batch slice takes consecutive rows; use take()")
        stop = max(start, stop)
        lo, hi = self.offsets.item(start), self.offsets.item(stop)
        return SequenceBatch(
            self.ids[start:stop], self.prompt_tokens[start:stop], self.target[start:stop],
            self.generated[start:stop], self.turn[start:stop], self.done_turn[start:stop],
            self.env_return[start:stop], self.reprefill[start:stop], self.status[start:stop],
            self.offsets[start:stop + 1] - lo, self.segments[lo:hi],
            self.env_latencies[lo:hi], self.trajectories[start:stop],
        )

    def take(self, index: np.ndarray) -> "SequenceBatch":
        """The rows ``index`` selects, in its order, as a new batch."""
        starts = self.offsets[index]
        offsets, flat = _csr_gather(starts, self.offsets[index + 1] - starts)
        trajectories = self.trajectories
        return SequenceBatch(
            self.ids[index], self.prompt_tokens[index], self.target[index],
            self.generated[index], self.turn[index], self.done_turn[index],
            self.env_return[index], self.reprefill[index], self.status[index],
            offsets, self.segments[flat], self.env_latencies[flat],
            [trajectories[row] for row in index.tolist()],
        )

    @property
    def num_turns(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def context_tokens(self) -> np.ndarray:
        """Prompt plus generated tokens per row."""
        return self.prompt_tokens + self.generated


def _check_rows(batch: SequenceBatch, live: AbstractSet[int],
                where: str) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Check every row of a non-empty batch before an intake writes any.

    Every segment is positive, every env latency non-negative with one per
    segment, each row's turn index is inside its schedule, no id repeats or
    is in ``live`` (``where`` names the holder in the error), and no row's
    generated tokens plus the tokens left in its schedule exceed its target
    (the decode set assumes the target is never reached before the last
    segment ends).  Returns each row's number of turns, the tokens left in
    its current segment and the ids as a list.
    """
    n = len(batch)
    offsets, segments, env_latencies = batch.offsets, batch.segments, batch.env_latencies
    entries = len(segments)
    if offsets.item(0) or offsets.item(n) != entries or len(env_latencies) != entries:
        raise ValueError("a schedule needs one env latency per segment")
    starts, ends = offsets[:-1], offsets[1:]
    counts = ends - starts
    turn = batch.turn
    # Read as unsigned, a negative turn compares above every count.
    if np.count_nonzero(turn.view(np.uint64) >= counts):
        raise ValueError("turn index outside the schedule")
    # Every row has a segment now, so neither minimum is empty.
    if min(segments.tolist()) <= 0:
        raise ValueError("segments must be positive")
    if min(env_latencies.tolist()) < 0:
        raise ValueError("env latencies must be non-negative")
    ids = batch.ids.tolist()
    if len(set(ids)) < n or not live.isdisjoint(ids):
        raise ValueError(f"a sequence id repeats or is already on {where}")
    cursor = starts + turn
    seg_rem = segments[cursor] - batch.done_turn
    # Tokens in the segments after the current one (inclusive prefix sums,
    # read at each row's last segment and at its cursor).
    decoded_by = np.add.accumulate(segments)
    later = decoded_by[ends - 1] - decoded_by[cursor]
    over = batch.generated + seg_rem + later > batch.target
    if np.count_nonzero(over):
        row = over.nonzero()[0][0]
        raise ValueError(
            f"sequence {ids[row]}: {batch.generated[row]} generated + "
            f"{seg_rem[row] + later[row]} scheduled tokens exceed its target "
            f"{batch.target[row]}"
        )
    return counts, seg_rem, ids


@dataclass
class ReplicaStats:
    """Cumulative counters exposed for metrics and tests."""

    tokens_generated: int = 0
    prompt_tokens_prefilled: int = 0
    reprefill_tokens: int = 0
    trajectories_completed: int = 0
    decode_busy_time: float = 0.0
    idle_time: float = 0.0
    env_blocked_time: float = 0.0
    preemptions: int = 0


class _SeqVector:
    """Order-preserving parallel vectors of (seq id, slot, KVCache row).

    Backs the decode and env-wait sets of the vectorized engine.  The
    columns are ``array('q')``s, so appending, popping or deleting one entry
    is a C-level list operation — the per-finisher control tail does one of
    those per event — and the ``*_view`` accessors wrap a column as a numpy
    array without copying.  A view pins its column: ``array`` refuses to
    resize while a view is alive, so drop views before the set changes.
    """

    __slots__ = ("ids", "slots", "rows", "n")

    def __init__(self) -> None:
        self.ids, self.slots, self.rows = array("q"), array("q"), array("q")
        self.n = 0

    def append(self, seq_id: int, slot: int, row: int) -> None:
        self.ids.append(seq_id)
        self.slots.append(slot)
        self.rows.append(row)
        self.n += 1

    def extend(self, ids: np.ndarray, slots: np.ndarray, rows: np.ndarray) -> None:
        """Append many entries at once (int64 arrays), preserving input order."""
        self.ids.frombytes(ids.tobytes())
        self.slots.frombytes(slots.tobytes())
        self.rows.frombytes(rows.tobytes())
        self.n += len(ids)

    def clear(self) -> None:
        del self.ids[:], self.slots[:], self.rows[:]
        self.n = 0

    def pop(self) -> Tuple[int, int, int]:
        """Remove and return the most recently appended entry."""
        self.n -= 1
        return self.ids.pop(), self.slots.pop(), self.rows.pop()

    def ids_view(self) -> np.ndarray:
        return np.frombuffer(self.ids, dtype=np.int64)

    def slots_view(self) -> np.ndarray:
        return np.frombuffer(self.slots, dtype=np.int64)

    def rows_view(self) -> np.ndarray:
        return np.frombuffer(self.rows, dtype=np.int64)

    def delete_positions(self, positions: List[int]) -> None:
        """Delete the entries at ascending ``positions``, keeping the others' order."""
        ids, slots, rows = self.ids, self.slots, self.rows
        for position in reversed(positions):
            del ids[position], slots[position], rows[position]
        self.n -= len(positions)

    def remove_slots(self, slots: np.ndarray) -> None:
        """Delete the entries of ``slots``, preserving the order of the rest."""
        positions = np.flatnonzero(np.isin(self.slots_view(), slots))
        if len(positions):
            self.delete_positions(positions.tolist())


def _joined(columns: List[array]) -> np.ndarray:
    """``array('q')`` columns concatenated into one (read-only) int64 array."""
    return np.frombuffer(b"".join(columns), dtype=np.int64)


class _SlotQueue:
    """FIFO of waiting sequences' slots (the vLLM waiting queue).

    A head pointer over a plain list makes :meth:`popleft` / :meth:`popleft_n`
    O(1) amortised — the admission scan runs on every ``next_event_in`` /
    ``advance`` loop, so head pops must not be ``list.pop(0)``.  Preempted
    sequences go back to the *front* (:meth:`appendleft`, vLLM recompute
    order) by reclaiming the dead prefix when one exists.
    """

    __slots__ = ("_items", "_head")

    def __init__(self) -> None:
        self._items: List[int] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __bool__(self) -> bool:
        return len(self._items) > self._head

    def head(self) -> int:
        return self._items[self._head]

    def extend(self, slots: List[int]) -> None:
        self._items.extend(slots)

    def appendleft(self, slot: int) -> None:
        if self._head:
            self._head -= 1
            self._items[self._head] = slot
        else:
            self._items.insert(0, slot)

    def popleft(self) -> int:
        item = self._items[self._head]
        self._head += 1
        self._compact()
        return item

    def popleft_n(self, count: int) -> None:
        self._head += count
        self._compact()

    def remove(self, slots: set) -> None:
        """Drop every queued slot in ``slots``, keeping the others' order."""
        self._items = [slot for slot in self._items[self._head:] if slot not in slots]
        self._head = 0

    def head_array(self, count: int) -> np.ndarray:
        """The first ``count`` queued slots in FIFO order (a copy)."""
        return np.array(self._items[self._head:self._head + count], dtype=np.int64)

    def _compact(self) -> None:
        if self._head > 64 and self._head * 2 >= len(self._items):
            del self._items[: self._head]
            self._head = 0


class ReplicaGenerationState:
    """Simulated decode engine for one rollout replica.

    Offset-encoded decode set
    -------------------------
    ``advance`` clips every decode window to the smallest segment remainder,
    so every decoding sequence gains the same ``t`` tokens per window.  The
    engine therefore keeps one per-replica count ``D`` of tokens decoded
    (``_decoded``) and stores each decoding sequence's counters as they stood
    at the ``D`` it entered the decode set (``_a_dent``): segment remainder,
    tokens done in the turn, generated and context tokens, and KV tokens
    (``_a_kv``).  Its live value is the stored one shifted by ``D - entry``,
    so a decode window is ``D += t``.  ``add_sequences`` rejects a sequence
    whose schedule would carry it past its target, so no shifted counter
    needs a cap.  The quantities the event loop needs are kept up to date
    instead of recomputed per window or per release:

    * ``_heap`` — a min-heap of packed ints ``(seg_end, stamp, slot)``, where
      ``seg_end`` is the ``D`` at which the member's segment ends; its top is
      the smallest segment remainder, and a window's finishers are the
      entries whose ``seg_end`` equals the new ``D``;
    * ``_ctx_base`` — Σ(context − entry ``D``), so the context-token sum is
      ``_ctx_base + n·D``;
    * ``_hist`` — members per class of ``(KV tokens − 1 − D) mod block_size``;
      growing every member by ``t`` adds ``t // block_size`` blocks each plus
      one for every member whose last block fill is in a range set by
      ``t % block_size``, so :meth:`_block_growth` is a slice sum and the
      ledger is charged by count (:meth:`KVCache.charge_blocks`);
    * ``_env_heap`` — a min-heap of ``(return time, env stamp)`` over the env
      set, whose stamps ``_env_stamps`` keeps in env-set order; its top is
      the earliest env return, and a release pops every entry due by
      ``clock + _EPS``, sorts their stamps and bisects their env-set
      positions (:meth:`_release_env_returns`).

    Every float (step time, ``_time_carry``, window, clock) is computed from
    the same integers as a per-sequence engine would, so the bits match
    ``tests/oracles.py``.  Decode-set order is behaviour, and the encoding
    keeps it: stamps increase along ``_dec``, so a window's finishers pop in
    ``_dec`` order; preemption pops the newest member; env returns re-enter
    at the tail in env-set order (the env set is only appended at its tail,
    so ascending env stamp is env-set order, tied return times included); a
    zero-latency turn advance keeps its place and its stamp.

    The format stays inside the engine.  :meth:`_write_back` turns every
    counter and KV ledger row back into plain values before anything reads
    them (``sequences()``, removal, a :class:`ReplicaBatchView` stacking the
    replica); it is a no-op while no window has run since the last one.  A
    member that moves to the env set or the waiting queue is materialised
    (:meth:`_materialize`) first; a completing member frees its slot
    instead, so its trajectory's generated tokens are read shifted.  The
    index is built lazily on the first per-replica step — so barrier
    admission does no extra work — and dropped by removal and by a view's
    ``settle()``.

    Per-slot state
    --------------
    The per-slot arrays (:data:`_SLOT_ARRAYS`), the decode/env vectors and
    the KV ledger are sized by the replica's first batch and doubled when a
    later batch overflows them (:meth:`_reserve`).  Freed slots are reused
    newest first, and a batch takes its slots in that order.  A replica
    built by the fleet intake (:func:`add_fleet_sequences`) holds slices of
    fleet-wide columns instead: slot arrays, schedule pool and KV ledger,
    each sized exactly to its share.  Its writes stay inside its own slice,
    and growth (:meth:`_reserve`, :meth:`_schedule_room`) copies the arrays
    out, so it owns them from then on.
    """

    def __init__(
        self,
        replica_id: int,
        decode_model: DecodeModel,
        kvcache_config: KVCacheConfig,
        max_concurrency: int = 1024,
        weight_version: int = 0,
    ) -> None:
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        self.replica_id = replica_id
        self.decode_model = decode_model
        self.kvcache = KVCache(kvcache_config)
        self.max_concurrency = max_concurrency
        self.weight_version = weight_version
        self.clock = 0.0
        self.stats = ReplicaStats()
        self._queued = _SlotQueue()
        #: Decode and env-wait sets: incrementally maintained (id, slot, row)
        #: vectors in the same order the scalar engine kept its id lists.
        self._dec = _SeqVector()
        self._env = _SeqVector()
        self._completed: List[Trajectory] = []
        self._time_carry = 0.0
        #: Straggler degradation (repro.faults): multipliers applied to the
        #: decode step time and to environment latencies.  1.0 (the default)
        #: is the exact pre-fault code path — the guards below skip the
        #: multiply entirely, so healthy replicas stay bit-identical.
        self._decode_slowdown = 1.0
        self._env_slowdown = 1.0
        #: True while the waiting queue is known to be inadmissible (head does
        #: not fit, or no concurrency headroom).  Kept exact by clearing at
        #: every event that can unblock admission: KV rows freed or queue /
        #: concurrency changed (finish, preemption, add/remove).  Token
        #: growth only shrinks headroom, so decode windows need not clear it
        #: — that is what keeps the steady-state admission check O(1).
        self._admit_blocked = False
        #: Decode-step latency memo, keyed by (batch, mean context).
        self._step_key: Optional[Tuple[int, int]] = None
        self._step_value = 0.0
        # Decode index (see the class docstring).  _build_index creates its
        # containers on the first per-replica step, so barrier replicas,
        # which never take one, carry none of them.
        self._block = kvcache_config.block_size
        self._indexed = False
        self._decoded = 0
        #: ``_decoded`` at the last write-back (nothing is stale while equal).
        self._plain_at = 0
        self._next_stamp = 0
        self._ctx_base = 0
        self._heap: Optional[List[int]] = None
        #: Stamps of ``_dec``'s members in ``_dec`` order (ascending), so a
        #: finisher's position is a bisection.
        self._dec_stamps: Optional[array] = None
        #: Heap entries left behind by preempted members (popped lazily).
        self._stale: Optional[set] = None
        self._hist: Optional[List[int]] = None
        #: Env-wait index: a min-heap of ``(return time, env stamp)`` over the
        #: env set, and the env set's stamps in env-set order (ascending).
        self._env_heap: Optional[List[Tuple[float, int]]] = None
        self._env_stamps: Optional[array] = None
        self._next_env_stamp = 0
        #: Ids that entered the decode set since the last window and may need
        #: the current weight version recorded; ``_retag`` asks for a scan of
        #: the whole decode set instead (after a version bump or a rebuild).
        self._untagged: Optional[List[int]] = None
        self._retag = False
        #: Utilisation at the previous observation, for the ramp-down test
        #: (§5.2: a repack candidate has non-increasing KVCache utilisation).
        self.prev_utilization = 0.0
        #: Observability: when tracing is on, the decode loop appends
        #: ``(local clock, tokens)`` increments here (one list append per
        #: decode window — the batched-flush contract keeping the hot path
        #: fast); the harness drains it at phase boundaries via
        #: :meth:`take_trace_samples`.  ``None`` (the default) disables the
        #: buffer entirely.
        self.trace_samples: Optional[List[Tuple[float, int]]] = None
        self._trace_total = 0
        #: Slot of every live sequence, keyed by id, in intake order.
        self._slots: Dict[int, int] = {}
        self._free_slots: List[int] = []
        for name, dtype in _SLOT_ARRAYS:
            setattr(self, name, _EMPTY[dtype])
        #: Trajectory of each slot's sequence (``None`` for a free slot).
        self._a_traj: List[Optional[Trajectory]] = []
        # Decode-index SoA: entry ``D`` and KV tokens, allocated with the
        # index and meaningful only while ``_indexed``.
        self._a_dent: Optional[np.ndarray] = None
        self._a_kv: Optional[np.ndarray] = None
        #: Flat schedule pools: a live slot ``s`` owns
        #: ``_sched_seg[off:off + _a_nturns[s]]`` (segment lengths) and the
        #: same range of ``_sched_env`` (env latencies), where ``off =
        #: _a_sched_off[s]``.  Intake appends a batch's schedules at
        #: ``_sched_len``; :meth:`_schedule_room` compacts the live ones when
        #: the pool is full.
        self._sched_seg = _EMPTY[np.int64]
        self._sched_env = _EMPTY[np.float64]
        self._sched_len = 0

    # ------------------------------------------------------------------ slots
    def _reserve(self, need: int) -> None:
        """Size the per-slot state for ``need`` (> capacity) live sequences.

        The first batch sizes it exactly; later growth at least doubles.
        Fresh slots go under the recycled ones on the free list, so slots
        are still handed out recycled-first, then in ascending order.
        """
        old = len(self._a_id)
        new = max(need, 2 * old)
        if new > 1 << _SLOT_BITS:
            raise ValueError(f"replica {self.replica_id}: too many sequences")
        for name, _dtype in _SLOT_ARRAYS:
            setattr(self, name, resize_array(getattr(self, name), new))
        self._a_traj.extend([None] * (new - old))
        if self._a_dent is not None:
            self._a_dent = resize_array(self._a_dent, new)
            self._a_kv = resize_array(self._a_kv, new)
        self.kvcache.reserve(new)
        self._free_slots[:0] = range(new - 1, old - 1, -1)

    def _schedule_room(self, entries: int) -> None:
        """Make room for ``entries`` more schedule entries at the full pool's tail.

        Finished and removed sequences leave dead regions behind.  With
        nothing live the pool restarts from its beginning (an empty pool, on
        a fresh replica, is sized by its first batch).  Otherwise the live
        schedules are copied, in slot-table order, into a fresh pool with at
        least as much room again as they and the newcomers need, so copying
        stays amortised O(1) per entry.
        """
        size = len(self._sched_seg)
        if not self._slots:
            self._sched_len = 0
            if entries > size:
                self._sched_seg = np.zeros(max(entries, 2 * size), dtype=np.int64)
                self._sched_env = np.zeros(max(entries, 2 * size), dtype=np.float64)
            return
        live = np.fromiter(self._slots.values(), dtype=np.int64, count=len(self._slots))
        offsets, flat = _csr_gather(self._a_sched_off[live], self._a_nturns[live])
        used = offsets.item(-1)
        size = max(size, 2 * (used + entries))
        segments = np.zeros(size, dtype=np.int64)
        env_latencies = np.zeros(size, dtype=np.float64)
        segments[:used] = self._sched_seg[flat]
        env_latencies[:used] = self._sched_env[flat]
        self._a_sched_off[live] = offsets[:-1]
        self._sched_seg, self._sched_env, self._sched_len = segments, env_latencies, used

    def _release_slot(self, seq_id: int) -> None:
        slot = self._slots.pop(seq_id)
        self._free_slots.append(slot)
        self._a_traj[slot] = None

    def _gather(self, slots: np.ndarray) -> SequenceBatch:
        """The plain state of ``slots`` as a batch (call after ``_write_back``)."""
        offsets, flat = _csr_gather(self._a_sched_off[slots], self._a_nturns[slots])
        trajectories = self._a_traj
        return SequenceBatch(
            self._a_id[slots], self._a_prompt[slots], self._a_target[slots],
            self._a_gen[slots], self._a_turn[slots], self._a_done_turn[slots],
            self._a_env[slots], self._a_reprefill[slots], self._a_status[slots],
            offsets, self._sched_seg[flat], self._sched_env[flat],
            [trajectories[slot] for slot in slots.tolist()],
        )

    # ------------------------------------------------------------------ decode index
    def _build_index(self) -> None:
        """Index the (plain) decode set at ``D = 0`` and the env set's returns;
        stamps follow ``_dec`` and ``_env`` order."""
        dec, env, kvcache = self._dec, self._env, self.kvcache
        if self._a_dent is None:
            # int32 halves the footprint; token counts and D stay far below 2**31.
            self._a_dent = np.zeros(len(self._a_seg_rem), dtype=np.int32)
            self._a_kv = np.zeros(len(self._a_seg_rem), dtype=np.int32)
        self._indexed = True
        self._decoded = self._plain_at = 0
        self._stale = set()
        self._untagged = []
        self._retag = True
        waiting = env.n
        if waiting:
            self._a_kv[env.slots_view()] = kvcache.tokens_at(env.rows_view())
        self._next_env_stamp = waiting
        self._env_stamps = array("q", range(waiting))
        self._env_heap = list(zip(self._a_env[env.slots_view()].tolist(), range(waiting)))
        heapq.heapify(self._env_heap)
        n = dec.n
        self._next_stamp = n
        self._dec_stamps = array("q", range(n))
        slots = dec.slots_view()
        kv = kvcache.tokens_at(dec.rows_view())
        self._a_kv[slots] = kv
        self._a_dent[slots] = 0
        seg = self._a_seg_rem[slots]
        heap = [
            (end << _KEY_SHIFT) | (stamp << _SLOT_BITS) | slot
            for stamp, (end, slot) in enumerate(zip(seg.tolist(), slots.tolist()))
        ]
        heapq.heapify(heap)
        self._heap = heap
        self._ctx_base = int(self._a_ctx[slots].sum())
        self._hist = np.bincount((kv - 1) % self._block, minlength=self._block).tolist()

    def _enter(self, seq_id: int, slot: int) -> None:
        """Index a member just appended to the decode set (plain values)."""
        decoded = self._decoded
        stamp = self._next_stamp
        self._next_stamp = stamp + 1
        self._dec_stamps.append(stamp)
        self._a_dent[slot] = decoded
        seg = self._a_seg_rem.item(slot)
        heapq.heappush(
            self._heap, ((seg + decoded) << _KEY_SHIFT) | (stamp << _SLOT_BITS) | slot
        )
        self._ctx_base += self._a_ctx.item(slot) - decoded
        self._hist[(self._a_kv.item(slot) - 1 - decoded) % self._block] += 1
        # A version bump sets ``_retag``, which rescans the whole decode set,
        # so a member already tagged with the current version needs no entry.
        if self._a_last_ver.item(slot) != self.weight_version:
            self._untagged.append(seq_id)

    def _materialize(self, slot: int) -> None:
        """Rewrite a decoding member's counters as plain values at ``D``."""
        delta = self._decoded - self._a_dent.item(slot)
        if not delta:
            return
        self._a_dent[slot] = self._decoded
        self._a_seg_rem[slot] -= delta
        self._a_done_turn[slot] += delta
        self._a_gen[slot] += delta
        self._a_ctx[slot] += delta
        self._a_kv[slot] += delta

    def _leave(self, slot: int) -> None:
        """Drop a member from the aggregates (its heap entry is popped or stale)."""
        entry = self._a_dent.item(slot)
        self._ctx_base -= self._a_ctx.item(slot) - entry
        self._hist[(self._a_kv.item(slot) - 1 - entry) % self._block] -= 1

    def _free_kv(self, seq_id: int, slot: int) -> None:
        """Free a decoding member's KV row; refund growth its row never saw."""
        tokens = self._a_kv.item(slot) + self._decoded - self._a_dent.item(slot)
        freed = self.kvcache.free(seq_id)
        blocks = -(-tokens // self._block)
        if freed != blocks:
            self.kvcache.charge_blocks(freed - blocks)

    def _write_back(self) -> None:
        """Turn every counter and KV ledger row back into plain values.

        The index stays valid: the heap's segment ends, Σ(context − entry D)
        and the residue classes are invariant under materialization.
        """
        if not self._indexed or self._decoded == self._plain_at:
            return
        decoded = self._decoded
        dec, env, kvcache = self._dec, self._env, self.kvcache
        if dec.n:
            slots = dec.slots_view()
            delta = decoded - self._a_dent[slots]
            moved = np.flatnonzero(delta)
            if len(moved):
                slots, delta = slots[moved], delta[moved]
                self._a_dent[slots] = decoded
                self._a_seg_rem[slots] -= delta
                self._a_done_turn[slots] += delta
                self._a_gen[slots] += delta
                self._a_ctx[slots] += delta
                self._a_kv[slots] += delta
        rows = np.concatenate((dec.rows_view(), env.rows_view()))
        tokens = self._a_kv[np.concatenate((dec.slots_view(), env.slots_view()))]
        ledger = kvcache.tokens_at(rows)
        stale = np.flatnonzero(tokens != ledger)
        if len(stale):
            rows, tokens, ledger = rows[stale], tokens[stale], ledger[stale]
            ids = np.concatenate((dec.ids_view(), env.ids_view()))[stale]
            # The growth was charged window by window; refund it so the
            # row append charges it once.
            kvcache.charge_blocks(-int(
                (kvcache.blocks_for_many(tokens) - kvcache.blocks_for_many(ledger)).sum()
            ))
            kvcache.append_tokens_many(ids, tokens - ledger, rows=rows)
        self._plain_at = decoded

    def _drop_index(self) -> None:
        """Forget the index; the next per-replica step rebuilds it."""
        self._indexed = False

    def _segment_end(self) -> int:
        """``D`` at which the first decoding member ends its segment."""
        heap = self._heap
        stale = self._stale
        while stale and heap[0] in stale:
            stale.remove(heapq.heappop(heap))
        return heap[0] >> _KEY_SHIFT

    def _block_growth(self, tokens: int) -> int:
        """KV blocks needed to grow every decoding member by ``tokens``.

        A sequence whose last block holds ``f + 1`` tokens (``f = (kv - 1)
        mod block``) gains ``tokens // block`` blocks plus one when ``f +
        tokens % block >= block``; members are counted per residue class.
        """
        block = self._block
        whole, part = divmod(tokens, block)
        growth = whole * self._dec.n
        if part:
            hist = self._hist
            start = (-part - self._decoded) % block
            end = start + part
            if end <= block:
                growth += sum(hist[start:end])
            else:
                growth += sum(hist[start:]) + sum(hist[:end - block])
        return growth

    def _tag_versions(self) -> None:
        """Record the weight version on members decoding under it first time."""
        version = self.weight_version
        last = self._a_last_ver
        if self._retag:
            self._retag = False
            slots = self._dec.slots_view()
            stale = slots[last[slots] != version]
            last[stale] = version
            trajectories = [self._a_traj[slot] for slot in stale.tolist()]
        else:
            trajectories = []
            slots_of, status = self._slots, self._a_status
            for seq_id in self._untagged:
                slot = slots_of.get(seq_id)
                if (slot is not None and status.item(slot) == DECODING
                        and last.item(slot) != version):
                    last[slot] = version
                    trajectories.append(self._a_traj[slot])
        self._untagged = []
        for trajectory in trajectories:
            versions = trajectory.versions_used
            if version not in versions:
                versions.append(version)

    # ------------------------------------------------------------------ intake
    def add_sequences(self, sequences: SequenceBatch) -> None:
        """Queue a batch of new or migrated sequences on this replica.

        The whole batch is checked (:func:`_check_rows`, which also refuses
        an id already live here) before anything is written, so a rejected
        batch leaves the replica unchanged.  This is the intake of live
        replicas; a barrier's fresh replicas take their shares of the global
        batch through :func:`add_fleet_sequences`.
        """
        batch = sequences
        n = len(batch)
        if n:
            counts, seg_rem, ids = _check_rows(batch, self._slots.keys(),
                                               f"replica {self.replica_id}")
            segments, env_latencies = batch.segments, batch.env_latencies
            entries = len(segments)
            starts = batch.offsets[:-1]
            if len(self._slots) + n > len(self._a_id):
                self._reserve(len(self._slots) + n)
            if self._sched_len + entries > len(self._sched_seg):
                self._schedule_room(entries)
            free = self._free_slots
            taken = free[:-n - 1:-1]
            del free[-n:]
            slots = np.array(taken, dtype=np.int64)
            self._a_id[slots] = batch.ids
            self._a_seg_rem[slots] = seg_rem
            self._a_gen[slots] = batch.generated
            self._a_target[slots] = batch.target
            self._a_prompt[slots] = batch.prompt_tokens
            self._a_ctx[slots] = batch.prompt_tokens + batch.generated
            self._a_done_turn[slots] = batch.done_turn
            self._a_env[slots] = batch.env_return
            self._a_last_ver[slots] = -1
            self._a_status[slots] = QUEUED
            self._a_turn[slots] = batch.turn
            self._a_nturns[slots] = counts
            self._a_reprefill[slots] = batch.reprefill
            tail = self._sched_len
            self._a_sched_off[slots] = starts + tail
            self._sched_seg[tail:tail + entries] = segments
            self._sched_env[tail:tail + entries] = env_latencies
            self._sched_len = tail + entries
            trajectories = self._a_traj
            for slot, trajectory in zip(taken, batch.trajectories):
                trajectories[slot] = trajectory
            self._slots.update(zip(ids, taken))
            self._queued.extend(taken)
        self._admit_blocked = False
        self._try_admit()

    def remove_sequences(self, seq_ids: Sequence[int]) -> SequenceBatch:
        """Detach (in-progress) sequences, e.g. when repacked to another replica.

        Returns the batch of those present, in ``seq_ids`` order.
        """
        self._write_back()
        self._drop_index()
        slots_of = self._slots
        slots = np.array(
            [slots_of.pop(seq_id) for seq_id in dict.fromkeys(seq_ids) if seq_id in slots_of],
            dtype=np.int64,
        )
        removed = self._gather(slots)
        if len(slots):
            status = removed.status
            queued = status == QUEUED
            if queued.any():
                self._queued.remove(set(slots[queued].tolist()))
            if not queued.all():
                self.kvcache.free_many(removed.ids[~queued].tolist())
                self._dec.remove_slots(slots[status == DECODING])
                self._env.remove_slots(slots[status == ENV_WAIT])
            freed = slots.tolist()
            self._free_slots.extend(freed)
            for slot in freed:
                self._a_traj[slot] = None
            self._admit_blocked = False
        self._try_admit()
        return removed

    def remove_all(self) -> SequenceBatch:
        """Detach every in-progress sequence (machine failure / full release)."""
        return self.remove_sequences(list(self._slots))

    # ------------------------------------------------------------------ queries
    @property
    def num_sequences(self) -> int:
        return len(self._slots)

    @property
    def num_decoding(self) -> int:
        return self._dec.n

    @property
    def num_queued(self) -> int:
        return len(self._queued)

    @property
    def num_env_waiting(self) -> int:
        return self._env.n

    @property
    def kvcache_utilization(self) -> float:
        return self.kvcache.utilization

    @property
    def is_idle(self) -> bool:
        return not self._slots

    def drain_completed(self) -> List[Trajectory]:
        """Return (and clear) trajectories completed since the last drain."""
        completed, self._completed = self._completed, []
        return completed

    def sequences(self) -> SequenceBatch:
        """Every live sequence, in intake order."""
        self._write_back()
        return self._gather(np.fromiter(self._slots.values(), dtype=np.int64,
                                        count=len(self._slots)))

    def mean_context_tokens(self) -> float:
        if not self._dec.n:
            return 0.0
        if not self._indexed:
            self._build_index()
        return (self._ctx_base + self._dec.n * self._decoded) / self._dec.n

    def current_step_time(self) -> float:
        """Decode-step latency of the live batch.

        Memoised on (batch size, mean context): ``next_event_in`` and the
        ``advance`` that follows price the same batch.
        """
        batch = self._dec.n
        if not batch:
            return 0.0
        if not self._indexed:
            self._build_index()
        key = (batch, int((self._ctx_base + batch * self._decoded) / batch))
        if key != self._step_key:
            value = self.decode_model.decode_step_time(*key)
            if self._decode_slowdown != 1.0:
                value *= self._decode_slowdown
            self._step_key, self._step_value = key, value
        return self._step_value

    def _earliest_env_return(self) -> float:
        """Earliest environment return time: the env heap's top."""
        env_heap = self._env_heap
        return env_heap[0][0] if env_heap else math.inf

    def observe_utilization(self) -> float:
        """Record the current utilisation for ramp-down detection and return it."""
        util = self.kvcache_utilization
        self.prev_utilization = util
        return util

    # ------------------------------------------------------------------ scheduling
    #: Extra tokens of headroom required beyond a sequence's current context
    #: before it is admitted, to avoid admit/preempt thrashing.
    admission_lookahead_tokens: int = 256

    def _try_admit(self) -> None:
        """Admit waiting sequences head-first while cache and concurrency allow.

        A scalar head check keeps the steady state (cache full, nothing
        admissible) O(1); when the head fits, the scalar admit-one-recheck
        loop admits up to ``_ADMIT_SCALAR`` sequences, and a vectorized
        prefix scan over a head window decides the rest at once —
        bit-identical to the scalar loop because admission is strictly FIFO
        and each admission consumes exactly the blocks the prefix sum
        accounts for.  The window starts at ``_ADMIT_WINDOW`` sequences and
        widens only while every one in it fits, so a deep queue costs
        O(admitted), not O(queue).
        """
        queued = self._queued
        if not queued or self._admit_blocked:
            return
        capacity = self.max_concurrency - self._dec.n - self._env.n
        if capacity <= 0:
            self._admit_blocked = True
            return
        kvcache = self.kvcache
        lookahead = self.admission_lookahead_tokens
        head_context = self._a_ctx.item(queued.head())
        if not kvcache.can_allocate(head_context + lookahead):
            self._admit_blocked = True
            return
        # Never scan past what concurrency allows: the steady state admits a
        # handful of sequences per call regardless of queue depth.
        limit = min(len(queued), capacity)
        # Most calls admit one or two sequences, so the scalar admit-one-
        # recheck loop takes the first few; the vectorized prefix scan below
        # is its formulation for the rest — same FIFO decision, same
        # allocation order — and pays an array set-up only when more fit.
        admitted = 0
        first = min(limit, _ADMIT_SCALAR)
        while admitted < first:
            slot = queued.head()
            context = self._a_ctx.item(slot)
            if admitted and not kvcache.can_allocate(context + lookahead):
                # The next head does not fit; a clearing event re-arms the scan.
                self._admit_blocked = True
                return
            queued.popleft()
            seq_id = self._a_id.item(slot)
            row = kvcache.allocate(seq_id, context + 1)
            self._a_status[slot] = DECODING
            self._dec.append(seq_id, slot, row)
            if self._a_reprefill[slot]:
                self.stats.reprefill_tokens += context
                self._a_reprefill[slot] = False
            else:
                self.stats.prompt_tokens_prefilled += int(self._a_prompt[slot])
            if self._indexed:
                self._a_kv[slot] = context + 1
                self._enter(seq_id, slot)
            admitted += 1
        limit -= admitted
        if not limit:
            # Concurrency is exhausted or the queue is empty.
            self._admit_blocked = True
            return
        width = min(limit, _ADMIT_WINDOW)
        while True:
            slots = queued.head_array(width)
            contexts = self._a_ctx[slots]
            alloc_blocks = kvcache.blocks_for_many(contexts + 1)
            need_blocks = kvcache.blocks_for_many(contexts + lookahead)
            used_before = kvcache.used_blocks + np.concatenate(
                ([0], np.cumsum(alloc_blocks[:-1]))
            )
            fits = used_before + need_blocks <= kvcache.config.total_blocks
            count = width if fits.all() else int(np.argmin(fits))
            if count < width or width == limit:
                break
            width = min(limit, 4 * width)
        if count <= 0:
            self._admit_blocked = True
            return
        admit_slots = slots[:count]
        admit_ids = self._a_id[admit_slots]
        queued.popleft_n(count)
        rows = kvcache.allocate_many(admit_ids, contexts[:count] + 1)
        self._a_status[admit_slots] = DECODING
        self._dec.extend(admit_ids, admit_slots, rows)
        reprefill = self._a_reprefill[admit_slots]
        self.stats.reprefill_tokens += int(contexts[:count][reprefill].sum())
        self.stats.prompt_tokens_prefilled += int(
            self._a_prompt[admit_slots[~reprefill]].sum()
        )
        self._a_reprefill[admit_slots] = False
        if self._indexed:
            self._a_kv[admit_slots] = contexts[:count] + 1
            for seq_id, slot in zip(admit_ids.tolist(), admit_slots.tolist()):
                self._enter(seq_id, slot)
        self._admit_blocked = True

    def _preempt_one(self) -> bool:
        """Preempt the most recently admitted decoding sequence (vLLM recompute).

        Returns True if a sequence was preempted.  Runs only inside a decode
        window, so the index is live; the member's heap entry goes stale.
        """
        if self._dec.n <= 1:
            return False
        seq_id, slot, _row = self._dec.pop()
        stamp = self._dec_stamps.pop()
        self._materialize(slot)
        self._leave(slot)
        stale = self._stale
        stale.add(
            ((self._a_seg_rem.item(slot) + self._decoded) << _KEY_SHIFT)
            | (stamp << _SLOT_BITS) | slot
        )
        if len(stale) > 64 and 2 * len(stale) > len(self._heap):
            self._heap = [key for key in self._heap if key not in stale]
            heapq.heapify(self._heap)
            stale.clear()
        self._free_kv(seq_id, slot)
        self._a_status[slot] = QUEUED
        self._a_reprefill[slot] = True
        self._queued.appendleft(slot)
        self.stats.preemptions += 1
        self._admit_blocked = False
        return True

    def _ensure_growth_capacity(self, tokens: int) -> None:
        """Preempt sequences until every decoding sequence can grow by ``tokens``."""
        # Fast path: growing by ``tokens`` adds at most ceil(tokens/block) + 1
        # blocks per sequence, so a roomy cache never needs the exact count.
        upper_bound = self._dec.n * (-(-tokens // self._block) + 1)
        if upper_bound <= self.kvcache.free_blocks:
            return
        while self._block_growth(tokens) > self.kvcache.free_blocks:
            if not self._preempt_one():
                return

    def _release_env_returns(self) -> None:
        """Move every env wait due by ``clock + _EPS`` to the decode set's tail.

        The env set is only appended at its tail, so the sorted stamps of
        the popped entries give the due members in env-set order, tied
        return times included.
        """
        env_heap = self._env_heap
        horizon = self.clock + _EPS
        if not env_heap or env_heap[0][0] > horizon:
            return
        stamps: List[int] = []
        while env_heap and env_heap[0][0] <= horizon:
            stamps.append(heapq.heappop(env_heap)[1])
        stamps.sort()
        env, dec, env_stamps = self._env, self._dec, self._env_stamps
        a_env, status = self._a_env, self._a_status
        positions = [bisect_left(env_stamps, stamp) for stamp in stamps]
        for position in positions:
            seq_id, slot = env.ids[position], env.slots[position]
            a_env[slot] = math.inf
            status[slot] = DECODING
            dec.append(seq_id, slot, env.rows[position])
            self._enter(seq_id, slot)
        env.delete_positions(positions)
        for position in reversed(positions):
            del env_stamps[position]

    def next_event_in(self) -> Optional[float]:
        """Time until the next internal event, or ``None`` if the replica is empty.

        Internal events are: a decoding sequence finishing its current segment,
        or an environment interaction returning.  Admission happens eagerly and
        never needs a timer.  The smallest segment remainder is the decode
        heap's top and the step time is memoised, so calling
        ``next_event_in`` and then ``advance`` for the same event costs O(1).
        """
        if not self._slots:
            return None
        if not self._indexed:
            self._build_index()
        if self._env.n:
            self._release_env_returns()
        if not self._admit_blocked and self._queued:
            self._try_admit()
        delta = None
        if self._dec.n:
            step = self.current_step_time()
            min_seg = self._segment_end() - self._decoded
            delta = max(_EPS, min_seg * step - self._time_carry)
        if self._env.n:
            env_delta = max(_EPS, self._earliest_env_return() - self.clock)
            if delta is None or env_delta < delta:
                delta = env_delta
        # ``None`` here means only queued sequences that cannot be admitted:
        # the replica is stuck until something frees its cache.
        return delta

    def stuck_error(self) -> RuntimeError:
        """The error a drain raises when ``next_event_in`` finds it stuck.

        That happens when sequences are live but only queued: nothing
        decodes or waits on an environment, so no block will ever be freed
        and the waiting queue's head, which does not fit, never will.
        """
        return RuntimeError(
            f"replica {self.replica_id} is stuck with {len(self._queued)} queued "
            f"sequence(s): the head needs {self._a_ctx.item(self._queued.head())} "
            f"context + {self.admission_lookahead_tokens} lookahead tokens, and "
            f"the KV pool holds {self.kvcache.config.total_tokens} tokens"
        )

    def advance(self, dt: float) -> List[Trajectory]:
        """Advance the replica by ``dt`` seconds of simulated time.

        Handles any number of internal events that fall inside the window and
        returns the trajectories completed during it.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if not self._indexed:
            self._build_index()
        target = self.clock + dt
        completed_now: List[Trajectory] = []
        # Enter the loop at least once for any positive window.  When the
        # step time shrinks below already-accrued ``_time_carry`` (a slowdown
        # clearing, or a batch-composition change after mass migration), the
        # next-event window floors to ``_EPS`` and the guard alone would
        # never admit it; the zero-width pass emits the carry-covered token
        # and is a no-op otherwise.
        pending = dt > 0.0
        while pending or self.clock < target - _EPS:
            pending = False
            if self._env.n:
                self._release_env_returns()
            if not self._admit_blocked and self._queued:
                self._try_admit()
            if not self._dec.n:
                # Nothing to decode: jump to the next env return (or the target).
                if self._env.n:
                    earliest = self._earliest_env_return()
                    next_clock = min(target, max(earliest, self.clock))
                else:
                    next_clock = target
                blocked = next_clock - self.clock
                if self._env.n:
                    self.stats.env_blocked_time += blocked
                else:
                    self.stats.idle_time += blocked
                self.clock = next_clock
                continue

            step = self.current_step_time()
            min_seg = self._segment_end() - self._decoded
            time_to_segment = min_seg * step - self._time_carry
            time_to_env = math.inf
            if self._env.n:
                time_to_env = self._earliest_env_return() - self.clock
            window = min(time_to_segment, time_to_env, target - self.clock)
            window = max(window, 0.0)

            tokens_float = (window + self._time_carry) / step
            tokens = int(math.floor(tokens_float + 1e-9))
            tokens = min(tokens, min_seg)
            self._time_carry = (window + self._time_carry) - tokens * step
            if tokens > 0:
                self._apply_decode(tokens, completed_now)
            self.stats.decode_busy_time += window
            self.clock += window
            if window <= _EPS and tokens == 0:
                # Avoid an infinite loop on degenerate windows; the epsilon
                # slip is charged to the decode-busy bucket (a decode batch is
                # live here) so busy + idle + env-blocked keeps covering the
                # clock.
                new_clock = min(target, self.clock + _EPS)
                self.stats.decode_busy_time += new_clock - self.clock
                self.clock = new_clock
        self._completed.extend(completed_now)
        return completed_now

    def _apply_decode(self, tokens: int, completed_now: List[Trajectory]) -> None:
        """Advance every decoding sequence by ``tokens`` (``<=`` every remainder)."""
        self._ensure_growth_capacity(tokens)
        growth = self._block_growth(tokens)
        self._decoded += tokens
        self.kvcache.charge_blocks(growth)
        if self._retag or self._untagged:
            self._tag_versions()
        generated = self._dec.n * tokens
        self.stats.tokens_generated += generated
        if self.trace_samples is not None:
            self.trace_samples.append((self.clock, generated))
        # Finishers are the entries whose segment ends at the new D; popping
        # them in (seg_end, stamp) order yields them in decode-set order.
        decoded = self._decoded
        heap = self._heap
        stale = self._stale
        slots: List[int] = []
        stamps: List[int] = []
        while heap and heap[0] >> _KEY_SHIFT <= decoded:
            key = heapq.heappop(heap)
            if stale and key in stale:
                stale.remove(key)
                continue
            slots.append(key & _SLOT_MASK)
            stamps.append((key >> _SLOT_BITS) & _STAMP_MASK)
        if slots:
            self._finish_segments(slots, stamps, completed_now)
        if self._queued and not self._admit_blocked:
            self._try_admit()

    def _finish_segments(self, slots: List[int], stamps: List[int],
                         completed_now: List[Trajectory]) -> None:
        """Control tail for the members whose segment just ended.

        ``slots``/``stamps`` arrive in decode-set order.  Last-turn members
        complete (KV rows freed, slots released and trajectories written in
        that order); the rest advance their turn and either wait on the
        environment (appended to the env set in the same order) or keep their
        decode-set place with a fresh heap entry under the same stamp.  The
        two groups touch disjoint state, so one pass in decode-set order
        matches finishing every completion first.
        """
        dec = self._dec
        dec_stamps = self._dec_stamps
        decoded = self._decoded
        leaving: List[int] = []
        for slot, stamp in zip(slots, stamps):
            position = bisect_left(dec_stamps, stamp)
            seq_id = dec.ids[position]
            turn = self._a_turn.item(slot)
            if turn + 1 == self._a_nturns.item(slot):
                # The slot is freed, so its counters stay as stored: the
                # aggregates and the KV refund read them relative to entry D.
                self._leave(slot)
                self._free_kv(seq_id, slot)
                trajectory = self._a_traj[slot]
                self._release_slot(seq_id)
                trajectory.generated_tokens = (
                    self._a_gen.item(slot) + decoded - self._a_dent.item(slot)
                )
                trajectory.turns_done = turn + 1
                trajectory.finish_time = self.clock
                trajectory.replica_id = self.replica_id
                completed_now.append(trajectory)
                self.stats.trajectories_completed += 1
                self._admit_blocked = False
                leaving.append(position)
                continue
            self._materialize(slot)
            offset = self._a_sched_off.item(slot)
            self._a_turn[slot] = turn + 1
            self._a_done_turn[slot] = 0
            seg = self._sched_seg.item(offset + turn + 1)
            self._a_seg_rem[slot] = seg
            env_latency = self._sched_env.item(offset + turn)
            if self._env_slowdown != 1.0:
                env_latency *= self._env_slowdown
            if env_latency > 0:
                self._leave(slot)
                returns_at = self.clock + env_latency
                self._a_env[slot] = returns_at
                self._a_status[slot] = ENV_WAIT
                self._env.append(seq_id, slot, dec.rows[position])
                env_stamp = self._next_env_stamp
                self._next_env_stamp = env_stamp + 1
                self._env_stamps.append(env_stamp)
                heapq.heappush(self._env_heap, (returns_at, env_stamp))
                leaving.append(position)
            else:
                # Zero-latency turn advance: same place, same stamp.
                heapq.heappush(
                    self._heap,
                    ((seg + decoded) << _KEY_SHIFT) | (stamp << _SLOT_BITS) | slot,
                )
        if leaving:
            dec.delete_positions(leaving)
            for position in reversed(leaving):
                del dec_stamps[position]

    def enable_trace_sampling(self) -> None:
        """Arm the decode loop's trace-sample buffer (idempotent)."""
        if self.trace_samples is None:
            self.trace_samples = []

    def take_trace_samples(self, offset: float = 0.0) -> List[Tuple[float, float]]:
        """Drain the buffered decode samples as cumulative-token counter rows.

        Returns ``(offset + local clock, cumulative tokens)`` pairs — the
        batched flush the harness feeds to the tracer.  ``offset`` maps the
        replica-local clock into the environment's simulated time (zero for
        the continuous drivers, whose clocks are already absolute).
        """
        samples = self.trace_samples
        if not samples:
            return []
        self.trace_samples = []
        out: List[Tuple[float, float]] = []
        total = self._trace_total
        for clock, generated in samples:
            total += generated
            out.append((offset + clock, float(total)))
        self._trace_total = total
        return out

    def inject_stall(self, duration: float, *, busy: bool = True) -> None:
        """Advance the replica clock by ``duration`` without decoding.

        Used to charge non-decode GPU work that blocks generation, e.g. the
        KVCache re-prefill storms of partial-rollout systems or weight-load
        stalls.  ``busy=True`` books the time as decode-busy (the GPU is doing
        work, just not emitting tokens); ``busy=False`` books it as idle.
        """
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.clock += duration
        # Push any pending env returns accordingly: environment latency is
        # wall-clock, so env timers keep running during the stall (no shift).
        if busy:
            self.stats.decode_busy_time += duration
        else:
            self.stats.idle_time += duration

    def reprefill_all_inflight(self) -> float:
        """Charge a re-prefill of every in-flight sequence's cached context.

        Returns the stall duration charged.  This models the partial-rollout
        pause-and-sync cycle (§2.3): after a weight update, every interrupted
        trajectory must rebuild its KVCache before decoding can continue.
        """
        self._write_back()
        slots = np.concatenate((self._dec.slots_view(), self._env.slots_view()))
        contexts = self._a_ctx[slots].tolist()
        total_context = sum(contexts)
        if total_context == 0:
            return 0.0
        # Each interrupted trajectory re-prefills its own context; the engine
        # batches these prefills, so the cost is the sum of per-sequence
        # prefill compute (attention cost is quadratic per sequence, not over
        # the concatenation), added left to right in decode-then-env order.
        prefill_time = self.decode_model.prefill_time
        stall = sum(prefill_time(context, batch_size=1) for context in contexts)
        self.stats.reprefill_tokens += total_context
        trajectories = self._a_traj
        for slot in slots.tolist():
            trajectories[slot].reprefill_count += 1
        self.inject_stall(stall, busy=True)
        return stall

    def set_weight_version(self, version: int) -> None:
        """Switch the replica to a new weight version (subsequent tokens use it)."""
        if version < self.weight_version:
            raise ValueError("weight version cannot go backwards")
        if version != self.weight_version:
            self.weight_version = version
            self._retag = True

    def set_slowdown(self, decode: Optional[float] = None,
                     env: Optional[float] = None) -> None:
        """Apply straggler multipliers to decode step time / env latency.

        A factor of 1.0 restores the nominal path.  The new factor takes
        effect at the caller's next event; callers mutate only at the
        replica's current clock (``catch_up`` first), which keeps fleet
        stepping bit-identical to one process per replica.
        """
        if decode is not None and decode != self._decode_slowdown:
            if decode <= 0:
                raise ValueError("decode slowdown must be positive")
            # The carry is fractional progress toward the next token stored
            # in *time* units; rescale it with the step time, or clearing a
            # slowdown leaves carry > step and the next-event window
            # collapses into a zero-width livelock.
            self._time_carry *= decode / self._decode_slowdown
            self._decode_slowdown = decode
            self._step_key = None
        if env is not None and env != self._env_slowdown:
            if env <= 0:
                raise ValueError("env slowdown must be positive")
            self._env_slowdown = env


def add_fleet_sequences(replicas: Sequence[ReplicaGenerationState], batch: SequenceBatch,
                        shares: Sequence[int]) -> None:
    """Queue one batch on fresh replicas and admit the head of each share.

    Replica ``r`` takes the next ``shares[r]`` rows of ``batch`` and ends in
    exactly the state ``replicas[r].add_sequences(its rows)`` leaves, but
    the work is done once for the fleet.  The batch is checked once
    (:func:`_check_rows`; ids must be unique across the whole batch).  Each
    per-slot column, the schedule pool and the KV ledger is written once as
    a fresh fleet-wide array, and every replica holds slices of them until
    growth copies its arrays out.  The first admissions come from one FIFO
    prefix scan segmented by replica, which is ``_try_admit``'s rule on an
    empty replica: a replica admits its longest prefix of rows in which
    every row's ``blocks(ctx + lookahead)`` fits the pool on top of
    ``blocks(ctx + 1)`` of the rows before it, at most ``max_concurrency``
    rows, on KV rows ``0…k−1`` in order.

    A replica that has held a sequence or stepped is not fresh.  Such a
    replica, or a bad row anywhere, raises before any replica is written.
    """
    shares = np.asarray(shares, dtype=np.int64)
    n = len(batch)
    if len(shares) != len(replicas) or shares.sum() != n or np.count_nonzero(shares < 0):
        raise ValueError("the shares must split the batch over the replicas")
    for replica in replicas:
        if len(replica._a_id) or replica._a_dent is not None:
            raise ValueError(f"replica {replica.replica_id} is not fresh")
    if not n:
        return
    nturns, seg_rem, ids = _check_rows(batch, frozenset(), "the fleet")
    bounds = np.zeros(len(replicas) + 1, dtype=np.int64)
    np.cumsum(shares, out=bounds[1:])
    owner = np.repeat(np.arange(len(replicas)), shares)
    first = bounds[owner]
    # A row's slot and KV row on its replica.
    slot = np.arange(n, dtype=np.int64) - first
    limits = np.array(
        [(r.kvcache.config.block_size, r.kvcache.config.total_blocks,
          r.admission_lookahead_tokens, r.max_concurrency) for r in replicas],
        dtype=np.int64,
    )
    block, total_blocks, lookahead = limits[:, :3].T[:, owner]
    context = batch.prompt_tokens + batch.generated
    alloc = -(-(context + 1) // block)
    need = -(-(context + lookahead) // block)
    # Blocks the rows before each one allocate on its replica.
    before = np.cumsum(alloc) - alloc
    before -= before[first]
    # A replica's first row that does not fit ends its admitted prefix.
    misfits = np.append(np.flatnonzero(before + need > total_blocks), n)
    stop = np.minimum(misfits[np.searchsorted(misfits, bounds[:-1])], bounds[1:])
    takes = np.minimum(stop - bounds[:-1], limits[:, 3])
    admitted = slot < takes[owner]
    reprefill = batch.reprefill.astype(bool)

    def replica_sums(values: np.ndarray) -> List[int]:
        sums = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(values, out=sums[1:])
        return (sums[bounds[1:]] - sums[bounds[:-1]]).tolist()

    kv_tokens = np.where(admitted, context + 1, 0)
    kv_blocks = np.where(admitted, alloc, 0)
    used = replica_sums(kv_blocks)
    prefilled = replica_sums(np.where(admitted & ~reprefill, batch.prompt_tokens, 0))
    reprefilled = replica_sums(np.where(admitted & reprefill, context, 0))
    values = (
        batch.ids, seg_rem, batch.generated, batch.target, batch.prompt_tokens, context,
        batch.done_turn, batch.env_return, np.full(n, -1),
        np.where(admitted, DECODING, QUEUED), batch.turn, nturns, reprefill & ~admitted,
        batch.offsets[:-1] - batch.offsets[first],
    )
    columns = [(name, np.array(column, dtype=dtype))
               for (name, dtype), column in zip(_SLOT_ARRAYS, values)]
    fleet_ids = columns[0][1]
    seg_pool = np.array(batch.segments, dtype=np.int64)
    env_pool = np.array(batch.env_latencies, dtype=np.float64)
    entry_bounds = batch.offsets[bounds].tolist()
    row_bounds = bounds.tolist()
    takes = takes.tolist()
    trajectories = batch.trajectories
    for r, replica in enumerate(replicas):
        lo, hi = row_bounds[r], row_bounds[r + 1]
        if lo == hi:
            replica._admit_blocked = False
            continue
        for name, column in columns:
            setattr(replica, name, column[lo:hi])
        entry_lo, entry_hi = entry_bounds[r], entry_bounds[r + 1]
        replica._sched_seg = seg_pool[entry_lo:entry_hi]
        replica._sched_env = env_pool[entry_lo:entry_hi]
        replica._sched_len = entry_hi - entry_lo
        replica._a_traj = trajectories[lo:hi]
        live = ids[lo:hi]
        replica._slots = dict(zip(live, range(hi - lo)))
        k = takes[r]
        replica._queued.extend(range(hi - lo))
        replica._queued.popleft_n(k)
        replica._dec.extend(fleet_ids[lo:lo + k], slot[lo:lo + k], slot[lo:lo + k])
        replica.kvcache.adopt(kv_tokens[lo:hi], kv_blocks[lo:hi], live[:k], used[r])
        replica.stats.prompt_tokens_prefilled += prefilled[r]
        replica.stats.reprefill_tokens += reprefilled[r]
        replica._admit_blocked = True


class ReplicaBatchView:
    """Fused cross-replica stepping view over many replicas' decode state.

    Barrier drains advance replicas that are mutually independent: they
    interact only at the join.  This view stacks every *fuse-eligible*
    replica's per-sequence decode state into one cross-replica SoA — segment
    remainders, generated tokens, env timers and KV token counts concatenated
    lane-major — and sweeps all lanes together with per-horizon vectorized
    kernels: one masked ``next_event_in`` reduction over the stacked arrays,
    one clipped vector subtract for decode across every lane due at the same
    horizon.  The per-sequence Python tail (segment finishes, env
    transitions) is shared across lanes per sweep.

    The contract is bit-identity with driving each
    :class:`ReplicaGenerationState` one at a time: every float expression
    mirrors :meth:`ReplicaGenerationState.advance` term for term and in the
    same association, per-lane clock/carry/stats chains accumulate in the
    same order, and FIFO orders (decode set, env set, KV row recycling, slot
    recycling, completion order) are preserved exactly.

    Lanes that fail the eligibility gates stay *resident*: their calls route
    straight to the underlying engine, one replica at a time, so the grouped
    kernel degrades to exactly the per-replica call sequence whenever
    interleaving constraints bind.  A lane is *eligible* if

    * it is a plain :class:`ReplicaGenerationState` with live sequences,
    * its waiting queue is empty (no admissions or preemptions can fire), and
    * no straggler slowdown is active and trace sampling is off.

    The view fuses only when at least ``_FUSE_MIN_LANES`` of its lanes are
    eligible: a fused round costs the same whatever its width, so a narrower
    view routes every lane, and with no lane stacked its batch calls are
    plain per-replica calls.  Of a wide view's eligible lanes, one is fused
    only if its KV pool provably fits every remaining token of every live
    sequence (so mid-drain growth can never overflow or trigger preemption).

    Between construction and :meth:`settle` the view owns its fused lanes'
    state; the underlying engines must not be touched.  ``settle`` writes
    everything back (arrays, membership vectors, KV ledger via telescoped
    free/append plus :meth:`KVCache.note_peak`, stats, completions) and is
    idempotent.
    """

    def __init__(self, replicas: Sequence[ReplicaGenerationState]) -> None:
        self.replicas = list(replicas)
        self._lane_k = np.full(len(self.replicas), -1, dtype=np.int64)
        self._settled = False
        self._round_done: Dict[int, List[Trajectory]] = {}
        candidates = [
            pos for pos, replica in enumerate(self.replicas)
            if type(replica) is ReplicaGenerationState
            and replica.num_sequences > 0
            and not replica._queued
            and replica._decode_slowdown == 1.0
            and replica._env_slowdown == 1.0
            and replica.trace_samples is None
        ]
        if len(candidates) < _FUSE_MIN_LANES:
            candidates = []
        for pos in candidates:
            self.replicas[pos]._write_back()
        self._stack(candidates)

    # ------------------------------------------------------------------ stacking
    def _stack(self, positions: List[int]) -> None:
        K = len(positions)
        self._K = K
        self._k_replica: List[ReplicaGenerationState] = [self.replicas[p] for p in positions]
        self._lane_ok = np.zeros(K, dtype=bool)
        if not K:
            return
        reps = self._k_replica
        nd = np.array([r._dec.n for r in reps], dtype=np.int64)
        ne = np.array([r._env.n for r in reps], dtype=np.int64)
        counts = nd + ne
        S = int(counts.sum())
        srep = np.repeat(np.arange(K, dtype=np.int64), counts)
        # Stacked per-sequence state: one gather per field over the
        # concatenation of every lane's slot arrays (the concatenate walks
        # lanes at C level; nothing here is per-replica Python).
        slot_base = np.zeros(K, dtype=np.int64)
        np.cumsum([len(r._a_seg_rem) for r in reps[:-1]], out=slot_base[1:])
        lslot = _joined([v for r in reps for v in (r._dec.slots, r._env.slots)])
        gslot = lslot + slot_base[srep]

        def gather(name: str) -> np.ndarray:
            return np.concatenate([getattr(r, name) for r in reps])[gslot]

        self._rep = srep
        self._slot = lslot.copy()
        self._sid = _joined([v for r in reps for v in (r._dec.ids, r._env.ids)])
        self._row = _joined([v for r in reps for v in (r._dec.rows, r._env.rows)])
        self._seg = gather("_a_seg_rem")
        self._gen = gather("_a_gen")
        self._tgt = gather("_a_target")
        self._prm = gather("_a_prompt")
        self._dnt = gather("_a_done_turn")
        self._trn = gather("_a_turn")
        self._ntr = gather("_a_nturns")
        self._soff = gather("_a_sched_off")
        self._envt = gather("_a_env")
        self._lvr = gather("_a_last_ver")
        row_base = np.zeros(K, dtype=np.int64)
        np.cumsum([len(r.kvcache._tokens) for r in reps[:-1]], out=row_base[1:])
        self._kvt = np.concatenate([r.kvcache._tokens for r in reps])[
            self._row + row_base[srep]
        ]
        self._kvt0 = self._kvt.copy()
        # Membership: [decode set, env set] per lane, lane-major, preserving
        # each engine's FIFO order.
        base = np.zeros(K, dtype=np.int64)
        np.cumsum(counts[:-1], out=base[1:])
        is_dec = (np.arange(S, dtype=np.int64) - base[srep]) < nd[srep]
        self._dec_i = np.flatnonzero(is_dec)
        self._env_i = np.flatnonzero(~is_dec)
        # Per-lane scalars (float chains continue from the engines' values
        # and are assigned back verbatim at settle).
        self._clock = np.array([r.clock for r in reps], dtype=np.float64)
        self._carry = np.array([r._time_carry for r in reps], dtype=np.float64)
        self._busy = np.array([r.stats.decode_busy_time for r in reps], dtype=np.float64)
        self._idle = np.array([r.stats.idle_time for r in reps], dtype=np.float64)
        self._envb = np.array([r.stats.env_blocked_time for r in reps], dtype=np.float64)
        self._tokgen = np.array([r.stats.tokens_generated for r in reps], dtype=np.int64)
        self._ncomp = np.array(
            [r.stats.trajectories_completed for r in reps], dtype=np.int64
        )
        self._wv = np.array([r.weight_version for r in reps], dtype=np.int64)
        self._live = counts.copy()
        self._target = self._clock.copy()
        self._kv_used = np.array([r.kvcache.used_blocks for r in reps], dtype=np.int64)
        self._kv_peak = np.array([r.kvcache.peak_blocks for r in reps], dtype=np.int64)
        self._c_bs = np.array(
            [r.kvcache.config.block_size for r in reps], dtype=np.int64
        )
        self._bs_l = self._c_bs.tolist()
        total_blocks = np.array(
            [r.kvcache.config.total_blocks for r in reps], dtype=np.int64
        )
        # Roofline constants per lane (lanes may mix models / TP degrees).
        rows = [r.decode_model.roofline + (r.decode_model.step_overhead,) for r in reps]
        (self._c_wb, self._c_kvb, self._c_bw, self._c_fl,
         self._c_dense, self._c_attn, self._c_ovh) = (
            np.array(col, dtype=np.float64) for col in zip(*rows)
        )
        # Per-lane settle bookkeeping.
        self._admit_cleared = np.zeros(K, dtype=bool)
        self._freed_ids: List[List[int]] = [[] for _ in range(K)]
        self._freed_slots: List[List[int]] = [[] for _ in range(K)]
        self._done_traj: List[List[Trajectory]] = [[] for _ in range(K)]
        self._sched_seg_ref = [r._sched_seg for r in reps]
        self._sched_env_ref = [r._sched_env for r in reps]
        # KV-fit gate: a lane is fused only if the pool holds every live
        # sequence at its *final* size.  Usage during the drain is bounded by
        # sum(blocks(kv_now + remaining)) because each sequence's growth per
        # window is min(tokens, its own segment) <= its remaining tokens; the
        # exact growth scan then never preempts and appends never overflow.
        sched_base = np.zeros(K, dtype=np.int64)
        np.cumsum([r._sched_len for r in reps[:-1]], out=sched_base[1:])
        seg_pool = np.concatenate([r._sched_seg[: r._sched_len] for r in reps])
        csum = np.concatenate(([0], np.cumsum(seg_pool)))
        goff = self._soff + sched_base[srep]
        future = csum[goff + self._ntr] - csum[goff + self._trn + 1]
        final_blocks = -(-(self._kvt + self._seg + future) // self._c_bs[srep])
        need = np.bincount(srep, weights=final_blocks.astype(np.float64), minlength=K)
        fit = need <= total_blocks
        self._lane_ok = fit
        if not fit.all():
            keep = fit[srep]
            self._dec_i = self._dec_i[keep[self._dec_i]]
            self._env_i = self._env_i[keep[self._env_i]]
        for k, pos in enumerate(positions):
            if fit[k]:
                self._lane_k[pos] = k

    # ------------------------------------------------------------------ queries
    @property
    def num_fused(self) -> int:
        return int((self._lane_k >= 0).sum())

    def lane_is_fused(self, pos: int) -> bool:
        return bool(self._lane_k[pos] >= 0)

    def lane_live(self, pos: int) -> int:
        """Live sequences on the lane (stacked counter or engine state)."""
        k = int(self._lane_k[pos])
        if k < 0:
            return self.replicas[pos].num_sequences
        return int(self._live[k])

    # ------------------------------------------------------------------ kernels
    def _release_env(self, sel: np.ndarray) -> None:
        """Mirror of ``_release_env_returns`` across the selected lanes."""
        ei = self._env_i
        if not len(ei):
            return
        erep = self._rep[ei]
        due = sel[erep] & (self._envt[ei] <= self._clock[erep] + _EPS)
        if not due.any():
            return
        released = ei[due]
        self._envt[released] = math.inf
        merged = np.concatenate((self._dec_i, released))
        self._dec_i = merged[np.argsort(self._rep[merged], kind="stable")]
        self._env_i = ei[~due]

    def _dec_reductions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        K = self._K
        di = self._dec_i
        dcounts = np.bincount(self._rep[di], minlength=K)
        minseg = np.zeros(K, dtype=np.int64)
        ctxsum = np.zeros(K, dtype=np.int64)
        nz = np.flatnonzero(dcounts)
        if len(nz):
            starts = np.concatenate(([0], np.cumsum(dcounts)[:-1]))
            minseg[nz] = np.minimum.reduceat(self._seg[di], starts[nz])
            ctxsum[nz] = np.add.reduceat(self._prm[di] + self._gen[di], starts[nz])
        return dcounts, minseg, ctxsum

    def _env_reductions(self) -> Tuple[np.ndarray, np.ndarray]:
        K = self._K
        ei = self._env_i
        ecounts = np.bincount(self._rep[ei], minlength=K)
        emin = np.full(K, math.inf, dtype=np.float64)
        nz = np.flatnonzero(ecounts)
        if len(nz):
            starts = np.concatenate(([0], np.cumsum(ecounts)[:-1]))
            emin[nz] = np.minimum.reduceat(self._envt[ei], starts[nz])
        return ecounts, emin

    def _step_times(self, dcounts: np.ndarray, ctxsum: np.ndarray,
                    lanes: np.ndarray) -> np.ndarray:
        """Per-lane decode-step latency for ``lanes`` (all with dcounts > 0)."""
        mean_ctx = (ctxsum[lanes] / dcounts[lanes]).astype(np.int64)
        return decode_step_time_arrays(
            dcounts[lanes],
            np.maximum(1, mean_ctx),
            weight_bytes=self._c_wb[lanes],
            kv_bytes_per_token=self._c_kvb[lanes],
            effective_bandwidth=self._c_bw[lanes],
            effective_flops=self._c_fl[lanes],
            dense_flops=self._c_dense[lanes],
            attn_coef=self._c_attn[lanes],
            step_overhead=self._c_ovh[lanes],
        )

    # ------------------------------------------------------------------ API
    def next_event_in_many(self, positions: Sequence[int]) -> List[Optional[float]]:
        """Per-lane :meth:`ReplicaGenerationState.next_event_in`, one reduction."""
        if not self._K:
            replicas = self.replicas
            return [replicas[pos].next_event_in() for pos in positions]
        out: List[Optional[float]] = [None] * len(positions)
        if not positions:
            return out
        ks = self._lane_k[np.asarray(positions, dtype=np.int64)]
        ks_l = ks.tolist()
        fused = [i for i, k in enumerate(ks_l) if k >= 0]
        for i, k in enumerate(ks_l):
            if k < 0:
                out[i] = self.replicas[positions[i]].next_event_in()
        if not fused:
            return out
        sel = np.zeros(self._K, dtype=bool)
        sel[ks[ks >= 0]] = True
        self._release_env(sel)
        dcounts, minseg, ctxsum = self._dec_reductions()
        ecounts, emin = self._env_reductions()
        delta = np.full(self._K, math.inf, dtype=np.float64)
        dl = np.flatnonzero(sel & (dcounts > 0))
        if len(dl):
            step = self._step_times(dcounts, ctxsum, dl)
            delta[dl] = np.maximum(_EPS, minseg[dl] * step - self._carry[dl])
        el = sel & (ecounts > 0)
        if el.any():
            env_delta = np.maximum(_EPS, emin[el] - self._clock[el])
            delta[el] = np.minimum(delta[el], env_delta)
        for i in fused:
            out[i] = float(delta[ks_l[i]])
        return out

    def advance_many(self, positions: Sequence[int],
                     dts: Sequence[float]) -> List[List[Trajectory]]:
        """Grouped :meth:`ReplicaGenerationState.advance` across lanes.

        Fused lanes enter the sweep loop together and each exits when its own
        clock reaches its own target; fallback lanes are advanced through the
        engine directly.  Returns the trajectories completed per position.
        """
        if not self._K:
            replicas = self.replicas
            return [replicas[pos].advance(dt) for pos, dt in zip(positions, dts)]
        out: List[List[Trajectory]] = [[] for _ in positions]
        if not positions:
            return out
        ks = self._lane_k[np.asarray(positions, dtype=np.int64)]
        ks_l = ks.tolist()
        fused = [i for i, k in enumerate(ks_l) if k >= 0]
        for i, k in enumerate(ks_l):
            if k < 0:
                out[i] = self.replicas[positions[i]].advance(dts[i])
        if not fused:
            return out
        karr = ks[ks >= 0]
        dtv = np.array([dts[i] for i in fused], dtype=np.float64)
        if (dtv < 0).any():
            raise ValueError("dt must be non-negative")
        self._target[karr] = self._clock[karr] + dtv
        self._round_done = {int(k): [] for k in karr.tolist()}
        entered = np.zeros(self._K, dtype=bool)
        entered[karr] = True
        # Mirror the engine's loop guard: one zero-width pass is forced for
        # any positive window even when it is below the epsilon guard.
        forced = np.zeros(self._K, dtype=bool)
        forced[karr[dtv > 0.0]] = True
        active = entered & (forced | (self._clock < self._target - _EPS))
        while active.any():
            self._sweep(active)
            active = entered & (self._clock < self._target - _EPS)
        for i in fused:
            done = self._round_done[ks_l[i]]
            out[i] = done
            self._done_traj[ks_l[i]].extend(done)
        self._round_done = {}
        return out

    def _sweep(self, sel: np.ndarray) -> None:
        """One advance-loop iteration for every selected lane."""
        self._release_env(sel)
        dcounts, minseg, ctxsum = self._dec_reductions()
        ecounts, emin = self._env_reductions()
        nodec = sel & (dcounts == 0)
        if nodec.any():
            # Nothing to decode: jump to the next env return (or the target).
            has_env = nodec & (ecounts > 0)
            if has_env.any():
                next_clock = np.minimum(
                    self._target[has_env],
                    np.maximum(emin[has_env], self._clock[has_env]),
                )
                self._envb[has_env] += next_clock - self._clock[has_env]
                self._clock[has_env] = next_clock
            no_env = nodec & (ecounts == 0)
            if no_env.any():
                self._idle[no_env] += self._target[no_env] - self._clock[no_env]
                self._clock[no_env] = self._target[no_env]
        dl = np.flatnonzero(sel & (dcounts > 0))
        if not len(dl):
            return
        step = self._step_times(dcounts, ctxsum, dl)
        carry = self._carry[dl]
        time_to_segment = minseg[dl] * step - carry
        time_to_env = np.where(
            ecounts[dl] > 0, emin[dl] - self._clock[dl], math.inf
        )
        window = np.minimum(
            np.minimum(time_to_segment, time_to_env),
            self._target[dl] - self._clock[dl],
        )
        window = np.maximum(window, 0.0)
        tokens = np.floor((window + carry) / step + 1e-9).astype(np.int64)
        tokens = np.minimum(tokens, minseg[dl])
        self._carry[dl] = (window + carry) - tokens * step
        decoding = tokens > 0
        if decoding.any():
            tokens_k = np.zeros(self._K, dtype=np.int64)
            tokens_k[dl] = tokens
            self._apply_decode_fused(dl[decoding], tokens_k)
        self._busy[dl] += window
        self._clock[dl] += window
        degenerate = (window <= _EPS) & (tokens == 0)
        if degenerate.any():
            dg = dl[degenerate]
            new_clock = np.minimum(self._target[dg], self._clock[dg] + _EPS)
            self._busy[dg] += new_clock - self._clock[dg]
            self._clock[dg] = new_clock

    def _apply_decode_fused(self, lanes: np.ndarray, tokens_k: np.ndarray) -> None:
        """Mirror of ``_apply_decode`` across lanes (one clipped subtract)."""
        lane_mask = np.zeros(self._K, dtype=bool)
        lane_mask[lanes] = True
        di = self._dec_i
        dsel = lane_mask[self._rep[di]]
        idx = di[dsel]
        rep_e = self._rep[idx]
        seg = self._seg[idx]
        step_tokens = np.minimum(tokens_k[rep_e], seg)
        new_gen = np.minimum(self._tgt[idx], self._gen[idx] + step_tokens)
        self._gen[idx] = new_gen
        self._dnt[idx] += step_tokens
        new_seg = seg - step_tokens
        self._seg[idx] = new_seg
        wv_e = self._wv[rep_e]
        stale = self._lvr[idx] != wv_e
        if stale.any():
            sidx = idx[stale]
            for k, slot in zip(rep_e[stale].tolist(), self._slot[sidx].tolist()):
                version = int(self._wv[k])
                trajectory = self._k_replica[k]._a_traj[slot]
                if version not in trajectory.versions_used:
                    trajectory.versions_used.append(version)
            self._lvr[sidx] = wv_e[stale]
        block_size = self._c_bs[rep_e]
        old_blocks = -(-self._kvt[idx] // block_size)
        new_kvt = self._kvt[idx] + step_tokens
        self._kvt[idx] = new_kvt
        growth = (-(-new_kvt // block_size)) - old_blocks
        self._kv_used += np.bincount(
            rep_e, weights=growth.astype(np.float64), minlength=self._K
        ).astype(np.int64)
        np.maximum(self._kv_peak, self._kv_used, out=self._kv_peak)
        self._tokgen += np.bincount(
            rep_e, weights=step_tokens.astype(np.float64), minlength=self._K
        ).astype(np.int64)
        finished = new_seg == 0
        if finished.any():
            dec_pos = np.flatnonzero(dsel)
            self._finish_fused(idx[finished], dec_pos[finished], new_gen[finished])

    def _finish_fused(self, fidx: np.ndarray, fpos: np.ndarray,
                      fgen: np.ndarray) -> None:
        """Shared control tail for sequences whose segment just ended.

        Completion side effects (KV free order, completed order, env-set
        appends) land in ascending stacked position, matching the engine's
        batched finish path lane for lane.
        """
        idx_l = fidx.tolist()
        rep_l = self._rep[fidx].tolist()
        trn_l = self._trn[fidx].tolist()
        ntr_l = self._ntr[fidx].tolist()
        soff_l = self._soff[fidx].tolist()
        sid_l = self._sid[fidx].tolist()
        slot_l = self._slot[fidx].tolist()
        kvt_l = self._kvt[fidx].tolist()
        gen_l = fgen.tolist()
        pos_l = fpos.tolist()
        remove_pos: List[int] = []
        env_add: List[int] = []
        for i in range(len(idx_l)):
            k = rep_l[i]
            turn = trn_l[i]
            if turn + 1 == ntr_l[i]:
                replica = self._k_replica[k]
                self._kv_used[k] -= -(-kvt_l[i] // self._bs_l[k])
                self._freed_ids[k].append(sid_l[i])
                self._freed_slots[k].append(slot_l[i])
                self._admit_cleared[k] = True
                trajectory = replica._a_traj[slot_l[i]]
                trajectory.generated_tokens = gen_l[i]
                trajectory.turns_done = ntr_l[i]
                trajectory.finish_time = float(self._clock[k])
                trajectory.replica_id = replica.replica_id
                self._round_done[k].append(trajectory)
                self._ncomp[k] += 1
                self._live[k] -= 1
                remove_pos.append(pos_l[i])
            else:
                offset = soff_l[i]
                self._trn[idx_l[i]] = turn + 1
                self._dnt[idx_l[i]] = 0
                self._seg[idx_l[i]] = self._sched_seg_ref[k].item(offset + turn + 1)
                env_latency = self._sched_env_ref[k].item(offset + turn)
                if env_latency > 0:
                    self._envt[idx_l[i]] = self._clock[k] + env_latency
                    remove_pos.append(pos_l[i])
                    env_add.append(idx_l[i])
        if remove_pos:
            keep = np.ones(len(self._dec_i), dtype=bool)
            keep[remove_pos] = False
            self._dec_i = self._dec_i[keep]
        if env_add:
            merged = np.concatenate(
                (self._env_i, np.array(env_add, dtype=np.int64))
            )
            self._env_i = merged[np.argsort(self._rep[merged], kind="stable")]

    # ------------------------------------------------------------------ settle
    def settle(self) -> None:
        """Write the stacked state back into every fused engine.

        KV settlement telescopes: finished sequences are freed first (their
        appends were never applied to the ledger, so the free lands at the
        admission-time size), live growth is applied in one batched append,
        and the chronological block high-water mark tracked during the sweep
        is re-applied via :meth:`KVCache.note_peak`.
        """
        if self._settled or not self._K:
            self._settled = True
            return
        self._settled = True
        K = self._K
        di, ei = self._dec_i, self._env_i
        dcounts = np.bincount(self._rep[di], minlength=K)
        ecounts = np.bincount(self._rep[ei], minlength=K)
        dstarts = np.concatenate(([0], np.cumsum(dcounts)[:-1]))
        estarts = np.concatenate(([0], np.cumsum(ecounts)[:-1]))
        for k in np.flatnonzero(self._lane_ok).tolist():
            replica = self._k_replica[k]
            replica.clock = float(self._clock[k])
            replica._time_carry = float(self._carry[k])
            stats = replica.stats
            stats.decode_busy_time = float(self._busy[k])
            stats.idle_time = float(self._idle[k])
            stats.env_blocked_time = float(self._envb[k])
            stats.tokens_generated = int(self._tokgen[k])
            stats.trajectories_completed = int(self._ncomp[k])
            if self._admit_cleared[k]:
                replica._admit_blocked = False
            freed = self._freed_ids[k]
            if freed:
                replica.kvcache.free_many(freed)
                for sid in freed:
                    del replica._slots[sid]
                replica._free_slots.extend(self._freed_slots[k])
                for slot in self._freed_slots[k]:
                    replica._a_traj[slot] = None
            nd, ne = int(dcounts[k]), int(ecounts[k])
            dk = di[dstarts[k]:dstarts[k] + nd]
            ek = ei[estarts[k]:estarts[k] + ne]
            if nd or ne:
                live = np.concatenate((dk, ek))
                slots = self._slot[live]
                gen = self._gen[live]
                replica._a_seg_rem[slots] = self._seg[live]
                replica._a_gen[slots] = gen
                replica._a_ctx[slots] = self._prm[live] + gen
                replica._a_done_turn[slots] = self._dnt[live]
                replica._a_turn[slots] = self._trn[live]
                replica._a_env[slots] = self._envt[live]
                replica._a_last_ver[slots] = self._lvr[live]
                replica._a_status[slots[:nd]] = DECODING
                replica._a_status[slots[nd:]] = ENV_WAIT
                replica._dec.clear()
                replica._dec.extend(self._sid[dk], slots[:nd], self._row[dk])
                replica._env.clear()
                replica._env.extend(self._sid[ek], slots[nd:], self._row[ek])
                replica.kvcache.append_tokens_many(
                    self._sid[live], self._kvt[live] - self._kvt0[live],
                    rows=self._row[live],
                )
            else:
                replica._dec.clear()
                replica._env.clear()
            replica.kvcache.note_peak(int(self._kv_peak[k]))
            replica._completed.extend(self._done_traj[k])
            replica._drop_index()

