"""Test-only oracles: the simple shapes production is proven against.

Production (``src/repro``) has one stepping path per concern.  This module
keeps the slower, plainer shapes those paths must reproduce bit for bit:

* :class:`ScalarReplicaGenerationState` — the pre-vectorization decode engine
  (one sequence at a time, plain Python, one :class:`SequenceState` with a
  :class:`TurnSchedule` per trajectory), the oracle of
  :class:`repro.rollout.ReplicaGenerationState`; :func:`to_batch` and
  :func:`to_states` map its states to and from the production engine's
  :class:`~repro.rollout.SequenceBatch`;
* :class:`ScalarReplicaBatchView` — the per-replica router that *defines*
  what :class:`repro.rollout.ReplicaBatchView` computes;
* :func:`run_to_completion` — drive one replica until it has no work left;
* :func:`reference_sample_batch` and :func:`reference_make` — the per-prompt
  fabrication loop that :meth:`repro.workload.PromptDataset.sample_batch`
  and :meth:`repro.rollout.TrajectoryFactory.make` reproduce as columns, and
  :func:`reference_multi_turn_schedules` — the per-row schedule loop whose
  draws the factory keeps per row and whose arithmetic it runs on columns;
* :func:`per_row_redirect` — failover and machine drains adding migrated
  rows one at a time, the oracle of
  :meth:`repro.systems.RolloutManager.redirect`;
* one engine process per replica — :func:`drain_replica` and
  :func:`drain_replica_anchored` joined by :func:`process_generation_barrier`
  (an ``AllOf`` barrier), and one :func:`replica_driver` per continuous
  replica behind :class:`ProcessStepper` — the oracle of the fleet harness
  in :mod:`repro.runtime.harness`.  :func:`process_stepping` swaps them in
  for the duration of a ``with`` block.

``tests/test_engine_equivalence.py`` and ``tests/test_fleet_equivalence.py``
compare production against these with ``==``.  Any behavioural change to the
production engine or harness must land here too, or those suites fail.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

import repro.runtime.harness as harness
import repro.systems.base as base
from repro.llm.decode_model import DecodeModel
from repro.rollout.environment import TrajectoryFactory, difficulty_to_turns
from repro.rollout.generation import (
    _EPS,
    ReplicaGenerationState,
    ReplicaStats,
    SequenceBatch,
)
from repro.runtime.harness import (
    EventBox,
    GenerationOutcome,
    ReplicaFleet,
    _flush_decode_samples,
)
from repro.sim.engine import Environment, Interrupt, Process
from repro.sim.kvcache import KVCache, KVCacheConfig
from repro.types import Prompt, Trajectory
from repro.workload.datasets import PromptBatch, PromptDataset


# --------------------------------------------------------------------------- per-sequence state
@dataclass
class TurnSchedule:
    """Pre-sampled decode/environment schedule for one trajectory.

    ``segments[i]`` is the number of response tokens decoded in turn ``i``;
    ``env_latencies[i]`` is the environment latency paid *after* turn ``i``
    (zero after the final turn).  Single-turn tasks have one segment and no
    environment latency.
    """

    segments: List[int]
    env_latencies: List[float]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a turn schedule needs at least one segment")
        if len(self.env_latencies) != len(self.segments):
            raise ValueError("env_latencies must have one entry per segment")
        if any(s <= 0 for s in self.segments):
            raise ValueError("segments must be positive")
        if any(l < 0 for l in self.env_latencies):
            raise ValueError("env latencies must be non-negative")

    @property
    def total_tokens(self) -> int:
        return sum(self.segments)

    @property
    def num_turns(self) -> int:
        return len(self.segments)

    @classmethod
    def single_turn(cls, tokens: int) -> "TurnSchedule":
        return cls(segments=[int(tokens)], env_latencies=[0.0])


class SequenceStatus:
    QUEUED = "queued"
    DECODING = "decoding"
    ENV_WAIT = "env_wait"
    DONE = "done"


@dataclass
class SequenceState:
    """Runtime state of one trajectory on a replica."""

    trajectory: Trajectory
    schedule: TurnSchedule
    status: str = SequenceStatus.QUEUED
    turn_index: int = 0
    tokens_done_in_turn: int = 0
    env_return_time: float = math.inf
    #: True if this sequence arrived via repack/failover and its existing
    #: context must be re-prefilled before decoding resumes on this replica.
    needs_reprefill: bool = False

    @property
    def seq_id(self) -> int:
        return self.trajectory.traj_id

    @property
    def segment_remaining(self) -> int:
        return self.schedule.segments[self.turn_index] - self.tokens_done_in_turn

    @property
    def context_tokens(self) -> int:
        return self.trajectory.prompt.prompt_tokens + self.trajectory.generated_tokens


#: ``SequenceBatch.status`` codes, as the oracle's status names.
STATUS_NAMES = (SequenceStatus.QUEUED, SequenceStatus.DECODING, SequenceStatus.ENV_WAIT)


def to_batch(states: Sequence[SequenceState]) -> SequenceBatch:
    """The production engine's columns for ``states`` (trajectories shared)."""
    schedules = [state.schedule for state in states]
    offsets = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum([len(schedule.segments) for schedule in schedules], out=offsets[1:])

    def column(values, dtype):
        return np.array(list(values), dtype=dtype)

    return SequenceBatch(
        ids=column((s.seq_id for s in states), np.int64),
        prompt_tokens=column((s.trajectory.prompt.prompt_tokens for s in states), np.int64),
        target=column((s.trajectory.target_tokens for s in states), np.int64),
        generated=column((s.trajectory.generated_tokens for s in states), np.int64),
        turn=column((s.turn_index for s in states), np.int64),
        done_turn=column((s.tokens_done_in_turn for s in states), np.int64),
        env_return=column((s.env_return_time for s in states), np.float64),
        reprefill=column((s.needs_reprefill for s in states), bool),
        status=column((STATUS_NAMES.index(s.status) for s in states), np.int8),
        offsets=offsets,
        segments=column((x for sch in schedules for x in sch.segments), np.int64),
        env_latencies=column((x for sch in schedules for x in sch.env_latencies), np.float64),
        trajectories=[state.trajectory for state in states],
    )


def to_states(batch: SequenceBatch) -> List[SequenceState]:
    """One oracle state per row of ``batch``.

    A state keeps its progress on its trajectory, which the production
    engine writes only at completion; each state therefore gets a copy of
    its row's trajectory carrying the row's generated tokens and turns done
    (its ``versions_used`` list is the production one, not a copy).
    """
    states = []
    for row, trajectory in enumerate(batch.trajectories):
        lo, hi = int(batch.offsets[row]), int(batch.offsets[row + 1])
        turn = int(batch.turn[row])
        states.append(SequenceState(
            trajectory=dataclasses.replace(
                trajectory, generated_tokens=int(batch.generated[row]), turns_done=turn,
            ),
            schedule=TurnSchedule(
                segments=batch.segments[lo:hi].tolist(),
                env_latencies=batch.env_latencies[lo:hi].tolist(),
            ),
            status=STATUS_NAMES[batch.status[row]],
            turn_index=turn,
            tokens_done_in_turn=int(batch.done_turn[row]),
            env_return_time=float(batch.env_return[row]),
            needs_reprefill=bool(batch.reprefill[row]),
        ))
    return states


# --------------------------------------------------------------------------- fabrication
def reference_sample_batch(dataset: PromptDataset, num_prompts: int,
                           rng: np.random.Generator) -> List[Prompt]:
    """Per-prompt loop equal to ``dataset.sample_batch`` (one object per row)."""
    if num_prompts <= 0:
        raise ValueError("num_prompts must be positive")
    indices = rng.integers(0, dataset.num_questions, num_prompts)
    prompts: List[Prompt] = []
    for index in indices:
        group_id = dataset._next_group_id
        dataset._next_group_id += 1
        for _ in range(dataset.task.group_size):
            prompts.append(
                Prompt(
                    prompt_id=dataset._next_prompt_id,
                    group_id=group_id,
                    prompt_tokens=int(dataset._prompt_lengths[index]),
                    difficulty=float(dataset._difficulties[index]),
                    multi_turn=dataset.task.multi_turn,
                    max_turns=dataset.task.max_turns,
                )
            )
            dataset._next_prompt_id += 1
    return prompts


def reference_make(factory: TrajectoryFactory, prompts: Sequence[Prompt],
                   weight_version: int = 0, start_time: float = 0.0) -> List[SequenceState]:
    """Per-prompt loop equal to ``factory.make`` (one state per prompt)."""
    if not prompts:
        return []
    rng = factory._rng
    task = factory.task
    difficulties = [p.difficulty for p in prompts]
    lengths = task.length_dist.sample(rng, len(prompts), difficulty=difficulties)
    states: List[SequenceState] = []
    for prompt, total_tokens in zip(prompts, lengths):
        total_tokens = max(int(total_tokens), 1)
        if not prompt.multi_turn or prompt.max_turns <= 1:
            schedule = TurnSchedule.single_turn(total_tokens)
        else:
            max_turns = prompt.max_turns
            mean_turns = 1.0 + difficulty_to_turns(prompt.difficulty, max_turns)
            num_turns = int(np.clip(rng.poisson(mean_turns) + 1, 1, max_turns))
            shares = rng.dirichlet(np.full(num_turns, 1.5))
            segments = np.maximum(1, np.round(shares * total_tokens)).astype(int)
            latencies = task.env_latency.sample(rng, num_turns)
            latencies[-1] = 0.0
            schedule = TurnSchedule(segments=list(segments), env_latencies=list(latencies))
        trajectory = Trajectory(
            traj_id=factory._next_traj_id,
            prompt=prompt,
            target_tokens=schedule.total_tokens,
            weight_version=weight_version,
            start_time=start_time,
        )
        factory._next_traj_id += 1
        states.append(SequenceState(trajectory=trajectory, schedule=schedule))
    return states


def reference_multi_turn_schedules(factory: TrajectoryFactory, prompts: PromptBatch,
                                   lengths: np.ndarray
                                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row multi-turn fabrication equal to ``factory._multi_turn_schedules``.

    Every row computes its turn count, token split and latencies from its own
    draws; production keeps only the draws in its row loop.
    """
    rng = factory._rng
    max_turns = prompts.max_turns
    segments: List[np.ndarray] = []
    latencies: List[np.ndarray] = []
    for difficulty, total_tokens in zip(prompts.difficulty.tolist(), lengths.tolist()):
        # Number of tool calls grows with difficulty (harder bugs need more
        # debugging steps), capped at the task's turn budget.
        mean_turns = 1.0 + difficulty_to_turns(difficulty, max_turns)
        num_turns = int(np.clip(rng.poisson(mean_turns) + 1, 1, max_turns))
        # Split the response tokens across turns with a Dirichlet draw so
        # turn lengths are uneven (early exploration short, final answer
        # longer).
        shares = rng.dirichlet(np.full(num_turns, 1.5))
        segments.append(np.maximum(1, np.round(shares * total_tokens)).astype(np.int64))
        # Environment latency after every turn except the last one.
        turn_latencies = factory.task.env_latency.sample(rng, num_turns)
        turn_latencies[-1] = 0.0
        latencies.append(turn_latencies)
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in segments], out=offsets[1:])
    return offsets, np.concatenate(segments), np.concatenate(latencies)


# --------------------------------------------------------------------------- engine
class ScalarReplicaGenerationState:
    """Per-sequence (scalar) decode engine — the vector engine's oracle.

    It shares ``ReplicaStats`` with the production engine; its sequences are
    :class:`SequenceState` objects, converted to and from the production
    engine's batches by :func:`to_batch` / :func:`to_states`.
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
        self._sequences: Dict[int, SequenceState] = {}
        self._queued: List[int] = []
        self._decoding: List[int] = []
        self._env_wait: List[int] = []
        self._completed: List[Trajectory] = []
        self._time_carry = 0.0
        # Straggler multipliers (repro.faults); 1.0 keeps the nominal path.
        self._decode_slowdown = 1.0
        self._env_slowdown = 1.0
        self._mutation = 0
        self._step_cache: Tuple[int, float] = (-1, 0.0)
        self.prev_utilization = 0.0

    # ------------------------------------------------------------------ intake
    def add_sequences(self, sequences: Sequence[SequenceState]) -> None:
        for seq in sequences:
            if seq.seq_id in self._sequences:
                raise ValueError(f"sequence {seq.seq_id} already on replica {self.replica_id}")
            seq.status = SequenceStatus.QUEUED
            self._sequences[seq.seq_id] = seq
            self._queued.append(seq.seq_id)
        self._try_admit()

    def remove_sequences(self, seq_ids: Sequence[int]) -> List[SequenceState]:
        removed: List[SequenceState] = []
        for seq_id in seq_ids:
            seq = self._sequences.pop(seq_id, None)
            if seq is None:
                continue
            for bucket in (self._queued, self._decoding, self._env_wait):
                if seq_id in bucket:
                    bucket.remove(seq_id)
            if seq.status in (SequenceStatus.DECODING, SequenceStatus.ENV_WAIT):
                self.kvcache.free(seq_id)
            removed.append(seq)
        if removed:
            self._mutation += 1
        self._try_admit()
        return removed

    def remove_all(self) -> List[SequenceState]:
        return self.remove_sequences(list(self._sequences.keys()))

    # ------------------------------------------------------------------ queries
    @property
    def num_sequences(self) -> int:
        return len(self._sequences)

    @property
    def num_decoding(self) -> int:
        return len(self._decoding)

    @property
    def num_queued(self) -> int:
        return len(self._queued)

    @property
    def num_env_waiting(self) -> int:
        return len(self._env_wait)

    @property
    def kvcache_utilization(self) -> float:
        return self.kvcache.utilization

    @property
    def is_idle(self) -> bool:
        return not self._sequences

    def drain_completed(self) -> List[Trajectory]:
        completed, self._completed = self._completed, []
        return completed

    def sequences(self) -> List[SequenceState]:
        return list(self._sequences.values())

    def mean_context_tokens(self) -> float:
        if not self._decoding:
            return 0.0
        total = sum(self._sequences[sid].context_tokens for sid in self._decoding)
        return total / len(self._decoding)

    def current_step_time(self) -> float:
        if not self._decoding:
            return 0.0
        version, value = self._step_cache
        if version == self._mutation:
            return value
        value = self.decode_model.decode_step_time(
            len(self._decoding), int(self.mean_context_tokens())
        )
        if self._decode_slowdown != 1.0:
            value *= self._decode_slowdown
        self._step_cache = (self._mutation, value)
        return value

    def observe_utilization(self) -> float:
        util = self.kvcache_utilization
        self.prev_utilization = util
        return util

    # ------------------------------------------------------------------ scheduling
    admission_lookahead_tokens: int = 256

    def _try_admit(self) -> None:
        admitted_any = True
        while admitted_any and self._queued:
            admitted_any = False
            if len(self._decoding) + len(self._env_wait) >= self.max_concurrency:
                return
            seq_id = self._queued[0]
            seq = self._sequences[seq_id]
            needed = seq.context_tokens + self.admission_lookahead_tokens
            if not self.kvcache.can_allocate(needed):
                return
            self._queued.pop(0)
            self.kvcache.allocate(seq_id, seq.context_tokens + 1)
            seq.status = SequenceStatus.DECODING
            self._decoding.append(seq_id)
            if seq.needs_reprefill:
                self.stats.reprefill_tokens += seq.context_tokens
                seq.needs_reprefill = False
            else:
                self.stats.prompt_tokens_prefilled += seq.trajectory.prompt.prompt_tokens
            admitted_any = True
            self._mutation += 1

    def _preempt_one(self) -> bool:
        if len(self._decoding) <= 1:
            return False
        seq_id = self._decoding.pop()
        seq = self._sequences[seq_id]
        self.kvcache.free(seq_id)
        seq.status = SequenceStatus.QUEUED
        seq.needs_reprefill = True
        self._queued.insert(0, seq_id)
        self.stats.preemptions += 1
        self._mutation += 1
        return True

    def _ensure_growth_capacity(self, tokens: int) -> None:
        upper_bound = len(self._decoding) * (self.kvcache.blocks_for(tokens) + 1)
        if upper_bound <= self.kvcache.free_blocks:
            return
        while True:
            needed_blocks = 0
            for seq_id in self._decoding:
                current = self.kvcache.sequence_tokens(seq_id)
                needed_blocks += (
                    self.kvcache.blocks_for(current + tokens) - self.kvcache.blocks_for(current)
                )
            if needed_blocks <= self.kvcache.free_blocks:
                return
            if not self._preempt_one():
                return

    def _release_env_returns(self) -> None:
        returned = [sid for sid in self._env_wait
                    if self._sequences[sid].env_return_time <= self.clock + _EPS]
        for seq_id in returned:
            self._env_wait.remove(seq_id)
            seq = self._sequences[seq_id]
            seq.status = SequenceStatus.DECODING
            seq.env_return_time = math.inf
            self._decoding.append(seq_id)
        if returned:
            self._mutation += 1

    def next_event_in(self) -> Optional[float]:
        if not self._sequences:
            return None
        self._release_env_returns()
        self._try_admit()
        candidates: List[float] = []
        if self._decoding:
            step = self.current_step_time()
            min_seg = min(self._sequences[sid].segment_remaining for sid in self._decoding)
            candidates.append(max(_EPS, min_seg * step - self._time_carry))
        if self._env_wait:
            earliest = min(self._sequences[sid].env_return_time for sid in self._env_wait)
            candidates.append(max(_EPS, earliest - self.clock))
        if not candidates:
            return None
        return min(candidates)

    def advance(self, dt: float) -> List[Trajectory]:
        if dt < 0:
            raise ValueError("dt must be non-negative")
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
            self._release_env_returns()
            self._try_admit()
            if not self._decoding:
                if self._env_wait:
                    earliest = min(self._sequences[sid].env_return_time for sid in self._env_wait)
                    next_clock = min(target, max(earliest, self.clock))
                else:
                    next_clock = target
                blocked = next_clock - self.clock
                if self._env_wait:
                    self.stats.env_blocked_time += blocked
                else:
                    self.stats.idle_time += blocked
                self.clock = next_clock
                continue

            step = self.current_step_time()
            min_seg = min(self._sequences[sid].segment_remaining for sid in self._decoding)
            time_to_segment = min_seg * step - self._time_carry
            time_to_env = math.inf
            if self._env_wait:
                time_to_env = min(self._sequences[sid].env_return_time for sid in self._env_wait) - self.clock
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
                # Degenerate-window escape; charge the epsilon slip to the
                # decode-busy bucket (mirrors the vector engine's accounting).
                new_clock = min(target, self.clock + _EPS)
                self.stats.decode_busy_time += new_clock - self.clock
                self.clock = new_clock
        self._completed.extend(completed_now)
        return completed_now

    def _apply_decode(self, tokens: int, completed_now: List[Trajectory]) -> None:
        self._mutation += 1
        self._ensure_growth_capacity(tokens)
        finished_segment: List[int] = []
        for seq_id in list(self._decoding):
            seq = self._sequences[seq_id]
            step_tokens = min(tokens, seq.segment_remaining)
            seq.tokens_done_in_turn += step_tokens
            seq.trajectory.advance(step_tokens, self.weight_version)
            self.kvcache.append_tokens(seq_id, step_tokens)
            self.stats.tokens_generated += step_tokens
            if seq.segment_remaining == 0:
                finished_segment.append(seq_id)
        for seq_id in finished_segment:
            seq = self._sequences[seq_id]
            env_latency = seq.schedule.env_latencies[seq.turn_index]
            if self._env_slowdown != 1.0:
                env_latency = env_latency * self._env_slowdown
            last_turn = seq.turn_index == seq.schedule.num_turns - 1
            if last_turn:
                self._decoding.remove(seq_id)
                self.kvcache.free(seq_id)
                del self._sequences[seq_id]
                seq.status = SequenceStatus.DONE
                seq.trajectory.finish_time = self.clock
                seq.trajectory.replica_id = self.replica_id
                seq.trajectory.turns_done = seq.schedule.num_turns
                completed_now.append(seq.trajectory)
                self.stats.trajectories_completed += 1
            else:
                seq.turn_index += 1
                seq.tokens_done_in_turn = 0
                seq.trajectory.turns_done = seq.turn_index
                if env_latency > 0:
                    self._decoding.remove(seq_id)
                    seq.status = SequenceStatus.ENV_WAIT
                    seq.env_return_time = self.clock + env_latency
                    self._env_wait.append(seq_id)
        self._try_admit()

    def inject_stall(self, duration: float, *, busy: bool = True) -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.clock += duration
        if busy:
            self.stats.decode_busy_time += duration
        else:
            self.stats.idle_time += duration

    def reprefill_all_inflight(self) -> float:
        inflight = [self._sequences[sid] for sid in self._decoding + self._env_wait]
        total_context = sum(seq.context_tokens for seq in inflight)
        if total_context == 0:
            return 0.0
        stall = sum(
            self.decode_model.prefill_time(seq.context_tokens, batch_size=1)
            for seq in inflight
        )
        self.stats.reprefill_tokens += total_context
        for seq in inflight:
            seq.trajectory.reprefill_count += 1
        self.inject_stall(stall, busy=True)
        return stall

    def set_weight_version(self, version: int) -> None:
        if version < self.weight_version:
            raise ValueError("weight version cannot go backwards")
        self.weight_version = version

    @property
    def decode_slowdown(self) -> float:
        return self._decode_slowdown

    @property
    def env_slowdown(self) -> float:
        return self._env_slowdown

    @property
    def is_straggling(self) -> bool:
        return self._decode_slowdown != 1.0 or self._env_slowdown != 1.0

    def set_slowdown(self, decode: Optional[float] = None,
                     env: Optional[float] = None) -> None:
        changed = False
        if decode is not None and decode != self._decode_slowdown:
            if decode <= 0:
                raise ValueError("decode slowdown must be positive")
            # Mirror of the vector engine: the time-unit carry rescales with
            # the step time so fractional token progress is preserved.
            self._time_carry *= decode / self._decode_slowdown
            self._decode_slowdown = decode
            changed = True
        if env is not None and env != self._env_slowdown:
            if env <= 0:
                raise ValueError("env slowdown must be positive")
            self._env_slowdown = env
            changed = True
        if changed:
            self._mutation += 1


class ScalarReplicaBatchView:
    """Scalar oracle for :class:`repro.rollout.ReplicaBatchView`.

    Grouped stepping is defined as a pure performance transform: servicing a
    set of mutually independent replicas together must be observationally
    identical to servicing them one at a time in lane order.  This mirror
    *is* that definition — every batch call routes to the underlying engine,
    replica by replica — so the equivalence fuzzer can drive the fused SoA
    view and this one through identical call sequences and assert bit-equal
    outcomes on both engine families.
    """

    def __init__(self, replicas: Sequence[ScalarReplicaGenerationState]) -> None:
        self.replicas = list(replicas)

    @property
    def num_fused(self) -> int:
        return 0

    def lane_is_fused(self, pos: int) -> bool:
        return False

    def lane_live(self, pos: int) -> int:
        return self.replicas[pos].num_sequences

    def next_event_in_many(self, positions: Sequence[int]) -> List[Optional[float]]:
        return [self.replicas[pos].next_event_in() for pos in positions]

    def advance_many(self, positions: Sequence[int],
                     dts: Sequence[float]) -> List[List[Trajectory]]:
        return [
            self.replicas[pos].advance(dt) for pos, dt in zip(positions, dts)
        ]

    def settle(self) -> None:
        """No-op: the oracle never detaches state from its engines."""


def run_to_completion(replica) -> Tuple[float, List[Trajectory]]:
    """Drive ``replica`` (either engine) until every sequence finishes.

    Returns ``(elapsed local time, completed trajectories)``, deduplicated by
    id because ``drain_completed`` repeats what ``advance`` returned.
    """
    start = replica.clock
    completed: List[Trajectory] = []
    while replica.num_sequences:
        delta = replica.next_event_in()
        if delta is None:
            break
        completed.extend(replica.advance(delta))
    completed.extend(replica.drain_completed())
    unique: Dict[int, Trajectory] = {t.traj_id: t for t in completed}
    return replica.clock - start, list(unique.values())


# --------------------------------------------------------------------------- barrier
def drain_replica(env: Environment, replica: ReplicaGenerationState) -> Generator:
    """Process body: drive ``replica`` until it has no work left.

    Returns ``(elapsed_local_time, completed_trajectories)`` exactly like
    :func:`run_to_completion`, sleeping a relative timeout per event; a
    replica stuck behind an inadmissible queue raises, as production does.
    """
    start = replica.clock
    tracer = env.tracer
    drain_begin = env.now
    if tracer.enabled:
        replica.enable_trace_sampling()
    completed: List[Trajectory] = []
    while replica.num_sequences:
        delta = replica.next_event_in()
        if delta is None:
            raise replica.stuck_error()
        yield env.timeout(delta)
        completed.extend(replica.advance(delta))
    completed.extend(replica.drain_completed())
    unique: Dict[int, Trajectory] = {t.traj_id: t for t in completed}
    if tracer.enabled:
        tracer.span(f"replica-{replica.replica_id}", "generate",
                    drain_begin, env.now,
                    args={"trajectories": len(unique),
                          "tokens": replica.stats.tokens_generated})
        _flush_decode_samples(tracer, replica, offset=drain_begin - start)
    return replica.clock - start, list(unique.values())


def drain_replica_anchored(env: Environment, replica: ReplicaGenerationState,
                           origin: float) -> Generator:
    """Anchored variant of :func:`drain_replica`: every wake-up lands at
    ``origin + clock`` exactly (``timeout_until``)."""
    start = replica.clock
    tracer = env.tracer
    if tracer.enabled:
        replica.enable_trace_sampling()
    completed: List[Trajectory] = []
    while replica.num_sequences:
        delta = replica.next_event_in()
        if delta is None:
            raise replica.stuck_error()
        completed.extend(replica.advance(delta))
        yield env.timeout_until(origin + replica.clock)
    completed.extend(replica.drain_completed())
    unique: Dict[int, Trajectory] = {t.traj_id: t for t in completed}
    if tracer.enabled:
        tracer.span(f"replica-{replica.replica_id}", "generate",
                    origin + start, origin + replica.clock,
                    args={"trajectories": len(unique),
                          "tokens": replica.stats.tokens_generated})
        _flush_decode_samples(tracer, replica, offset=origin)
    return replica.clock - start, list(unique.values())


def process_generation_barrier(
    env: Environment,
    replicas: Sequence[ReplicaGenerationState],
    origin: Optional[float] = None,
) -> Generator:
    """Oracle of :func:`repro.runtime.harness.generation_barrier`: one drain
    process per replica behind an ``AllOf`` join."""
    processes = [
        env.process(
            drain_replica(env, replica) if origin is None
            else drain_replica_anchored(env, replica, origin),
            name=f"drain-{replica.replica_id}",
        )
        for replica in replicas
    ]
    if processes:
        yield env.all_of(processes)
    per_replica_time: List[float] = []
    trajectories: List[Trajectory] = []
    tokens = 0
    for process, replica in zip(processes, replicas):
        duration, completed = process.value
        per_replica_time.append(duration)
        trajectories.extend(completed)
        tokens += replica.stats.tokens_generated
    return GenerationOutcome(
        duration=max(per_replica_time) if per_replica_time else 0.0,
        trajectories=trajectories,
        per_replica_time=per_replica_time,
        tokens_generated=tokens,
    )


# --------------------------------------------------------------------------- continuous
def replica_driver(env: Environment, replica_id: int, fleet: ReplicaFleet,
                   refill: EventBox) -> Generator:
    """Process body: event-driven driver for one continuously-fed replica.

    The driver keeps ``replica.clock == env.now`` whenever the replica is
    actively decoding; a weight-pull or re-prefill stall may push the local
    clock *ahead* of simulated time, in which case the driver sleeps until
    the stall has elapsed.  Interrupts mean "something changed, recompute";
    ``refill`` wakes a driver parked for lack of work.
    """
    tracer = env.tracer
    if tracer.enabled:
        seeded = fleet.replica(replica_id)
        if seeded is not None:
            seeded.enable_trace_sampling()
    while True:
        replica = fleet.replica(replica_id)
        if replica is None:
            return  # replica retired (machine failure)
        behind = env.now - replica.clock
        if behind > _EPS:
            # An external actor let simulated time pass (or this driver was
            # interrupted mid-sleep): consume the elapsed window first.
            fleet.on_advance(replica, replica.advance(behind))
            if tracer.enabled:
                _flush_decode_samples(tracer, replica)
            continue
        if replica.is_idle:
            fleet.refill(replica)
            if replica.is_idle:
                try:
                    yield refill.wait()
                except Interrupt:
                    pass
                continue
        ahead = max(0.0, replica.clock - env.now)
        delta = replica.next_event_in()
        if delta is None:
            if ahead <= _EPS:
                # Sequences exist but none can run (queued behind a full
                # KVCache with no decoder live): wait for outside help.
                try:
                    yield refill.wait()
                except Interrupt:
                    pass
                continue
            wait = ahead  # stalled: let the stall elapse, then re-evaluate
        else:
            wait = ahead + delta
        try:
            yield env.timeout(wait)
        except Interrupt:
            continue
        behind = env.now - replica.clock
        if behind > _EPS:
            fleet.on_advance(replica, replica.advance(behind))
            if tracer.enabled:
                _flush_decode_samples(tracer, replica)


class ProcessStepper:
    """Oracle of :class:`repro.runtime.harness.FleetStepper`: one
    :func:`replica_driver` process per member, behind the same four calls
    :class:`~repro.runtime.harness.ReplicaFleet` makes on its stepper."""

    def __init__(self, env: Environment, fleet: ReplicaFleet) -> None:
        self.env = env
        self.fleet = fleet
        self._drivers: Dict[int, Process] = {}
        self._refill = EventBox(env)

    def spawn(self, replica_id: int) -> Process:
        process = self.env.process(
            replica_driver(self.env, replica_id, self.fleet, self._refill),
            name=f"replica-{replica_id}",
        )
        self._drivers[replica_id] = process
        return process

    def live_ids(self) -> List[int]:
        """Every spawned member; ``touch`` skips drivers that have returned."""
        return list(self._drivers)

    def touch(self, replica_ids: Sequence[int]) -> None:
        for replica_id in replica_ids:
            process = self._drivers.get(replica_id)
            if (process is not None and process.is_alive
                    and process is not self.env.active_process):
                process.interrupt()

    def notify_refill(self) -> None:
        self._refill.notify()


@contextmanager
def process_stepping():
    """Step every replica with its own engine process inside the block.

    Patches the barrier every system generates through
    (``repro.systems.base.generation_barrier``) and the stepper class
    ``ReplicaFleet.spawn`` builds (``repro.runtime.harness.FleetStepper``),
    and restores both on exit.
    """
    saved = base.generation_barrier, harness.FleetStepper
    base.generation_barrier = process_generation_barrier
    harness.FleetStepper = ProcessStepper
    try:
        yield
    finally:
        base.generation_barrier, harness.FleetStepper = saved


# --------------------------------------------------------------------------- migrations
def per_row_redirect(healthy: List[ReplicaGenerationState], batch: SequenceBatch,
                     partial_pool) -> None:
    """Oracle of :meth:`repro.systems.RolloutManager.redirect`: each row, in
    batch order, goes to the replica with the fewest sequences among those
    holding the weight version it started under (or among all of
    ``healthy`` when none does), first in ``healthy`` order on ties, and is
    added on its own before the next row is placed."""
    for row, trajectory in enumerate(batch.trajectories):
        version = min(trajectory.versions_used)
        pool = [r for r in healthy if r.weight_version == version] or healthy
        target = min(pool, key=lambda r: r.num_sequences)
        target.add_sequences(batch[row:row + 1])
        if partial_pool is not None and trajectory.traj_id in partial_pool:
            partial_pool.migrate(trajectory.traj_id, target.replica_id)

