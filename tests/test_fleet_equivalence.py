"""Fleet stepping vs one engine process per replica: the stepping gate.

Production (:mod:`repro.runtime.harness`) steps every replica of a scenario
from one engine process.  Its contract is bit-identity with the per-replica
process shapes kept in ``tests/oracles.py``: every replica must observe the
identical sequence of ``next_event_in`` / ``advance`` calls at the identical
simulated instants, so clocks, stats, trajectories (with their finish times
and order) and KVCache occupancy must match *exactly* — no tolerances.  The
oracle comes in by patching (:func:`oracles.process_stepping`), so every
comparison also checks which processes each side started: if the patch
missed, both sides would be production and every ``==`` would pass.

The fuzz surface deliberately includes the hard cases: tiny KV pools that
force queueing and preemption storms, multi-turn env waits, repack pulls
mid-window (Laminar), machine/relay/trainer failures mid-window (the fault
drill), the adversarial :mod:`repro.faults` schedules (correlated waves,
spot preemptions, stragglers, degraded networks), the anchored barrier
whose completions stream generation folds its mini-batch schedule over, and
synthetic fleets whose replicas wake at exactly tied float instants.
"""

import math
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import replace

import numpy as np
import pytest

import repro.runtime.harness as harness
import repro.systems.base as base
from oracles import SequenceState, TurnSchedule, process_stepping, to_batch
from repro.bench.registry import get_scenario
from repro.bench.runner import system_for_unit
from repro.experiments import make_system_config
from repro.faults import FailurePlan
from repro.llm import QWEN_7B
from repro.obs import TraceRecorder, use_tracer
from repro.rollout import ReplicaBatchView, ReplicaGenerationState, RolloutReplicaConfig
from repro.rollout.generation import _FUSE_MIN_LANES
from repro.runtime import FleetState, ReplicaFleet
from repro.sim import Environment, KVCacheConfig
from repro.systems import FailureEvent, FailureInjector, FailureKind, LaminarSystem, make_system
from repro.types import Prompt, Trajectory

DECODE_MODEL = RolloutReplicaConfig(QWEN_7B, tensor_parallel=1).decode_model()

#: Name prefixes of the oracle's per-replica processes (drains and drivers).
PER_REPLICA = ("drain-", "replica-")


@contextmanager
def stepping(mode: str):
    """``"process"`` runs the oracle, ``"fleet"`` production.  Yields the
    names of every process started inside the block, and checks on exit that
    production's barrier and stepper are back in place."""
    production = base.generation_barrier, harness.FleetStepper
    names = []
    original = Environment.process

    def process(self, generator, name=""):
        names.append(name)
        return original(self, generator, name=name)

    Environment.process = process
    try:
        with process_stepping() if mode == "process" else nullcontext():
            yield names
    finally:
        Environment.process = original
    assert base.generation_barrier is production[0]
    assert harness.FleetStepper is production[1]


def both(run, *args, **kwargs):
    """``run(mode, ...)`` under the oracle and under production.

    Returns ``(oracle observation, production observation)`` after checking
    that the oracle side started per-replica processes and production did not.
    """
    reference, oracle_names = run("process", *args, **kwargs)
    fleet, fleet_names = run("fleet", *args, **kwargs)
    assert [n for n in oracle_names if n.startswith(PER_REPLICA)]
    assert not [n for n in fleet_names if n.startswith(PER_REPLICA)]
    return reference, fleet


# --------------------------------------------------------------------------- barrier fuzz
def make_replicas(seed: int, num_replicas: int, per_replica: int,
                  blocks: int, max_concurrency: int):
    """Seeded random multi-turn workload spread over small-KV replicas."""
    rng = np.random.default_rng(seed)
    replicas = []
    next_id = 0
    for replica_id in range(num_replicas):
        replica = ReplicaGenerationState(
            replica_id=replica_id,
            decode_model=DECODE_MODEL,
            kvcache_config=KVCacheConfig(total_blocks=blocks),
            max_concurrency=max_concurrency,
        )
        states = []
        for _ in range(per_replica):
            num_turns = int(rng.integers(1, 4))
            segments = [int(rng.integers(5, 120)) for _ in range(num_turns)]
            env_latencies = [float(rng.uniform(0.5, 10.0)) for _ in range(num_turns - 1)]
            env_latencies.append(0.0)
            prompt = Prompt(prompt_id=next_id, group_id=0,
                            prompt_tokens=int(rng.integers(16, 64)))
            trajectory = Trajectory(traj_id=next_id, prompt=prompt,
                                    target_tokens=sum(segments))
            states.append(SequenceState(
                trajectory=trajectory,
                schedule=TurnSchedule(segments=segments, env_latencies=env_latencies),
            ))
            next_id += 1
        replica.add_sequences(to_batch(states))
        replicas.append(replica)
    return replicas


def run_barrier(mode: str, seed: int, barrier_shape: str, num_replicas: int = 4,
                per_replica: int = 10, blocks: int = 96):
    """One barrier generation under a stepping mode; returns everything observable."""
    with stepping(mode) as names:
        env = Environment()
        replicas = make_replicas(seed, num_replicas=num_replicas,
                                 per_replica=per_replica, blocks=blocks,
                                 max_concurrency=8)

        def body():
            origin = None if barrier_shape == "plain" else env.now
            outcome = yield from base.generation_barrier(env, replicas, origin)
            return outcome

        process = env.process(body(), name="barrier")
        outcome = env.run(until=process)
    return {
        "now": env.now,
        "duration": outcome.duration,
        "per_replica_time": outcome.per_replica_time,
        "tokens": outcome.tokens_generated,
        "bubble": outcome.bubble_time,
        "trajectories": [(t.traj_id, t.finish_time, t.replica_id, t.turns_done)
                         for t in outcome.trajectories],
        "clocks": [r.clock for r in replicas],
        "stats": [r.stats for r in replicas],
        "kv": [(r.kvcache.used_blocks, r.kvcache.peak_blocks) for r in replicas],
    }, names


@pytest.mark.parametrize("barrier_shape", ["plain", "anchored"])
@pytest.mark.parametrize("seed", range(6))
def test_barrier_fuzz_bit_identity(seed, barrier_shape):
    reference, fleet = both(run_barrier, seed, barrier_shape)
    assert fleet == reference


def record_views(monkeypatch):
    """``(lanes, fused lanes)`` of every :class:`ReplicaBatchView` built
    from here on, in construction order."""
    views = []
    original = ReplicaBatchView.__init__

    def recording_init(self, replicas):
        original(self, replicas)
        views.append((len(self.replicas), self.num_fused))

    monkeypatch.setattr(ReplicaBatchView, "__init__", recording_init)
    return views


@pytest.mark.parametrize("barrier_shape", ["plain", "anchored"])
@pytest.mark.parametrize("seed", range(3))
def test_wide_barrier_fuzz_bit_identity(monkeypatch, seed, barrier_shape):
    """A barrier wide enough to fuse: most lanes fuse, while lanes whose KV
    pool fails the fit gate step through their own engines beside them."""
    views = record_views(monkeypatch)
    reference, fleet = both(run_barrier, seed, barrier_shape,
                            num_replicas=24, per_replica=6, blocks=76)
    assert fleet == reference
    [(lanes, fused)] = views
    assert 0 < fused < lanes == 24


def test_barrier_empty_fleet_matches():
    for mode in ("process", "fleet"):
        with stepping(mode):
            env = Environment()

            def body():
                outcome = yield from base.generation_barrier(env, [])
                return outcome

            outcome = env.run(until=env.process(body()))
            assert outcome.duration == 0.0 and outcome.trajectories == []
            assert env.now == 0.0


# --------------------------------------------------------------------------- system fuzz
def run_system(mode: str, name: str, seed: int = 0, task: str = "math",
               gpus: int = 32, scale: float = 1 / 32, iters: int = 3,
               failure: FailureEvent = None, plan: FailurePlan = None,
               **overrides):
    config = make_system_config(name, "7B", gpus, task_type=task).scaled(scale)
    config = replace(config, num_iterations=iters, warmup_iterations=0,
                     seed=seed, **overrides)
    with stepping(mode) as names:
        if failure is not None or plan is not None:
            injector = plan.build_injector() if plan is not None else FailureInjector()
            if failure is not None:
                injector.add(failure)
            system = LaminarSystem(config, failure_injector=injector)
        else:
            system = make_system(config)
        return system.run(), names


def assert_results_identical(reference, fleet):
    assert fleet.wall_clock == reference.wall_clock
    assert fleet.iterations == reference.iterations
    assert fleet.breakdowns == reference.breakdowns
    assert fleet.staleness_samples == reference.staleness_samples
    assert fleet.extras == reference.extras


def run_systems(name: str, **kwargs):
    """Run one system both ways, assert identity, return the oracle's result."""
    reference, fleet = both(run_system, name, **kwargs)
    assert_results_identical(reference, fleet)
    return reference


ALL_SYSTEMS = ("verl", "one_step", "stream_gen", "semi_sync",
               "areal", "laminar", "laminar_norepack")


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_system_run_bit_identity(name):
    """Every orchestration — barrier and continuous — end to end, both ways."""
    run_systems(name)


@pytest.mark.parametrize("name", ["stream_gen", "laminar"])
@pytest.mark.parametrize("seed", range(3))
def test_multi_turn_tool_bit_identity(name, seed):
    """Env-wait transitions and stream generation's folded mini-batch
    schedule across random seeds."""
    run_systems(name, seed=seed, task="tool", iters=2)


@pytest.mark.parametrize("kind", [FailureKind.ROLLOUT_MACHINE,
                                  FailureKind.RELAY,
                                  FailureKind.TRAINER])
def test_failures_mid_window_bit_identity(kind):
    """Machine/relay/trainer failures: retire + respawn lands identically."""
    failure = FailureEvent(time=15.0, kind=kind, target=0)
    reference = run_systems("laminar", gpus=64, scale=1 / 16, iters=4, failure=failure)
    assert reference.iterations  # training survived the failure
    if kind == FailureKind.ROLLOUT_MACHINE:
        # Only machine failovers produce recovery records; make sure the
        # retire + respawn path actually ran.
        assert reference.extras.get("failures_handled", 0.0) >= 1.0


def test_repack_pulls_bit_identity():
    """Laminar with repack enabled at a scale where pulls actually fire."""
    run_systems("laminar", gpus=64, scale=1 / 8, iters=4)


# --------------------------------------------------------------------------- adversarial fuzz
@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_persistent_straggler_config_bit_identity(name):
    """A config-declared straggler slot degrades every system identically."""
    reference = run_systems(name, straggler_factors=((1, 2.5),))
    # The slowdown actually bit: the degraded run is no faster than nominal.
    nominal, _ = run_system("process", name)
    assert reference.wall_clock >= nominal.wall_clock


@pytest.mark.parametrize("seed", range(2))
def test_transient_straggler_wave_bit_identity(seed):
    """Injected slow-down windows (set + paired clear) land identically."""
    plan = FailurePlan.stragglers(seed, num_machines=4, window=(5.0, 25.0),
                                  count=2, factor_range=(1.5, 3.0),
                                  duration_range=(5.0, 15.0))
    reference = run_systems("laminar", gpus=64, scale=1 / 16, iters=4, plan=plan)
    assert reference.extras.get("stragglers_handled", 0.0) >= 1.0


def test_correlated_rack_wave_bit_identity():
    """Simultaneous machine losses (one rack) recover identically."""
    plan = FailurePlan.rack_wave(15.0, rack=0, rack_size=2)
    reference = run_systems("laminar", gpus=64, scale=1 / 16, iters=4, plan=plan)
    assert reference.extras.get("failures_handled", 0.0) >= 2.0


def test_preemption_wave_bit_identity():
    """Spot warning drains gracefully before the reclaim lands."""
    plan = FailurePlan.preemption_wave(10.0, [0, 2], warning_lead=8.0)
    reference = run_systems("laminar", gpus=64, scale=1 / 16, iters=4, plan=plan)
    assert reference.extras.get("preemption_warnings", 0.0) == 2.0
    assert reference.extras.get("spot_preemptions", 0.0) == 2.0


@pytest.mark.parametrize("seed", range(2))
def test_network_degradation_bit_identity(seed):
    """Bandwidth dips + link flaps on the weight-sync path stay identical."""
    plan = FailurePlan.network_degradation(seed, window=(5.0, 30.0), dips=2,
                                           flap_machines=[1],
                                           flap_duration_range=(3.0, 8.0))
    reference = run_systems("laminar", gpus=64, scale=1 / 16, iters=4, plan=plan)
    # At least one degradation event landed inside the simulated run (later
    # ones may fall past the final iteration, which is fine).
    assert reference.extras.get("network_events", 0.0) >= 1.0


@pytest.mark.parametrize("seed", range(3))
def test_chaos_storm_bit_identity(seed):
    """The composed storm — wave + preemption + straggler + network — is the
    union of every adversarial pathway; training must survive it and both
    stepping shapes must agree exactly."""
    plan = FailurePlan.chaos(seed, num_machines=4, horizon=60.0)
    reference = run_systems("laminar", gpus=64, scale=1 / 16, iters=4, plan=plan)
    assert reference.iterations  # training survived the storm


def test_process_stepping_restores_production_after_an_error():
    production = base.generation_barrier, harness.FleetStepper
    with pytest.raises(RuntimeError):
        with process_stepping():
            assert base.generation_barrier is not production[0]
            assert harness.FleetStepper is not production[1]
            raise RuntimeError("unwind")
    assert base.generation_barrier is production[0]
    assert harness.FleetStepper is production[1]


# --------------------------------------------------------------------------- wake-up heap
def test_pop_due_ties_supersession_and_disarm():
    """Exact float ties pop in FIFO order over a heap laced with superseded
    and disarmed entries; a wake one ulp later is not a tie."""
    state = FleetState()
    at = 10.0 + 1e-3  # an inexact float: ties must match bit-for-bit anyway
    later = math.nextafter(at, math.inf)

    state.schedule(7, at)       # stamp 0
    state.schedule(3, at)       # stamp 1
    state.schedule(42, at)      # stamp 2 — superseded below
    state.schedule(5, at)       # stamp 3 — disarmed below
    state.schedule(9, later)    # one ulp later: not a tie
    state.schedule(42, at)      # stamp 5: 42 re-armed, moves to the FIFO back
    state.clear(5)              # 5 disarmed: its stale heap entry remains

    # Nothing due before the tie instant.
    assert state.pop_due(math.nextafter(at, 0.0)) is None
    assert state.next_wake() == at

    # The tie pops in (wake, stamp) order: 7, 3, then 42's re-arm stamp.
    # Member 5's entry is skipped lazily; member 9 (one ulp later) stays armed.
    assert [state.pop_due(at) for _ in range(4)] == [7, 3, 42, None]
    assert state.next_wake() == later
    assert state.pop_due(at + 1.0) == 9
    assert state.pop_due(at + 1.0) is None and state.next_wake() is None


def test_stepper_moves_its_clock_between_foreign_events(monkeypatch):
    """With no other event due first, the fleet stepper moves the clock to
    the next member wake itself: a continuous tool run steps fewer engine
    events for the same ``advance`` calls and the same result."""
    counts = {"events": 0, "advance": 0}
    step, advance = Environment.step, ReplicaGenerationState.advance

    def counting_step(self):
        counts["events"] += 1
        return step(self)

    def counting_advance(self, dt):
        counts["advance"] += 1
        return advance(self, dt)

    monkeypatch.setattr(Environment, "step", counting_step)
    monkeypatch.setattr(ReplicaGenerationState, "advance", counting_advance)

    def run():
        counts.update(events=0, advance=0)
        result, _ = run_system("fleet", "laminar", task="tool", iters=2)
        return result, dict(counts)

    jumped, with_jumps = run()
    monkeypatch.setattr(Environment, "try_jump", lambda self, at: False)
    stepped, without = run()
    assert_results_identical(stepped, jumped)
    assert with_jumps["advance"] == without["advance"] > 0
    assert with_jumps["events"] < without["events"]


# --------------------------------------------------------------------------- fused barriers
@pytest.mark.parametrize("traced", [False, True])
def test_fleet_smoke_barriers_fuse_every_lane_unless_traced(monkeypatch, traced):
    """fleet_smoke's barriers are wide: untraced, every barrier view fuses
    all of its lanes; with a recorder attached the barrier arms trace
    sampling and no lane fuses."""
    views = record_views(monkeypatch)
    for unit in get_scenario("fleet_smoke").expand():
        views.clear()
        with use_tracer(TraceRecorder()) if traced else nullcontext():
            system_for_unit(unit).run()
        assert views, unit.system
        lanes = sum(n for n, _ in views)
        fused = sum(k for _, k in views)
        assert lanes > 0 and fused == (0 if traced else lanes), unit.system


#: throughput_smoke's barrier systems, whose barriers hold 4 or 8 replicas.
SMOKE_BARRIERS = ("verl", "one_step", "stream_gen")


def smoke_barrier_unit(system: str):
    return next(unit for unit in get_scenario("throughput_smoke").expand()
                if unit.system == system)


def test_throughput_smoke_barriers_route_every_lane(monkeypatch):
    """throughput_smoke's barriers are narrower than ``_FUSE_MIN_LANES``:
    untraced, no view fuses a lane, so every lane steps its own engine."""
    views = record_views(monkeypatch)
    for system in SMOKE_BARRIERS:
        views.clear()
        system_for_unit(smoke_barrier_unit(system)).run()
        assert views, system
        assert all(0 < lanes < _FUSE_MIN_LANES for lanes, _ in views), system
        assert sum(fused for _, fused in views) == 0, system


@pytest.mark.parametrize("system", SMOKE_BARRIERS)
def test_narrow_barriers_make_the_same_engine_calls_traced(monkeypatch, system):
    """Observing does not change the path a narrow barrier runs: traced and
    untraced, every lane routes to its own engine, so both runs make the
    same ``advance`` and ``next_event_in`` calls and end at the same clock."""
    calls = Counter()

    def counted(name):
        method = getattr(ReplicaGenerationState, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in ("advance", "next_event_in"):
        monkeypatch.setattr(ReplicaGenerationState, name, counted(name))
    unit = smoke_barrier_unit(system)
    observed = []
    for traced in (False, True):
        calls.clear()
        with use_tracer(TraceRecorder()) if traced else nullcontext():
            result = system_for_unit(unit).run()
        observed.append((dict(calls), result.wall_clock))
    assert observed[0] == observed[1]
    assert observed[0][0]["advance"] > 0


# --------------------------------------------------------------------------- exact-tie cohorts
def tied_workload(seed: int, count: int, start_id: int):
    """A workload whose *content* depends only on ``seed``.

    Replicas loaded from the same seed (with disjoint id ranges) evolve
    through identical float chains, so their wake-ups tie at the exact same
    float instants — the only place the engine's FIFO tie-break orders
    events of different replicas.  No committed scenario produces such ties.
    """
    rng = np.random.default_rng(seed)
    states = []
    for i in range(count):
        num_turns = int(rng.integers(1, 4))
        segments = [int(rng.integers(5, 120)) for _ in range(num_turns)]
        env_latencies = [float(rng.uniform(0.5, 10.0)) for _ in range(num_turns - 1)]
        env_latencies.append(0.0)
        prompt = Prompt(prompt_id=start_id + i, group_id=0,
                        prompt_tokens=int(rng.integers(16, 64)))
        trajectory = Trajectory(traj_id=start_id + i, prompt=prompt,
                                target_tokens=sum(segments))
        states.append(SequenceState(
            trajectory=trajectory,
            schedule=TurnSchedule(segments=segments, env_latencies=env_latencies),
        ))
    return to_batch(states)


class _ToyFleet(ReplicaFleet):
    """Minimal continuous fleet: fixed members, recorded completions, and a
    bounded per-member refill budget so drained members park and the run
    terminates on its own."""

    def __init__(self, env, replicas, refill_batches=0, refill_count=4):
        super().__init__(env)
        self._by_id = {r.replica_id: r for r in replicas}
        self._refills_left = {r.replica_id: refill_batches for r in replicas}
        self._refill_count = refill_count
        self.events = []

    def replica(self, replica_id):
        return self._by_id.get(replica_id)

    def refill(self, replica):
        left = self._refills_left[replica.replica_id]
        if left <= 0:
            return
        self._refills_left[replica.replica_id] = left - 1
        # Same content seed for every member: refilled cohorts re-tie.
        replica.add_sequences(tied_workload(
            7000 + left, self._refill_count,
            100_000 * (replica.replica_id + 1) + 100 * left,
        ))

    def on_advance(self, replica, completed):
        for trajectory in completed:
            self.events.append((
                self.env.now, replica.replica_id, trajectory.traj_id,
                trajectory.finish_time, trajectory.generated_tokens,
                trajectory.turns_done,
            ))


def migrate(env, fleet, replicas, times):
    """Process body: at each of ``times`` move two sequences from replica 0
    to replica 1 and ``touch`` both, as a repack pull does."""
    source, target = replicas[0], replicas[1]
    for at in times:
        yield env.timeout_until(at)
        fleet.catch_up(source)
        fleet.catch_up(target)
        moved = source.remove_sequences(source.sequences().ids[:2].tolist())
        moved.reprefill[:] = True
        target.add_sequences(moved)
        fleet.touch([source.replica_id, target.replica_id])


def run_toy_fleet(mode: str, workload_seeds, refill_batches=0, blocks=512,
                  slowdowns=(), migrations=()):
    """Drive a synthetic continuous fleet to quiescence under one mode."""
    with stepping(mode) as names:
        env = Environment()
        replicas = []
        for replica_id, seed in enumerate(workload_seeds):
            replica = ReplicaGenerationState(
                replica_id=replica_id,
                decode_model=DECODE_MODEL,
                kvcache_config=KVCacheConfig(total_blocks=blocks),
                max_concurrency=16,
            )
            replica.add_sequences(tied_workload(seed, 8, 1000 * (replica_id + 1)))
            replicas.append(replica)
        for replica_id, factor in slowdowns:
            replicas[replica_id].set_slowdown(decode=factor)
        fleet = _ToyFleet(env, replicas, refill_batches=refill_batches)
        for replica in replicas:
            fleet.spawn(replica.replica_id)
        if migrations:
            env.process(migrate(env, fleet, replicas, migrations), name="migrate")
        env.run()
    return {
        "events": fleet.events,
        "clocks": [r.clock for r in replicas],
        "stats": [r.stats for r in replicas],
        "kv": [(r.kvcache.used_blocks, r.kvcache.peak_blocks)
               for r in replicas],
    }, names


@pytest.mark.parametrize("seed", range(3))
def test_grouped_service_exact_ties_bit_identity(seed):
    """Identical members wake at exact float ties, cohort after cohort."""
    reference, fleet = both(run_toy_fleet, [seed] * 4, refill_batches=2)
    assert fleet == reference


@pytest.mark.parametrize("seed", range(2))
def test_grouped_mixed_ties_and_singles_bit_identity(seed):
    """Tied twins interleaved with unique members."""
    reference, fleet = both(run_toy_fleet, [seed, seed, seed + 50, seed + 60],
                            refill_batches=1)
    assert fleet == reference


@pytest.mark.parametrize("seed", range(2))
def test_grouped_fallback_queued_lanes_bit_identity(seed):
    """A KV pool too small for the cohort leaves waiting queues on every
    tied member: admissions and preemptions interleave with the ties."""
    reference, fleet = both(run_toy_fleet, [seed] * 4, blocks=64)
    assert fleet == reference


def test_grouped_fallback_slowdown_bit_identity():
    """A tied cohort of straggling members."""
    reference, fleet = both(run_toy_fleet, [3] * 4,
                            slowdowns=((0, 2.0), (1, 2.0), (2, 2.0), (3, 2.0)))
    assert fleet == reference


@pytest.mark.parametrize("seed", range(2))
def test_touch_after_migration_bit_identity(seed):
    """Sequences moved between members mid-sleep: ``touch`` must re-step both
    members at the move instant, as an interrupt per driver would."""
    reference, fleet = both(run_toy_fleet, [seed, seed + 50, seed + 60],
                            refill_batches=1, migrations=(0.3, 1.7, 4.1))
    assert fleet == reference


def test_grouped_refill_waits_bit_identity():
    """Members that drain early park for lack of work mid-run; later refills
    revive them and the revived cohort re-ties."""
    reference, fleet = both(run_toy_fleet, [9] * 3, refill_batches=3)
    assert fleet == reference


@pytest.mark.parametrize("barrier_shape", ["plain", "anchored"])
@pytest.mark.parametrize("mode", ["process", "fleet"])
def test_a_stuck_barrier_replica_fails_fast(mode, barrier_shape):
    """A replica left with only queued sequences that can never fit its KV
    pool raises, naming the replica, the head's context plus lookahead and
    the pool, instead of joining with those trajectories silently dropped."""
    with stepping(mode):
        env = Environment()
        stuck = ReplicaGenerationState(
            replica_id=7, decode_model=DECODE_MODEL,
            kvcache_config=KVCacheConfig(total_blocks=8, block_size=16),
        )
        states = [
            SequenceState(
                trajectory=Trajectory(
                    traj_id=i, prompt=Prompt(prompt_id=i, group_id=0, prompt_tokens=100),
                    target_tokens=20,
                ),
                schedule=TurnSchedule.single_turn(20),
            )
            for i in range(2)
        ]
        stuck.add_sequences(to_batch(states))
        assert stuck.num_queued == 2

        def body():
            origin = None if barrier_shape == "plain" else env.now
            outcome = yield from base.generation_barrier(env, [stuck], origin)
            return outcome

        with pytest.raises(RuntimeError, match=(
            r"replica 7 is stuck with 2 queued sequence\(s\): the head needs 100 "
            r"context \+ 256 lookahead tokens, and the KV pool holds 128 tokens"
        )):
            env.run(until=env.process(body()))
    assert stuck.num_queued == 2
