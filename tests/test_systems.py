"""Tests for the repro.systems registry: integrity against the bench scenario
catalog, registration error paths, the pure event-time clock rewrite of the
pipelined baselines (clock equivalence vs the legacy closed-form stage
arithmetic), and the two composed variants (laminar_norepack, semi_sync)."""

import json
import os
from dataclasses import replace

import pytest

from repro.bench.registry import all_scenarios
from repro.experiments import make_system_config, placement_for, rollout_tensor_parallel
from repro.sim import Environment, SimulationError
from repro.systems import (
    LaminarNoRepack,
    LaminarSystem,
    SemiSyncBarrier,
    System,
    SystemCapabilities,
    SystemRegistryError,
    available_systems,
    get_system_class,
    make_system,
    register_system,
    unregister_system,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quick_config(system, gpus=32, scale=1 / 32, iters=2, warm=0, task="math"):
    config = make_system_config(system, "7B", gpus, task_type=task).scaled(scale)
    return replace(config, num_iterations=iters, warmup_iterations=warm)


# --------------------------------------------------------------------------- registry integrity
def test_every_bench_scenario_resolves_to_a_registered_system():
    """The bench catalog and the system registry must never drift apart:
    every scenario's systems resolve, with placements for every grid point."""
    for scenario in all_scenarios():
        for system in scenario.systems:
            cls = get_system_class(system)
            assert cls.name == system
            assert isinstance(cls.capabilities, SystemCapabilities)
            for gpus in scenario.gpu_scales:
                assert placement_for(system, scenario.model_size, gpus)
                assert rollout_tensor_parallel(system, scenario.model_size) >= 1


def test_registry_holds_all_seven_orchestrations():
    names = available_systems()
    assert set(names) >= {
        "verl", "one_step", "stream_gen", "areal", "laminar",
        "laminar_norepack", "semi_sync",
    }


def test_duplicate_registration_raises_with_clear_message():
    class Duplicate(System):
        name = "verl"

        def build(self, env, result, num_iterations):
            yield env.timeout(0.0)

    with pytest.raises(SystemRegistryError, match="already registered"):
        register_system(Duplicate)


def test_unknown_system_lookup_lists_registered_names():
    with pytest.raises(SystemRegistryError, match="registered systems:.*laminar"):
        get_system_class("nope")
    with pytest.raises(ValueError, match="registered systems:"):
        make_system_config("nope", "7B", 64)


def test_register_and_unregister_round_trip():
    class Scratch(System):
        name = "scratch_test_system"
        capabilities = SystemCapabilities(description="test-only",
                                          placement_like="verl")

        def build(self, env, result, num_iterations):
            yield env.timeout(0.0)

    try:
        register_system(Scratch)
        assert get_system_class("scratch_test_system") is Scratch
        assert get_system_class("scratch_test_system").capabilities.placement_like == "verl"
        # Variants inherit their base system's Table 2 placements.
        assert placement_for("scratch_test_system", "7B", 64) == \
            placement_for("verl", "7B", 64)
    finally:
        unregister_system("scratch_test_system")
    with pytest.raises(SystemRegistryError):
        get_system_class("scratch_test_system")


# --------------------------------------------------------------------------- engine primitive
def test_timeout_until_fires_at_exact_absolute_time():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(0.1)
        yield env.timeout_until(0.5)
        seen.append(env.now)
        yield env.timeout_until(env.now)  # same-instant wake is legal
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [0.5, 0.5]
    with pytest.raises(SimulationError):
        env.timeout_until(0.25)  # lies in the past


# --------------------------------------------------------------------------- clock equivalence
def test_one_step_event_clock_matches_closed_form_stage_arithmetic():
    """The AllOf-joined (generation, training) processes plus the sync
    timeout must land on exactly the float the legacy closed-form padding
    computed: fl(fl(start + max(train, generation)) + sync)."""
    result = make_system(quick_config("one_step", iters=3, warm=0)).run()
    sync = result.extras["global_sync_time"]
    for record, breakdown in zip(result.iterations, result.breakdowns):
        stage = max(breakdown.training_time, breakdown.generation_time)
        assert record.end_time == (record.start_time + stage) + sync


def test_stream_gen_event_clock_matches_closed_form_recurrence():
    """Independent twin of stream_gen's folded mini-batch schedule: a fresh
    system regenerates iteration 1's batch (same seeds) through the public
    ``generate_full_batch``, and the recurrence — mini-batch j starts at
    max(previous end, completion of the (j+1)*m-th trajectory) — is folded
    over its plainly sorted completion times.  The iteration must end on
    exactly that float."""
    config = quick_config("stream_gen", iters=1, warm=0)
    result = make_system(config).run()

    # Twin: reproduce iteration 1's generation outcome (same seeds) and fold
    # the legacy closed-form recurrence over its completion times.
    twin = make_system(config)
    outcome = twin.generate_full_batch(weight_version=0)
    sync = result.extras["global_sync_time"]
    num_minibatches = config.num_minibatches
    minibatch_trajs = config.global_batch_size // num_minibatches
    completion_times = sorted(t.finish_time for t in outcome.trajectories)
    tokens_by_completion = [
        t.total_tokens
        for t in sorted(outcome.trajectories, key=lambda t: t.finish_time)
    ]
    cursor = 0.0
    for j in range(num_minibatches):
        ready_index = min(len(completion_times), (j + 1) * minibatch_trajs) - 1
        mb_tokens = sum(
            tokens_by_completion[j * minibatch_trajs:(j + 1) * minibatch_trajs]
        )
        cursor = max(cursor, completion_times[ready_index]) + \
            twin.trainer.minibatch_time(mb_tokens)
    assert result.iterations[0].start_time == 0.0
    assert result.iterations[0].end_time == 0.0 + (cursor + sync)


@pytest.mark.parametrize("scale", [1 / 32, 1 / 8])
def test_stream_gen_engine_work_does_not_grow_with_the_batch(monkeypatch, scale):
    """stream_gen folds its mini-batch schedule over the barrier outcome, so
    an iteration costs the engine at most two events (the generation join
    and the sync wait) however many trajectories complete in it."""
    iterations = 3
    system = make_system(make_system_config("stream_gen", "7B", 32).scaled(scale))
    steps = []
    names = []
    step, process = Environment.step, Environment.process

    def counting_step(self):
        steps.append(None)
        step(self)

    def recording_process(self, generator, name=""):
        names.append(name)
        return process(self, generator, name=name)

    monkeypatch.setattr(Environment, "step", counting_step)
    monkeypatch.setattr(Environment, "process", recording_process)
    result = system.run(iterations)
    assert len(result.iterations) == iterations
    assert not [name for name in names if name.startswith("publish-")]
    assert len(steps) <= 2 * iterations + 2


def test_pipelined_iteration_is_allof_join_not_sum_of_stages():
    """Sanity: the one-step iteration hides the shorter stage (max, not sum)."""
    result = make_system(quick_config("one_step", iters=3, warm=1)).run()
    sync = result.extras["global_sync_time"]
    for record, breakdown in zip(result.iterations[1:], result.breakdowns[1:]):
        assert record.duration == pytest.approx(
            max(breakdown.training_time, breakdown.generation_time) + sync
        )
        assert record.duration < (
            breakdown.training_time + breakdown.generation_time + sync
        ) or min(breakdown.training_time, breakdown.generation_time) == 0.0


# --------------------------------------------------------------------------- laminar_norepack
def test_laminar_norepack_disables_every_repack_trigger():
    system = make_system(quick_config("laminar_norepack", iters=2))
    assert isinstance(system, LaminarNoRepack)
    assert system.manager.repack_interval == float("inf")
    assert system.manager.executor.plan_overhead == 0.0
    result = system.run()
    assert result.extras["repacks"] == 0.0
    assert result.extras["repack_overhead_total"] == 0.0
    assert not system.config.repack_enabled


def test_laminar_norepack_gain_cross_checks_fig16_ablation():
    """The registry variant must reproduce the Fig 16 repack gain: the fleet
    generation-rate ratio between laminar and laminar_norepack at the same
    seed equals the committed repack_ablation_32b throughput_gain."""
    from repro.experiments.throughput import measure_laminar

    with_repack = measure_laminar(make_system_config("laminar", "32B", 128))
    without = measure_laminar(make_system_config("laminar_norepack", "32B", 128))
    assert without.details["fleet_generation_rate"] > 0
    gain = (with_repack.details["fleet_generation_rate"]
            / without.details["fleet_generation_rate"])
    committed = json.load(
        open(os.path.join(REPO_ROOT, "BENCH_repack_ablation_32b.json"))
    )
    unit = committed["scenarios"]["repack_ablation_32b"]["result"]["units"][0]
    assert gain == pytest.approx(unit["metrics"]["throughput_gain"], rel=1e-6)


# --------------------------------------------------------------------------- semi_sync
def test_semi_sync_respects_staleness_window_and_runs():
    config = quick_config("semi_sync", iters=3, warm=0)
    assert config.staleness_bound == 2
    system = make_system(config)
    assert isinstance(system, SemiSyncBarrier)
    result = system.run()
    assert len(result.iterations) == 3
    assert result.extras["staleness_window"] == 2.0
    assert result.max_staleness() <= config.staleness_bound
    assert result.throughput(0) > 0


def test_semi_sync_window_one_degenerates_toward_one_step():
    """With a window of one batch the hybrid trains on exactly the one-step
    pipeline's batches, with staleness capped at one.  The clocks still
    differ: semi_sync counts the first batch's generation inside iteration 1,
    where one_step runs it as a pipeline fill before iteration 1, and its
    producer starts the next batch when the trainer takes one, so generation
    overlaps the blocking sync."""
    config = replace(quick_config("semi_sync", iters=3, warm=0), staleness_bound=1)
    result = make_system(config).run()
    assert result.max_staleness() <= 1
    one_step = make_system(
        replace(quick_config("one_step", iters=3, warm=0), staleness_bound=1)
    ).run()
    assert [r.tokens_trained for r in result.iterations] == [
        r.tokens_trained for r in one_step.iterations
    ]
    assert result.iterations[-1].duration == pytest.approx(
        one_step.iterations[-1].duration, rel=0.15
    )


def test_laminar_requires_disaggregated_placement():
    config = quick_config("verl")  # colocated: rollout_gpus == 0
    config = replace(config, system="laminar")
    with pytest.raises(ValueError, match="disaggregated"):
        LaminarSystem(config)
