"""Tests for the baseline systems, the trainer model and result metrics."""

from dataclasses import replace

import pytest

from repro.systems import (
    OneStepStaleness,
    PartialRollout,
    StreamGeneration,
    VerlSynchronous,
    available_systems,
    make_system,
)
from repro.experiments import make_system_config, placement_for, table2_rows
from repro.llm import QWEN_7B, fsdp_trainer_config
from repro.metrics import StageBreakdown
from repro.trainer import Trainer, TrainerConfig
from repro.types import Prompt, Trajectory


def quick_config(system, gpus=32, scale=1 / 32, iters=2, warm=0, task="math"):
    config = make_system_config(system, "7B", gpus, task_type=task).scaled(scale)
    return replace(config, num_iterations=iters, warmup_iterations=warm)


# --------------------------------------------------------------------------- trainer
def test_trainer_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(global_batch_size=100, num_minibatches=16)
    config = TrainerConfig(global_batch_size=512, num_minibatches=16)
    assert config.global_batch_size // config.num_minibatches == 32


def test_trainer_records_iterations_and_checkpoints():
    trainer = Trainer(QWEN_7B, fsdp_trainer_config(8, 8),
                      TrainerConfig(global_batch_size=4, num_minibatches=2,
                                    checkpoint_interval_iterations=2))
    prompt = Prompt(prompt_id=0, group_id=0, prompt_tokens=10)
    batch = []
    for i in range(4):
        trajectory = Trajectory(traj_id=i, prompt=prompt, target_tokens=20)
        trajectory.advance(20, 0)
        from repro.types import Experience
        batch.append(Experience(trajectory=trajectory, reward=1.0, actor_version_at_completion=0))
    record1 = trainer.record_iteration(batch, 0.0, 10.0)
    record2 = trainer.record_iteration(batch, 10.0, 21.0)
    assert trainer.weight_version == 2
    assert record2.iteration == 2
    assert trainer.checkpoints_written == 1
    assert record1.throughput_tokens_per_s > 0


def test_trainer_iteration_time_scales_with_gpus():
    small = Trainer(QWEN_7B, fsdp_trainer_config(8, 8))
    large = Trainer(QWEN_7B, fsdp_trainer_config(64, 8))
    assert small.iteration_compute_time(1e6) > large.iteration_compute_time(1e6)


# --------------------------------------------------------------------------- placements (Table 2)
def test_table2_placements_consistency():
    rows = table2_rows()
    assert len(rows) == 75  # 5 systems x 3 models x 5 scales
    assert placement_for("laminar", "7B", 256) == (192, 64)
    assert placement_for("one_step", "72B", 1024) == (256, 768)
    assert placement_for("verl", "32B", 128) == (128, 0)
    with pytest.raises(KeyError):
        placement_for("laminar", "7B", 48)
    for (system, model, total), (train, rollout) in __import__(
        "repro.experiments.placements", fromlist=["PLACEMENTS"]
    ).PLACEMENTS.items():
        if rollout:
            assert train + rollout == total, (system, model, total)


def test_make_system_config_sets_system_specific_knobs():
    laminar = make_system_config("laminar", "7B", 64)
    areal = make_system_config("areal", "7B", 64)
    verl = make_system_config("verl", "7B", 64)
    assert laminar.repack_enabled and not areal.repack_enabled
    assert laminar.rollout_tensor_parallel == 1 and verl.rollout_tensor_parallel == 2
    assert verl.colocated and not laminar.colocated
    assert areal.staleness_bound > 100
    with pytest.raises(ValueError):
        make_system_config("nope", "7B", 64)


def test_scaled_config_preserves_group_size():
    config = make_system_config("verl", "7B", 64)
    scaled = config.scaled(1 / 16)
    assert scaled.group_size == config.group_size
    assert scaled.global_batch_size == scaled.num_prompts_per_batch * scaled.group_size
    assert scaled.global_batch_size % scaled.num_minibatches == 0
    with pytest.raises(ValueError):
        config.scaled(0.0)


# --------------------------------------------------------------------------- baselines
def test_system_registry_and_factory():
    assert {"verl", "one_step", "stream_gen", "areal", "laminar"} <= set(available_systems())
    assert isinstance(make_system(quick_config("verl")), VerlSynchronous)
    assert isinstance(make_system(quick_config("areal")), PartialRollout)


def test_verl_is_on_policy_and_serial():
    result = make_system(quick_config("verl")).run()
    assert len(result.iterations) == 2
    assert result.mean_staleness() == 0.0
    breakdown = result.mean_breakdown()
    # Generation and training are serial: iteration covers both plus switches.
    assert result.mean_iteration_time() == pytest.approx(
        breakdown.generation_time + breakdown.training_time + breakdown.weight_sync_time,
        rel=0.05,
    )


def test_one_step_pipeline_overlaps_and_has_staleness_one():
    result = make_system(quick_config("one_step", iters=3, warm=1)).run()
    assert result.max_staleness() == 1
    breakdown = result.mean_breakdown()
    assert result.mean_iteration_time(1) < (
        breakdown.generation_time + breakdown.training_time
    ) + 2 * result.extras["global_sync_time"]


def test_stream_generation_records_minibatch_pipeline():
    result = make_system(quick_config("stream_gen", iters=2)).run()
    assert len(result.iterations) == 2
    assert result.mean_iteration_time() > 0
    assert result.extras["global_sync_time"] > 0


def test_partial_rollout_mixes_versions_and_pays_reprefill():
    config = quick_config("areal", iters=3, warm=0)
    system = PartialRollout(config)
    result = system.run()
    assert len(result.iterations) == 3
    assert result.extras["total_reprefill_stall"] > 0
    # After a couple of updates some in-flight trajectories span versions.
    assert any(t.reprefill_count > 0 for r in system.replicas for t in
               r.sequences().trajectories) or result.extras[
        "mixed_version_fraction"] >= 0.0


def test_long_tail_creates_bubbles_in_synchronous_generation():
    system = make_system(quick_config("verl", scale=1 / 16))
    outcome = system.generate_full_batch(weight_version=0)
    # The slowest replica defines the barrier; others idle (Fig 3a bubbles).
    assert outcome.bubble_time > 0
    assert max(outcome.per_replica_time) > min(outcome.per_replica_time)


# --------------------------------------------------------------------------- metrics
def test_stage_breakdown_fractions_sum_to_one():
    breakdown = StageBreakdown(generation_time=8.0, training_time=1.0, weight_sync_time=0.5,
                               experience_prep_time=0.25, bubble_time=0.25)
    fractions = breakdown.fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert fractions["generation"] == pytest.approx(0.8)
