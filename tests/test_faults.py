"""Unit tests for the repro.faults subsystem.

Covers the seeded plan builders (determinism, validation, composition), the
failure-kind registry (unknown kinds raise with the registered list), the
network-degradation primitives (RetryPolicy, LinkSpec.scaled) and the
engines' straggler slowdown (vector vs scalar must agree exactly — the
bit-identity contract extends to adversarial runs).
"""

import pytest

from repro.faults import (
    DEFAULT_RACK_SIZE,
    FailureEvent,
    FailureInjector,
    FailureKind,
    FailurePlan,
    known_failure_kinds,
    rack_machines,
    register_failure_kind,
)
from repro.sim.network import LinkSpec, RDMA_LINK, RetryPolicy

from test_engine_equivalence import (
    assert_completions_identical,
    assert_engines_identical,
    make_batch,
    make_engines,
    make_states,
)


# --------------------------------------------------------------------------- registry
def test_unknown_failure_kind_lists_registered():
    with pytest.raises(ValueError, match="rollout_machine"):
        FailureEvent(time=1.0, kind="cosmic_ray", target=0)


def test_reregistering_kind_raises():
    with pytest.raises(ValueError, match="already registered"):
        register_failure_kind(FailureKind.STRAGGLER)


def test_registry_contains_adversarial_kinds():
    kinds = known_failure_kinds()
    for kind in (FailureKind.SPOT_WARNING, FailureKind.SPOT_PREEMPTION,
                 FailureKind.STRAGGLER, FailureKind.STRAGGLER_CLEAR,
                 FailureKind.NETWORK_DEGRADED, FailureKind.NETWORK_RESTORED,
                 FailureKind.LINK_FLAP):
        assert kind in kinds


def test_event_validation():
    with pytest.raises(ValueError, match="non-negative"):
        FailureEvent(time=-1.0, kind=FailureKind.RELAY, target=0)
    with pytest.raises(ValueError, match="factor"):
        FailureEvent(time=0.0, kind=FailureKind.STRAGGLER, target=0, factor=0.0)
    with pytest.raises(ValueError, match="duration"):
        FailureEvent(time=0.0, kind=FailureKind.STRAGGLER, target=0, duration=-1.0)


# --------------------------------------------------------------------------- plan builders
def test_rack_machines_layout():
    assert rack_machines(0) == list(range(DEFAULT_RACK_SIZE))
    assert rack_machines(2, rack_size=2) == [4, 5]
    with pytest.raises(ValueError):
        rack_machines(-1)
    with pytest.raises(ValueError):
        rack_machines(0, rack_size=0)


@pytest.mark.parametrize("build", [
    lambda seed: FailurePlan.stragglers(seed, 8, (10.0, 50.0), count=3),
    lambda seed: FailurePlan.stragglers(seed, 8, (10.0, 50.0), count=2,
                                        persistent=True),
    lambda seed: FailurePlan.network_degradation(seed, (5.0, 30.0), dips=2,
                                                 flap_machines=[1, 3]),
    lambda seed: FailurePlan.chaos(seed, 8, 120.0),
])
def test_seeded_builders_deterministic(build):
    assert build(7).sorted_events() == build(7).sorted_events()
    assert build(7).sorted_events() != build(8).sorted_events()


def test_sorted_events_total_order():
    plan = FailurePlan()
    plan.add(FailureEvent(time=5.0, kind=FailureKind.TRAINER, target=0))
    plan.add(FailureEvent(time=5.0, kind=FailureKind.RELAY, target=1))
    plan.add(FailureEvent(time=1.0, kind=FailureKind.ROLLOUT_MACHINE, target=2))
    plan.add(FailureEvent(time=5.0, kind=FailureKind.RELAY, target=0))
    ordered = plan.sorted_events()
    assert [(e.time, e.kind, e.target) for e in ordered] == [
        (1.0, "rollout_machine", 2), (5.0, "relay", 0),
        (5.0, "relay", 1), (5.0, "trainer", 0)]
    assert plan.horizon == 5.0


def test_preemption_wave_pairs_warning_and_reclaim():
    plan = FailurePlan.preemption_wave(10.0, [0, 2], warning_lead=8.0)
    events = plan.sorted_events()
    warnings = [e for e in events if e.kind == FailureKind.SPOT_WARNING]
    reclaims = [e for e in events if e.kind == FailureKind.SPOT_PREEMPTION]
    assert [e.target for e in warnings] == [0, 2]
    assert [e.target for e in reclaims] == [0, 2]
    for warning, reclaim in zip(warnings, reclaims):
        assert reclaim.time == warning.time + 8.0


def test_transient_stragglers_emit_paired_clears():
    plan = FailurePlan.stragglers(3, 8, (10.0, 50.0), count=3,
                                  duration_range=(5.0, 10.0))
    sets = [e for e in plan.events if e.kind == FailureKind.STRAGGLER]
    clears = {e.target: e for e in plan.events
              if e.kind == FailureKind.STRAGGLER_CLEAR}
    assert len(sets) == 3 and len(clears) == 3
    for event in sets:
        assert event.factor > 1.0
        assert clears[event.target].time == event.time + event.duration


def test_persistent_stragglers_have_no_clears():
    plan = FailurePlan.stragglers(3, 8, (10.0, 50.0), count=2, persistent=True)
    assert len(plan.events) == 2
    assert all(e.kind == FailureKind.STRAGGLER for e in plan.events)


def test_network_degradation_pairs_dip_and_restore():
    plan = FailurePlan.network_degradation(1, (5.0, 30.0), dips=2,
                                           flap_machines=[4])
    dips = [e for e in plan.events if e.kind == FailureKind.NETWORK_DEGRADED]
    restores = [e for e in plan.events if e.kind == FailureKind.NETWORK_RESTORED]
    flaps = [e for e in plan.events if e.kind == FailureKind.LINK_FLAP]
    assert len(dips) == 2 and len(restores) == 2 and len(flaps) == 1
    for dip, restore in zip(dips, restores):
        assert dip.target == -1 and 0 < dip.factor < 1
        assert restore.time == dip.time + dip.duration
    assert flaps[0].target == 4 and flaps[0].duration > 0


def test_chaos_includes_every_adversity():
    plan = FailurePlan.chaos(0, 8, 120.0)
    kinds = {e.kind for e in plan.events}
    assert FailureKind.ROLLOUT_MACHINE in kinds
    assert FailureKind.SPOT_WARNING in kinds and FailureKind.SPOT_PREEMPTION in kinds
    assert FailureKind.STRAGGLER in kinds
    assert FailureKind.NETWORK_DEGRADED in kinds and FailureKind.LINK_FLAP in kinds
    assert 0 < plan.horizon <= 0.8 * 120.0 + 0.15 * 120.0  # reclaim may trail the lead
    # Never the whole fleet at once.
    wave = [e for e in plan.events if e.kind == FailureKind.ROLLOUT_MACHINE]
    assert 1 <= len(wave) <= 4


def test_builder_validation():
    with pytest.raises(ValueError):
        FailurePlan.stragglers(0, 4, (50.0, 10.0))
    with pytest.raises(ValueError):
        FailurePlan.stragglers(0, 4, (10.0, 50.0), count=5)
    with pytest.raises(ValueError):
        FailurePlan.preemption_wave(0.0, [0], warning_lead=-1.0)
    with pytest.raises(ValueError):
        FailurePlan.chaos(0, 1, 100.0)
    with pytest.raises(ValueError):
        FailurePlan.chaos(0, 4, 0.0)


def test_merge_and_injector():
    merged = FailurePlan.rack_wave(15.0, rack=0, rack_size=2).merge(
        FailurePlan.preemption_wave(5.0, [3], warning_lead=2.0))
    injector = merged.build_injector()
    assert injector.next_failure_time() == 5.0
    fired = injector.due(7.0)
    assert [e.kind for e in fired] == [FailureKind.SPOT_WARNING,
                                       FailureKind.SPOT_PREEMPTION]
    assert injector.next_failure_time() == 15.0
    assert len(injector.fired) == 2


# --------------------------------------------------------------------------- network degradation
def test_retry_policy_delay_caps():
    policy = RetryPolicy(base_delay=0.5, multiplier=2.0, max_delay=4.0)
    assert [policy.delay(i) for i in range(5)] == [0.5, 1.0, 2.0, 4.0, 4.0]
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_retries=0)


def test_retry_policy_wait_through():
    policy = RetryPolicy(base_delay=0.5, multiplier=2.0, max_delay=8.0,
                         max_retries=4)
    assert policy.wait_through(0.0) == (0.0, 0)
    # 0.5 + 1.0 = 1.5 covers a 1.2 s outage on the second retry.
    wait, retries = policy.wait_through(1.2)
    assert wait == 1.5 and retries == 2
    # Budget exhausted (0.5+1+2+4 = 7.5 < 100): wait out the outage plus one
    # final capped backoff.
    wait, retries = policy.wait_through(100.0)
    assert wait == 100.0 + 4.0 and retries == 4


def test_link_spec_scaled():
    degraded = RDMA_LINK.scaled(0.25)
    assert degraded.bandwidth == RDMA_LINK.bandwidth * 0.25
    assert degraded.startup == RDMA_LINK.startup
    assert degraded.transfer_time(1e9) > RDMA_LINK.transfer_time(1e9)
    assert RDMA_LINK.scaled(1.0) is RDMA_LINK
    with pytest.raises(ValueError):
        RDMA_LINK.scaled(0.0)


# --------------------------------------------------------------------------- engine slowdown
def test_slowdown_is_bit_identical_across_engines():
    """set_slowdown mid-run (apply, then clear) keeps scalar == vector.

    This is the exact mutation the straggler pathway performs, including the
    carry rescale that keeps the next-event window well-formed when the step
    time shrinks on clearing.
    """
    scalar, vector = make_engines(blocks=256, max_concurrency=24)
    scalar.add_sequences(make_states(11, 30, 0))
    vector.add_sequences(make_batch(11, 30, 0))

    def lockstep(duration):
        elapsed = 0.0
        while elapsed < duration:
            s_next, v_next = scalar.next_event_in(), vector.next_event_in()
            assert s_next == v_next
            if s_next is None:
                return
            dt = min(s_next, duration - elapsed)
            assert_completions_identical(scalar.advance(dt), vector.advance(dt))
            elapsed += dt
            assert_engines_identical(scalar, vector)

    lockstep(3.0)
    scalar.set_slowdown(decode=2.5, env=2.5)
    vector.set_slowdown(decode=2.5, env=2.5)
    assert_engines_identical(scalar, vector)
    lockstep(5.0)
    scalar.set_slowdown(decode=1.0, env=1.0)
    vector.set_slowdown(decode=1.0, env=1.0)
    assert_engines_identical(scalar, vector)
    lockstep(40.0)
    assert_engines_identical(scalar, vector)


def test_slowdown_clear_with_large_carry_makes_progress():
    """Clearing a slowdown never wedges the next-event loop (carry rescale)."""
    scalar, vector = make_engines(blocks=256, max_concurrency=24)
    for engine, workload in ((scalar, make_states), (vector, make_batch)):
        engine.add_sequences(workload(5, 16, 0))
        engine.set_slowdown(decode=4.0)
        engine.advance(engine.next_event_in() * 0.9)  # park carry mid-token
        engine.set_slowdown(decode=1.0)
        for _ in range(200):
            delta = engine.next_event_in()
            if delta is None:
                break
            before = (engine.clock, engine._time_carry, engine.num_sequences)
            engine.advance(delta)
            after = (engine.clock, engine._time_carry, engine.num_sequences)
            assert after != before, "advance made no progress"
    assert_engines_identical(scalar, vector)
