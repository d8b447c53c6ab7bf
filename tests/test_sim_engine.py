"""Tests for the discrete-event simulation engine."""

import math

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_timeout_ordering_and_clock():
    env = Environment()
    fired = []

    def proc(delay, tag):
        yield env.timeout(delay)
        fired.append((tag, env.now))

    env.process(proc(2.0, "b"))
    env.process(proc(1.0, "a"))
    env.run()
    assert fired == [("a", 1.0), ("b", 2.0)]


def test_fifo_tie_break_at_same_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abc":
        env.process(proc(tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_and_waiting_on_process():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return 42

    def parent():
        value = yield env.process(child())
        return value + 1

    result = env.run(env.process(parent()))
    assert result == 43
    assert env.now == 3.0


def test_run_until_time_stops_clock():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1.0)

    env.process(proc())
    env.run(until=5.5)
    assert env.now == 5.5


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_interrupt_delivers_cause():
    env = Environment()
    seen = {}

    def victim():
        try:
            yield env.timeout(10.0)
        except Interrupt as interrupt:
            seen["cause"] = interrupt.cause
            seen["time"] = env.now

    def attacker(process):
        yield env.timeout(2.0)
        process.interrupt(cause="repack")

    victim_proc = env.process(victim())
    env.process(attacker(victim_proc))
    env.run()
    assert seen == {"cause": "repack", "time": 2.0}


def test_interrupt_while_waiting_on_anyof_detaches_cleanly():
    """An interrupted process waiting on an AnyOf must not be spuriously
    resumed when the condition (or one of its sub-events) later fires."""
    env = Environment()
    log = []

    def victim():
        t1 = env.timeout(10.0, value="slow")
        t2 = env.timeout(20.0, value="slower")
        try:
            yield (t1 | t2)
            log.append(("anyof", env.now))
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, env.now))
        # Keep living past the stale events' fire times.
        yield env.timeout(50.0)
        log.append(("done", env.now))

    def attacker(process):
        yield env.timeout(3.0)
        process.interrupt(cause="repack")

    proc = env.process(victim())
    env.process(attacker(proc))
    env.run()
    # Exactly one wake-up from the interrupt, none from the stale timeouts.
    assert log == [("interrupted", "repack", 3.0), ("done", 53.0)]


def test_interrupt_before_first_resume_lands_on_first_yield():
    """Interrupting a process whose Initialize event has not fired yet is
    delivered at the process's first yield instead of crashing."""
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(10.0)
            log.append("slept")
        except Interrupt:
            log.append(("early-interrupt", env.now))

    proc = env.process(victim())
    proc.interrupt()  # same timestamp, before Initialize has run
    env.run()
    assert log == [("early-interrupt", 0.0)]


def test_failed_event_crashes_run_unless_defused():
    env = Environment()

    class Boom(RuntimeError):
        pass

    def trigger():
        event = env.event()
        yield env.timeout(1.0)
        event.fail(Boom("unhandled"))

    env.process(trigger())
    with pytest.raises(Boom):
        env.run()

    # Defusing marks the failure as handled: the run completes.
    env2 = Environment()

    def trigger_defused():
        event = env2.event()
        yield env2.timeout(1.0)
        event.fail(Boom("handled"))
        event.defused()

    env2.process(trigger_defused())
    env2.run()
    assert env2.now == 1.0


def test_process_catching_failed_event_defuses_it():
    """A process that catches the exception from a failed event it waited on
    counts as handling it — the run must not re-raise."""
    env = Environment()
    caught = []

    def failer(event):
        yield env.timeout(2.0)
        event.fail(ValueError("boom"))

    def waiter(event):
        try:
            yield event
        except ValueError as exc:
            caught.append((str(exc), env.now))
        yield env.timeout(1.0)

    event = env.event()
    env.process(failer(event))
    env.process(waiter(event))
    env.run()
    assert caught == [("boom", 2.0)]
    assert env.now == 3.0


def test_run_until_time_vs_until_event_semantics():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(1.0)

    def finisher():
        yield env.timeout(3.5)
        return "finished"

    env.process(ticker())
    proc = env.process(finisher())
    # until=event: stops exactly when the event fires and returns its value.
    assert env.run(until=proc) == "finished"
    assert env.now == 3.5
    # until=time: advances the clock to exactly that time, firing nothing later.
    env.run(until=7.25)
    assert env.now == 7.25
    # until in the past is illegal.
    with pytest.raises(SimulationError):
        env.run(until=1.0)


def test_run_until_event_that_never_fires_raises():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    env.process(quick())
    never = env.event()
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_same_time_fifo_is_deterministic_across_event_kinds():
    """Events scheduled for the same instant fire in scheduling order, so a
    run is fully reproducible; interrupts (priority 0) cut ahead."""
    env = Environment()
    order = []

    def sleeper(tag, delay):
        yield env.timeout(delay)
        order.append(tag)

    def succeeder(event):
        yield env.timeout(1.0)
        event.succeed()

    def waiter(event, tag):
        yield event
        order.append(tag)

    gate = env.event()
    env.process(sleeper("t-first", 1.0))
    env.process(waiter(gate, "event-waiter"))
    env.process(succeeder(gate))
    env.process(sleeper("t-last", 1.0))
    env.run()
    # The gate fires inside succeeder's resume at t=1, after both timeouts
    # were already scheduled at t=0 — FIFO order of scheduling, every run.
    assert order == ["t-first", "t-last", "event-waiter"]


def test_interrupted_driver_keeps_deterministic_order_after_reschedule():
    env = Environment()
    order = []

    def driver():
        while True:
            try:
                yield env.timeout(5.0)
                order.append(("tick", env.now))
                return
            except Interrupt:
                order.append(("recompute", env.now))

    def interrupter(process):
        yield env.timeout(2.0)
        process.interrupt()
        yield env.timeout(2.0)
        process.interrupt()

    proc = env.process(driver())
    env.process(interrupter(proc))
    env.run()
    assert order == [("recompute", 2.0), ("recompute", 4.0), ("tick", 9.0)]


def test_event_and_or_composition():
    env = Environment()
    results = {}

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(5.0, value="slow")
        first = yield (t1 | t2)
        results["any_time"] = env.now
        results["any_values"] = list(first.values())
        both = yield (t1 & t2)
        results["all_time"] = env.now
        results["n_done"] = len(both)

    env.process(proc())
    env.run()
    assert results["any_time"] == 1.0
    assert results["any_values"] == ["fast"]
    assert results["all_time"] == 5.0
    assert results["n_done"] == 2


def test_try_jump_moves_the_clock_only_past_a_strictly_later_head():
    """A process jumps when the queue's head lies strictly after the target;
    no event is stepped for it.  A head one ulp past the target is later."""
    env = Environment()
    seen = []

    def other():
        yield env.timeout_until(math.nextafter(3.0, math.inf))
        seen.append(("other", env.now))

    def jumper():
        yield env.timeout(1.0)
        seen.append(("jumped", env.try_jump(3.0), env.now))
        seen.append(("blocked", env.try_jump(4.0), env.now))
        yield env.timeout_until(4.0)
        seen.append(("woke", env.now))

    env.process(other())
    env.process(jumper())
    stepped_at = []
    original_step = env.step

    def step():
        stepped_at.append(env.peek())
        original_step()

    env.step = step
    env.run()
    assert seen == [("jumped", True, 3.0), ("blocked", False, 3.0),
                    ("other", math.nextafter(3.0, math.inf)), ("woke", 4.0)]
    assert 3.0 not in stepped_at  # the jump stepped no event
    with pytest.raises(SimulationError, match="lies in the past"):
        env.try_jump(env.now - 1.0)


def test_try_jump_yields_to_an_event_at_the_same_time():
    """An event already queued at exactly the target fires first (FIFO), so
    the jump is refused and the caller's own timeout lands after it."""
    env = Environment()
    order = []

    def first():
        yield env.timeout(2.0)
        order.append("first")

    def second():
        yield env.timeout(1.0)
        jumped = env.try_jump(2.0)
        order.append(("jump", jumped, env.now))
        yield env.timeout_until(2.0)
        order.append("second")

    env.process(first())
    env.process(second())
    env.run()
    assert order == [("jump", False, 1.0), "first", "second"]


def test_try_jump_never_passes_a_numeric_until():
    """Inside ``run(until=t)`` a jump may land on ``t`` but never past it, and
    the run still ends at exactly ``t``."""
    env = Environment()
    jumps = []

    def proc():
        yield env.timeout(1.0)
        jumps.append(env.try_jump(7.5))
        jumps.append(env.try_jump(5.0))
        jumps.append(env.now)
        yield env.timeout_until(7.5)
        jumps.append("late")

    env.process(proc())
    env.run(until=5.0)
    assert jumps == [False, True, 5.0]
    assert env.now == 5.0
    env.run(until=7.5)
    assert jumps[-1] == "late" and env.now == 7.5
