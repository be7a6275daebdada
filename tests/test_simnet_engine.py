"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simnet import (
    AllOf,
    AnyOf,
    Interrupt,
    SimulationError,
    Simulator,
)


def test_timeout_ordering():
    sim = Simulator()
    log = []

    def proc(name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(proc("a", 5.0))
    sim.process(proc("b", 3.0))
    sim.process(proc("c", 3.0))
    sim.run()
    assert log == [(3.0, "b"), (3.0, "c"), (5.0, "a")]


def test_tie_break_is_fifo():
    """Events scheduled for the same instant fire in schedule order."""
    sim = Simulator()
    log = []

    def proc(name):
        yield sim.timeout(1.0)
        log.append(name)

    for i in range(10):
        sim.process(proc(i))
    sim.run()
    assert log == list(range(10))


def test_process_return_value():
    sim = Simulator()

    def inner():
        yield sim.timeout(2.0)
        return 42

    def outer():
        value = yield sim.process(inner())
        return value + 1

    p = sim.process(outer())
    assert sim.run_until_complete(p) == 43
    assert sim.now == 2.0


def test_event_succeed_value_passes_through_yield():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        v = yield ev
        got.append(v)

    sim.process(waiter())

    def trigger():
        yield sim.timeout(1.0)
        ev.succeed("hello")

    sim.process(trigger())
    sim.run()
    assert got == ["hello"]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    sim.process(waiter())
    ev.fail(ValueError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_propagates_to_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("crash")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="crash"):
        sim.run()


def test_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_all_of_collects_values_in_order():
    sim = Simulator()

    def worker(delay, value):
        yield sim.timeout(delay)
        return value

    def main():
        procs = [sim.process(worker(d, v)) for d, v in [(3, "x"), (1, "y"), (2, "z")]]
        values = yield AllOf(sim, procs)
        return values

    p = sim.process(main())
    assert sim.run_until_complete(p) == ["x", "y", "z"]
    assert sim.now == 3.0


def test_any_of_returns_first():
    sim = Simulator()

    def worker(delay, value):
        yield sim.timeout(delay)
        return value

    def main():
        slow = sim.process(worker(9, "slow"))
        fast = sim.process(worker(1, "fast"))
        first = yield AnyOf(sim, [slow, fast])
        return first.value

    p = sim.process(main())
    assert sim.run_until_complete(p) == "fast"


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def main():
        values = yield AllOf(sim, [])
        return values

    p = sim.process(main())
    assert sim.run_until_complete(p) == []


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("slept")
        except Interrupt as i:
            log.append(("interrupted", i.cause, sim.now))

    p = sim.process(sleeper())

    def killer():
        yield sim.timeout(5.0)
        p.interrupt("reason")

    sim.process(killer())
    sim.run()
    assert log == [("interrupted", "reason", 5.0)]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    p.interrupt("late")  # must not raise
    sim.run()


def test_run_until_limits_time():
    sim = Simulator()
    log = []

    def proc():
        yield sim.timeout(10.0)
        log.append("fired")

    sim.process(proc())
    sim.run(until=5.0)
    assert log == [] and sim.now == 5.0
    # an event at exactly ``until`` fires: the bound is inclusive
    sim._call_at1(log.append, "at-until", 7.0)
    sim.run(until=7.0)
    assert log == ["at-until"] and sim.now == 7.0
    sim.run()
    assert log == ["at-until", "fired"] and sim.now == 10.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad():
        yield 42  # not an Event

    sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_callback_on_already_fired_event_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("v")
    sim.run()
    got = []

    def waiter():
        v = yield ev
        got.append(v)

    sim.process(waiter())
    sim.run()
    assert got == ["v"]


def test_determinism_same_trace_twice():
    def build():
        sim = Simulator()
        log = []

        def proc(i):
            yield sim.timeout(i % 3)
            log.append((sim.now, i))
            yield sim.timeout((i * 7) % 5)
            log.append((sim.now, -i))

        for i in range(20):
            sim.process(proc(i))
        sim.run()
        return log

    assert build() == build()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    assert sim.peek() == 7.0


def test_reentrant_run_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        sim.run()  # illegal: we're inside run()

    sim.process(proc())
    with pytest.raises(SimulationError, match="re-entrantly"):
        sim.run()


def test_run_until_event_deadlock_detected(sanitize=False):
    sim = Simulator(sanitize=sanitize)
    never = sim.event()
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_event(never)


def test_sanitized_run_until_event_deadlock_detected():
    test_run_until_event_deadlock_detected(sanitize=True)


def test_run_until_event_limit(sanitize=False):
    sim = Simulator(sanitize=sanitize)
    ev = sim.event()

    def late():
        yield sim.timeout(100.0)
        ev.succeed("v")

    sim.process(late())
    with pytest.raises(SimulationError, match="did not fire"):
        sim.run_until_event(ev, limit=10.0)
    # and it can still complete afterwards
    assert sim.run_until_event(ev) == "v"


def test_sanitized_run_until_event_limit():
    test_run_until_event_limit(sanitize=True)


def test_run_until_event_raises_event_failure():
    sim = Simulator()
    ev = sim.event()

    def failer():
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    sim.process(failer())
    with pytest.raises(ValueError, match="boom"):
        sim.run_until_event(ev)


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def proc():
        v = yield sim.timeout(2.0, value="payload")
        got.append(v)

    sim.process(proc())
    sim.run()
    assert got == ["payload"]


def test_any_of_propagates_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("child died")

    def main():
        p = sim.process(bad())
        try:
            yield AnyOf(sim, [p, sim.timeout(50.0)])
        except RuntimeError as e:
            return str(e)
        return "no error"

    m = sim.process(main())
    assert sim.run_until_complete(m) == "child died"


def test_interrupt_while_holding_resource():
    """Interrupting a process mid-critical-section must not corrupt the
    resource (the holder releases in its except path)."""
    from repro.simnet import Resource

    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def holder():
        req = res.request()
        yield req
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            log.append("interrupted")
        finally:
            res.release(req)

    def other():
        req = res.request()
        yield req
        log.append(("other-in", sim.now))
        res.release(req)

    p = sim.process(holder())
    sim.process(other())

    def killer():
        yield sim.timeout(5.0)
        p.interrupt()

    sim.process(killer())
    sim.run()
    assert log == ["interrupted", ("other-in", 5.0)]
