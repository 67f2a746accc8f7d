"""Unit tests for the DES kernel (:mod:`repro.sim.engine`)."""

from __future__ import annotations

import pytest

from repro.sim import (
    AllOf,
    Delay,
    SimulationError,
    Simulator,
    WaitEvent,
)
from repro.sim.engine import WaitUntil


class TestDelay:
    def test_positive_delay_advances_clock(self):
        sim = Simulator()
        seen = []

        def proc():
            yield Delay(5.0)
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_zero_delay_is_allowed(self):
        sim = Simulator()
        seen = []

        def proc():
            yield Delay(0.0)
            seen.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert seen == [0.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError, match="negative delay"):
            Delay(-1.0)

    def test_sequential_delays_accumulate(self):
        sim = Simulator()
        times = []

        def proc():
            for d in (1.0, 2.0, 3.5):
                yield Delay(d)
                times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [1.0, 3.0, 6.5]


class TestOrdering:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []

        def make(delay, tag):
            def proc():
                yield Delay(delay)
                order.append(tag)

            return proc

        for delay, tag in [(3.0, "c"), (1.0, "a"), (2.0, "b")]:
            sim.spawn(make(delay, tag)())
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_spawn_order(self):
        sim = Simulator()
        order = []

        def make(tag):
            def proc():
                yield Delay(1.0)
                order.append(tag)

            return proc

        for tag in "abcd":
            sim.spawn(make(tag)())
        sim.run()
        assert order == list("abcd")

    def test_clock_never_goes_backwards(self):
        sim = Simulator()
        stamps = []

        def proc(d):
            yield Delay(d)
            stamps.append(sim.now)

        for d in (5.0, 1.0, 3.0, 1.0, 4.0):
            sim.spawn(proc(d))
        sim.run()
        assert stamps == sorted(stamps)


class TestSignals:
    def test_wait_resumes_on_succeed(self):
        sim = Simulator()
        sig = sim.signal("go")
        seen = []

        def waiter():
            value = yield WaitEvent(sig)
            seen.append((sim.now, value))

        def firer():
            yield Delay(2.0)
            sig.succeed("payload")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert seen == [(2.0, "payload")]

    def test_wait_on_fired_signal_is_immediate(self):
        sim = Simulator()
        sig = sim.signal()
        sig.succeed(42)
        seen = []

        def waiter():
            value = yield WaitEvent(sig)
            seen.append(value)

        sim.spawn(waiter())
        sim.run()
        assert seen == [42]

    def test_double_fire_raises(self):
        sim = Simulator()
        sig = sim.signal()
        sig.succeed()
        with pytest.raises(SimulationError, match="fired twice"):
            sig.succeed()

    def test_value_before_fire_raises(self):
        sim = Simulator()
        sig = sim.signal("pending")
        with pytest.raises(SimulationError, match="has not fired"):
            _ = sig.value

    def test_multiple_waiters_all_resume(self):
        sim = Simulator()
        sig = sim.signal()
        seen = []

        def waiter(tag):
            yield WaitEvent(sig)
            seen.append(tag)

        for tag in "xyz":
            sim.spawn(waiter(tag))
        sim.schedule_at(1.0, lambda: sig.succeed())
        sim.run()
        assert sorted(seen) == ["x", "y", "z"]

    def test_yield_bare_signal_works(self):
        sim = Simulator()
        sig = sim.signal()
        seen = []

        def waiter():
            yield sig
            seen.append(sim.now)

        sim.spawn(waiter())
        sim.schedule_at(3.0, lambda: sig.succeed())
        sim.run()
        assert seen == [3.0]


class TestAllOf:
    def test_waits_for_every_signal(self):
        sim = Simulator()
        sigs = [sim.signal(str(i)) for i in range(3)]
        seen = []

        def waiter():
            yield AllOf(sigs)
            seen.append(sim.now)

        sim.spawn(waiter())
        for i, sig in enumerate(sigs):
            sim.schedule_at(float(i + 1), lambda s=sig: s.succeed())
        sim.run()
        assert seen == [3.0]

    def test_all_already_fired_resumes_now(self):
        sim = Simulator()
        sigs = [sim.signal() for _ in range(2)]
        for sig in sigs:
            sig.succeed()
        seen = []

        def waiter():
            yield AllOf(sigs)
            seen.append(sim.now)

        sim.spawn(waiter())
        sim.run()
        assert seen == [0.0]

    def test_mixed_fired_and_pending(self):
        sim = Simulator()
        fired = sim.signal()
        fired.succeed()
        pending = sim.signal()
        seen = []

        def waiter():
            yield AllOf([fired, pending])
            seen.append(sim.now)

        sim.spawn(waiter())
        sim.schedule_at(4.0, lambda: pending.succeed())
        sim.run()
        assert seen == [4.0]


class TestProcessJoin:
    def test_yield_process_waits_for_completion(self):
        sim = Simulator()
        seen = []

        def child():
            yield Delay(7.0)
            return "child-result"

        def parent():
            proc = sim.spawn(child(), name="child")
            yield proc
            seen.append((sim.now, proc.result))

        sim.spawn(parent())
        sim.run()
        assert seen == [(7.0, "child-result")]

    def test_process_result_before_done_raises(self):
        sim = Simulator()

        def child():
            yield Delay(1.0)

        proc = sim.spawn(child())
        with pytest.raises(SimulationError):
            _ = proc.result
        sim.run()
        assert proc.finished
        assert proc.result is None

    def test_join_finished_process_is_immediate(self):
        sim = Simulator()
        seen = []

        def child():
            yield Delay(1.0)
            return 5

        def parent(proc):
            yield Delay(10.0)
            yield proc  # already done
            seen.append(sim.now)

        proc = sim.spawn(child())
        sim.spawn(parent(proc))
        sim.run()
        assert seen == [10.0]


class TestScheduling:
    def test_schedule_at_runs_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_schedule_at_fires_at_exactly_its_time(self):
        # now + (time - now) rounds to one ulp below this time, so a
        # relative Delay would fire early.
        start, time = 0.006807275057689415, 0.014862510939764586
        assert start + (time - start) != time
        sim = Simulator()
        seen = []

        def proc():
            yield Delay(start)
            sim.schedule_at(time, lambda: seen.append(sim.now))

        sim.spawn(proc())
        sim.run()
        assert seen == [time]

    def test_wait_until_in_past_raises(self):
        sim = Simulator()

        def proc():
            yield Delay(1.0)
            yield WaitUntil(0.5)

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="past"):
            sim.run()

    def test_wait_until_ties_order_by_schedule_seq(self):
        sim = Simulator()
        fired = []

        def absolute(tag):
            yield WaitUntil(2.0)
            fired.append(tag)

        def relative(tag):
            yield Delay(2.0)
            fired.append(tag)

        sim.spawn(relative("a"))
        sim.spawn(absolute("b"))
        sim.spawn(relative("c"))
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.now == 2.0

    def test_run_until_stops_early(self):
        sim = Simulator()
        seen = []

        def proc():
            for _ in range(10):
                yield Delay(1.0)
                seen.append(sim.now)

        sim.spawn(proc())
        sim.run(until=3.5)
        assert seen == [1.0, 2.0, 3.0]
        assert sim.now == 3.5
        sim.run()
        assert seen[-1] == 10.0

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "nonsense"

        sim.spawn(proc())
        with pytest.raises(SimulationError, match="unsupported"):
            sim.run()

    def test_event_counter(self):
        sim = Simulator()

        def proc():
            yield Delay(1.0)
            yield Delay(1.0)

        sim.spawn(proc())
        sim.run()
        assert sim.events_processed == 3  # spawn + 2 resumes


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(tag, delays):
                for d in delays:
                    yield Delay(d)
                    log.append((sim.now, tag))

            sim.spawn(worker("a", [1.0, 2.0, 0.5]))
            sim.spawn(worker("b", [0.5, 0.5, 3.0]))
            sim.spawn(worker("c", [2.0, 2.0]))
            sim.run()
            return log

        assert build_and_run() == build_and_run()
