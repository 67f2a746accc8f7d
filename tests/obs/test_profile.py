"""Tests for DES hot-path profiling."""

from __future__ import annotations

import itertools

import pytest

from repro.obs.profile import EventProfiler, event_type, profiled
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import make_node
from repro.runtime.watchdog import Watchdog, WatchdogExpired
from repro.sim.engine import Delay, Simulator
from repro.workloads.task import CallTrace, HardwareTask


def small_trace(n: int = 6) -> CallTrace:
    lib = [HardwareTask(name, 0.05) for name in ("a", "b", "c")]
    return CallTrace([lib[i % 3] for i in range(n)], name="small")


class TestEventType:
    def test_strips_indices(self):
        assert event_type("task17") == "task"
        assert event_type("cfg3") == "cfg"
        assert event_type("blade3:wave2") == "blade:wave"
        assert event_type("icap-prefetch-4") == "icap-prefetch"

    def test_anonymous(self):
        assert event_type("") == "(anonymous)"
        assert event_type("42") == "(anonymous)"


class TestEventProfiler:
    def test_attributes_wall_gaps_to_event_types(self):
        ticks = itertools.count(start=0.0, step=1.0)
        profiler = EventProfiler(clock=lambda: next(ticks))
        sim = Simulator()

        def worker():
            yield Delay(1.0)
            yield Delay(1.0)

        sim.spawn(worker(), name="worker1")
        sim.watchdog = profiler.start(sim)
        sim.run()
        sim.watchdog = None
        assert profiler.events == sim.events_processed
        assert "worker" in profiler.stats
        count, total = profiler.stats["worker"]
        assert count == profiler.events
        # the fake clock advances one second per hook call
        assert total == pytest.approx(float(count))
        assert profiler.total_seconds == pytest.approx(float(count))

    def test_top_and_render(self):
        profiler = EventProfiler(clock=lambda: 0.0)
        profiler.stats = {"cfg": [10, 0.5], "task": [5, 1.5]}
        profiler.events = 15
        rows = profiler.top(1)
        assert rows[0]["event_type"] == "task"
        text = profiler.render()
        assert "task" in text and "(all)" in text

    def test_render_empty(self):
        assert EventProfiler().render() == "(no events profiled)"

    def test_chains_watchdog(self):
        sim = Simulator()

        def spinner():
            while True:
                yield Delay(1.0)

        sim.spawn(spinner(), name="spin")
        watchdog = Watchdog(max_events=5)
        profiler = EventProfiler(chain=watchdog)
        sim.watchdog = profiler.start(sim)
        with pytest.raises(WatchdogExpired):
            sim.run()
        assert watchdog.expired_reason == "event-budget"
        assert profiler.events == 5


class TestProfiledContext:
    def test_restores_previous_watchdog(self):
        sim = Simulator()
        sentinel = Watchdog(max_events=10_000)
        sim.watchdog = sentinel
        with profiled(sim) as profiler:
            assert sim.watchdog is profiler
            assert profiler.chain is sentinel
        assert sim.watchdog is sentinel

    def test_profiling_does_not_change_results(self):
        trace = small_trace(9)
        plain = PrtrExecutor(make_node()).run(trace)
        node = make_node()
        with profiled(node.sim) as profiler:
            profiled_run = PrtrExecutor(node).run(trace)
        assert profiler.events > 0
        assert profiled_run.total_time == plain.total_time
        assert [r.end for r in profiled_run.records] == [
            r.end for r in plain.records
        ]
        # the hot path actually shows up, attributed by type
        assert any("cfg" in key for key in profiler.stats)
