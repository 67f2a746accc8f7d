"""Unit tests for the FRTR executor."""

from __future__ import annotations

import pytest

from repro.rtr import FrtrExecutor, make_node
from repro.sim.trace import Phase
from repro.workloads import CallTrace, HardwareTask


def trace_of(times, names=None) -> CallTrace:
    names = names or [f"t{i}" for i in range(len(times))]
    return CallTrace(
        [HardwareTask(n, t) for n, t in zip(names, times)], name="trace"
    )


class TestFrtrTotals:
    def test_matches_eq1_exactly(self):
        """Total == n*(T_FRTR + T_control) + sum(task times), exactly."""
        node = make_node()
        times = [0.01, 0.02, 0.05, 0.1]
        executor = FrtrExecutor(node, control_time=1e-5)
        result = executor.run(trace_of(times))
        t_cfg = node.full_config_time()
        expected = len(times) * (t_cfg + 1e-5) + sum(times)
        assert result.total_time == pytest.approx(expected, rel=1e-12)

    def test_estimated_mode_uses_wire_time(self):
        node = make_node()
        result = FrtrExecutor(node, estimated=True, control_time=0.0).run(
            trace_of([0.1])
        )
        assert result.total_time == pytest.approx(
            node.full_config_time(estimated=True) + 0.1, rel=1e-12
        )

    def test_every_call_is_a_miss(self):
        result = FrtrExecutor(make_node()).run(trace_of([0.01] * 5))
        assert result.n_configs == 5
        assert result.hit_ratio == 0.0

    def test_default_control_time_from_node(self):
        node = make_node()
        executor = FrtrExecutor(node)
        assert executor.control_time == node.params.control_time

    def test_negative_control_rejected(self):
        with pytest.raises(ValueError):
            FrtrExecutor(make_node(), control_time=-1.0)


class TestFrtrTimeline:
    def test_phases_per_call(self):
        result = FrtrExecutor(make_node()).run(trace_of([0.01, 0.02]))
        assert len(result.timeline.by_phase(Phase.CONFIG)) == 2
        assert len(result.timeline.by_phase(Phase.CONTROL)) == 2
        assert len(result.timeline.by_phase(Phase.TASK)) == 2

    def test_strictly_serial(self):
        result = FrtrExecutor(make_node()).run(trace_of([0.01, 0.02, 0.03]))
        result.timeline.assert_lane_exclusive("main")
        spans = sorted(result.timeline.spans, key=lambda s: s.start)
        for a, b in zip(spans, spans[1:]):
            assert b.start >= a.end - 1e-15

    def test_config_precedes_task_per_call(self):
        trace = trace_of([0.05], names=["median"])
        result = FrtrExecutor(make_node()).run(trace)
        cfg = result.timeline.by_phase(Phase.CONFIG)[0]
        task = result.timeline.by_phase(Phase.TASK)[0]
        assert cfg.end <= task.start

    def test_records_cover_span(self):
        result = FrtrExecutor(make_node()).run(trace_of([0.01, 0.02]))
        assert result.records[0].start == 0.0
        assert result.records[-1].end == pytest.approx(result.total_time)

    def test_mean_task_time_recorded(self):
        result = FrtrExecutor(make_node()).run(trace_of([0.01, 0.03]))
        assert result.notes["mean_task_time"] == pytest.approx(0.02)


class TestRunResultApi:
    def test_summary_keys(self):
        result = FrtrExecutor(make_node()).run(trace_of([0.01]))
        s = result.summary()
        assert {"total_time", "n_calls", "n_configs", "hit_ratio"} <= set(s)

    def test_raw_parameters_bridge(self):
        result = FrtrExecutor(make_node()).run(trace_of([0.01] * 3))
        raw = result.raw_parameters(
            t_frtr=1.0, t_prtr=0.1, t_control=1e-5
        )
        assert float(raw.hit_ratio) == 0.0
        assert float(raw.t_task) == pytest.approx(0.01)

    def test_raw_parameters_requires_task_time(self):
        result = FrtrExecutor(make_node()).run(trace_of([0.01]))
        del result.notes["mean_task_time"]
        with pytest.raises(ValueError, match="t_task"):
            result.raw_parameters(t_frtr=1.0, t_prtr=0.1)
