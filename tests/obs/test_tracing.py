"""Tests for Chrome trace-event export."""

from __future__ import annotations

import json

import pytest

from repro.obs.tracing import (
    US_PER_S,
    chrome_trace_events,
    cluster_to_chrome,
    comparison_to_chrome,
    run_to_chrome,
    trace_document,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.rtr.cluster import run_cluster
from repro.rtr.runner import compare
from repro.sim.trace import Timeline
from repro.workloads.task import CallTrace, HardwareTask


def small_trace(n: int = 6) -> CallTrace:
    lib = [HardwareTask(name, 0.05) for name in ("a", "b", "c")]
    return CallTrace([lib[i % 3] for i in range(n)], name="small")


class TestChromeEvents:
    def make_timeline(self) -> Timeline:
        tl = Timeline()
        tl.add("config", 0.0, 1.5, lane="icap", task="sobel", note="partial")
        tl.add("task", 0.5, 2.0, lane="prr", task="median")
        return tl

    def test_events_schema(self):
        events = chrome_trace_events(
            self.make_timeline(), process_name="run", sort_index=3
        )
        doc = trace_document(events)
        assert validate_chrome_trace(doc) == []
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {
            "process_name", "process_sort_index", "thread_name",
        }
        xs = [e for e in events if e["ph"] == "X"]
        assert xs[0]["ts"] == 0.0
        assert xs[0]["dur"] == pytest.approx(1.5 * US_PER_S)
        assert xs[0]["args"] == {"task": "sobel", "note": "partial"}

    def test_lanes_become_distinct_threads(self):
        events = chrome_trace_events(self.make_timeline())
        xs = [e for e in events if e["ph"] == "X"]
        assert len({e["tid"] for e in xs}) == 2

    def test_golden_round_trip(self, tmp_path):
        """Written file parses back to the exact same document."""
        events = comparison_to_chrome(compare(small_trace()))
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), events)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(
            json.dumps(trace_document(events), sort_keys=True)
        )
        assert loaded["displayTimeUnit"] == "ms"
        assert validate_chrome_trace(loaded) == []

    def test_comparison_uses_two_processes(self):
        events = comparison_to_chrome(compare(small_trace()))
        assert {e["pid"] for e in events} == {1, 2}
        names = [
            e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        ]
        assert any(n.startswith("frtr:") for n in names)
        assert any(n.startswith("prtr:") for n in names)

    def test_cluster_process_per_blade(self):
        cluster = run_cluster([small_trace(3), small_trace(3)])
        events = cluster_to_chrome(cluster)
        assert {e["pid"] for e in events} == {1, 2}

    def test_interrupted_run_is_marked(self):
        class FakeRun:
            mode = "prtr"
            trace_name = "t"
            interrupted = True
            timeline = Timeline()

        events = run_to_chrome(FakeRun())
        (meta,) = [e for e in events if e.get("name") == "process_name"]
        assert meta["args"]["name"].endswith("(interrupted)")


class TestValidate:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"foo": 1}) != []

    def test_rejects_bad_events(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "name": "a", "pid": 1, "tid": 1,
                 "ts": -1.0, "dur": 2.0},
                {"ph": "B", "name": "b", "pid": 1, "tid": 1},
                {"ph": "M", "name": "mystery", "pid": 1, "tid": 0},
                "not-an-object",
            ]
        }
        problems = validate_chrome_trace(doc)
        assert len(problems) == 4

    def test_exporter_output_is_clean(self):
        events = chrome_trace_events(Timeline())
        assert validate_chrome_trace(trace_document(events)) == []
