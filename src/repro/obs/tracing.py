"""Chrome trace-event export of simulated runs.

:class:`~repro.sim.trace.Timeline` records the spans of a run (the
paper's Fig. 2-4 execution profiles).  This module turns timelines and
run results into **Chrome trace-event JSON** — the format
``chrome://tracing`` and Perfetto (https://ui.perfetto.dev) load
directly.  Lanes become named threads, runs become named processes, and
one simulated second maps to one trace second (timestamps are emitted
in microseconds, the format's native unit).

The export is pure read-only post-processing: it never mutates the
timeline and works on completed, interrupted, and merged runs alike.

Example
-------
>>> from repro.sim.trace import Timeline
>>> tl = Timeline()
>>> tl.add("config", 0.0, 1.5, lane="icap", task="sobel")
>>> doc = trace_document(chrome_trace_events(tl, process_name="demo"))
>>> sorted(doc) == ["displayTimeUnit", "traceEvents"]
True
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from ..sim.trace import Timeline

__all__ = [
    "chrome_trace_events",
    "cluster_to_chrome",
    "comparison_to_chrome",
    "run_to_chrome",
    "trace_document",
    "validate_chrome_trace",
    "write_chrome_trace",
]

#: one simulated second in trace-event timestamp units (microseconds)
US_PER_S = 1e6


def _lane_tids(timeline: Timeline) -> dict[str, int]:
    return {lane: tid for tid, lane in enumerate(timeline.lanes(), start=1)}


def chrome_trace_events(
    timeline: Timeline,
    *,
    pid: int = 1,
    process_name: str = "",
    sort_index: int | None = None,
) -> list[dict[str, Any]]:
    """Convert one timeline into a list of Chrome trace events.

    Every lane becomes a named thread (``tid``) of process ``pid``;
    every span becomes a complete ("X") event whose ``args`` carry the
    task and note fields.  Metadata ("M") events name the process and
    threads so Perfetto's track labels are readable.
    """
    events: list[dict[str, Any]] = []
    if process_name:
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": process_name},
            }
        )
    if sort_index is not None:
        events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": sort_index},
            }
        )
    tids = _lane_tids(timeline)
    for lane, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": lane},
            }
        )
    for span in sorted(
        timeline.spans, key=lambda s: (s.start, s.lane, s.end)
    ):
        args: dict[str, Any] = {}
        if span.task:
            args["task"] = span.task
        if span.note:
            args["note"] = span.note
        events.append(
            {
                "name": span.phase,
                "cat": span.phase,
                "ph": "X",
                "ts": span.start * US_PER_S,
                "dur": span.duration * US_PER_S,
                "pid": pid,
                "tid": tids[span.lane],
                "args": args,
            }
        )
    return events


def trace_document(
    events: Sequence[dict[str, Any]],
) -> dict[str, Any]:
    """Wrap events in the JSON-object trace container format."""
    return {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
    }


def run_to_chrome(
    result: Any, *, pid: int = 1, sort_index: int | None = None
) -> list[dict[str, Any]]:
    """Events for one :class:`~repro.rtr.events.RunResult`."""
    name = f"{result.mode}:{result.trace_name}"
    if getattr(result, "interrupted", False):
        name += " (interrupted)"
    return chrome_trace_events(
        result.timeline,
        pid=pid,
        process_name=name,
        sort_index=sort_index,
    )


def comparison_to_chrome(comparison: Any) -> list[dict[str, Any]]:
    """Events for a paired FRTR/PRTR comparison: one process per run."""
    events = run_to_chrome(comparison.frtr, pid=1, sort_index=1)
    events.extend(run_to_chrome(comparison.prtr, pid=2, sort_index=2))
    return events


def cluster_to_chrome(cluster: Any) -> list[dict[str, Any]]:
    """Events for a cluster run: one process per blade (+ second waves)."""
    events: list[dict[str, Any]] = []
    pid = 1
    for blade in list(cluster.blades) + list(cluster.redistributed):
        events.extend(run_to_chrome(blade, pid=pid, sort_index=pid))
        pid += 1
    return events


def write_chrome_trace(path: str, events: Sequence[dict[str, Any]]) -> None:
    """Write events as a trace-document JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_document(events), fh, indent=None, sort_keys=True)
        fh.write("\n")


def validate_chrome_trace(document: Any) -> list[str]:
    """Schema-check a trace document; returns a list of problems.

    This is the loadability contract the CLI and tests enforce: a
    document with no problems loads in ``chrome://tracing``/Perfetto.
    """
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"document must be a JSON object, got {type(document)!r}"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["document lacks a traceEvents array"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "M"):
            problems.append(f"{where}: unsupported phase {ph!r}")
            continue
        for field_name in ("pid", "tid"):
            if not isinstance(ev.get(field_name), int):
                problems.append(f"{where}: missing integer {field_name!r}")
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            problems.append(f"{where}: missing name")
        if ph == "X":
            ts, dur = ev.get("ts"), ev.get("dur")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        elif ev.get("name") not in (
            "process_name",
            "process_sort_index",
            "thread_name",
            "thread_sort_index",
        ):
            problems.append(
                f"{where}: unknown metadata record {ev.get('name')!r}"
            )
    return problems
