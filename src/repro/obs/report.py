"""Utilization rollups: where the simulated time actually went.

Post-processing over :class:`~repro.rtr.events.RunResult` objects
(duck-typed — this module never imports the executors) that turns
timelines into the operational summaries the paper's argument needs:

* **ICAP occupancy** — what fraction of the run the configuration port
  was busy (the denominator of every "can prefetching hide this?"
  question);
* **hit-ratio timeline** — the achieved ``H`` as it converges over the
  run, not just the final scalar;
* **configuration-bandwidth rows** — effective bytes/second of every
  configuration span, comparable against the paper's published Table 2
  rows (e.g. dual-PRR: 404,168 bytes in 19.77 ms measured).

Everything returns plain rows/floats; ``render_utilization`` composes
them into the text report the ``repro metrics`` CLI prints.
"""

from __future__ import annotations

from typing import Any

from ..hardware.catalog import PUBLISHED_TABLE2
from ..sim.trace import Phase

__all__ = [
    "config_bandwidth_rows",
    "hit_ratio_timeline",
    "icap_occupancy",
    "lane_utilization",
    "published_bandwidth_rows",
    "render_utilization",
]

#: notes used by the executors on CONFIG spans, mapped to a bytes kind
_FULL_NOTES = ("full", "initial full", "fallback-full")


def lane_utilization(result: Any) -> dict[str, float]:
    """Busy fraction (union of spans / makespan) per timeline lane."""
    timeline = result.timeline
    makespan = timeline.makespan
    if makespan <= 0:
        return {lane: 0.0 for lane in timeline.lanes()}
    return {
        lane: timeline.busy_time(lane) / makespan
        for lane in timeline.lanes()
    }


def icap_occupancy(result: Any, lane: str = "icap") -> float:
    """Fraction of the run's makespan the ICAP lane was busy.

    Returns 0.0 when the run never used the ICAP (e.g. FRTR runs,
    single-PRR serial configurations land on the main lane).
    """
    return lane_utilization(result).get(lane, 0.0)


def hit_ratio_timeline(result: Any) -> list[tuple[float, float]]:
    """``(time, cumulative H)`` after each completed call, in call order.

    The final point equals ``result.hit_ratio``; earlier points show how
    fast the replacement/prefetch machinery converged.
    """
    points: list[tuple[float, float]] = []
    hits = 0
    for i, record in enumerate(result.records, start=1):
        hits += 1 if record.hit else 0
        points.append((record.end, hits / i))
    return points


def config_bandwidth_rows(
    result: Any,
    *,
    partial_bytes: int | None = None,
    full_bytes: int | None = None,
) -> list[dict[str, Any]]:
    """Effective bandwidth of every configuration span in the run.

    Bitstream sizes default to the published Table 2 dual-PRR partial
    (404,168 bytes) and the full image (2,381,764 bytes); pass the run's
    actual sizes when they differ.  Spans with zero duration or unknown
    kind are skipped.
    """
    if partial_bytes is None:
        partial_bytes = PUBLISHED_TABLE2["dual_prr"].bitstream_bytes
    if full_bytes is None:
        full_bytes = PUBLISHED_TABLE2["full"].bitstream_bytes
    rows: list[dict[str, Any]] = []
    for span in result.timeline.by_phase(Phase.CONFIG):
        kind = "full" if span.note in _FULL_NOTES else "partial"
        nbytes = full_bytes if kind == "full" else partial_bytes
        if span.duration <= 0:
            continue
        rows.append(
            {
                "kind": kind,
                "task": span.task,
                "lane": span.lane,
                "start": span.start,
                "seconds": span.duration,
                "bytes": nbytes,
                "mb_per_s": nbytes / span.duration / 1e6,
            }
        )
    return rows


def published_bandwidth_rows() -> list[dict[str, Any]]:
    """Effective configuration bandwidths implied by published Table 2."""
    rows = []
    for key, row in PUBLISHED_TABLE2.items():
        rows.append(
            {
                "layout": row.layout,
                "key": key,
                "bytes": row.bitstream_bytes,
                "measured_mb_per_s": (
                    row.bitstream_bytes / row.measured_time_s / 1e6
                ),
                "estimated_mb_per_s": (
                    row.bitstream_bytes / row.estimated_time_s / 1e6
                ),
            }
        )
    return rows


def _bandwidth_histogram(
    rows: list[dict[str, Any]], n_bins: int = 8, width: int = 40
) -> str:
    """ASCII histogram of effective configuration bandwidth (MB/s)."""
    values = [r["mb_per_s"] for r in rows]
    if not values:
        return "(no configuration spans)"
    lo, hi = min(values), max(values)
    if hi <= lo:
        return f"all {len(values)} configurations at {lo:.2f} MB/s"
    step = (hi - lo) / n_bins
    counts = [0] * n_bins
    for v in values:
        counts[min(int((v - lo) / step), n_bins - 1)] += 1
    peak = max(counts)
    lines = []
    for i, count in enumerate(counts):
        bar = "#" * max(
            1 if count else 0, round(width * count / peak)
        )
        lines.append(
            f"{lo + i * step:>9.2f}-{lo + (i + 1) * step:<9.2f} MB/s "
            f"|{bar:<{width}}| {count}"
        )
    return "\n".join(lines)


def render_utilization(
    result: Any,
    *,
    partial_bytes: int | None = None,
    full_bytes: int | None = None,
) -> str:
    """The full text rollup for one run (what ``repro metrics`` prints)."""
    lines = [f"run: {result.mode}:{result.trace_name}"]
    lines.append(
        f"  makespan            : {result.total_time:.6g} s "
        f"({result.n_calls} calls, hit ratio "
        f"H={result.hit_ratio:.3f})"
    )
    occupancy = icap_occupancy(result)
    lines.append(f"  ICAP occupancy      : {occupancy:.1%}")
    for lane, util in sorted(lane_utilization(result).items()):
        lines.append(f"  lane {lane:<14} : {util:.1%} busy")
    overhead = result.config_overhead()
    share = overhead / result.total_time if result.total_time else 0.0
    lines.append(
        f"  config overhead     : {overhead:.6g} s ({share:.1%} of run)"
    )
    timeline_points = hit_ratio_timeline(result)
    if timeline_points:
        mid = timeline_points[len(timeline_points) // 2]
        lines.append(
            f"  hit-ratio timeline  : H={timeline_points[0][1]:.2f} "
            f"(first) -> {mid[1]:.2f} (mid) -> "
            f"{timeline_points[-1][1]:.2f} (final)"
        )
    rows = config_bandwidth_rows(
        result, partial_bytes=partial_bytes, full_bytes=full_bytes
    )
    if rows:
        lines.append("  configuration bandwidth histogram:")
        for hist_line in _bandwidth_histogram(rows).splitlines():
            lines.append(f"    {hist_line}")
        lines.append("  published Table 2 reference points:")
        for ref in published_bandwidth_rows():
            lines.append(
                f"    {ref['layout']:<20} {ref['bytes']:>9} bytes  "
                f"measured {ref['measured_mb_per_s']:>8.2f} MB/s  "
                f"estimated {ref['estimated_mb_per_s']:>8.2f} MB/s"
            )
    return "\n".join(lines)
