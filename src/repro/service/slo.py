"""Per-tenant SLO reporting: latency percentiles, fairness, shed rates.

The report is the service's contract surface: for each tenant the
latency tail (p50/p99/p999 by the nearest-rank method, so a reported
percentile is always an actually observed latency), the shed rate, and
the SLO-violation rate — a violation being a request that either
completed later than the tenant's ``slo_latency`` or was shed outright.
Service-wide, Jain's fairness index over per-tenant completions captures
how evenly capacity was shared.

Everything here is pure arithmetic over a
:class:`~repro.service.scheduler.ServiceResult`; :func:`report_json`
renders the canonical byte form (sorted keys, fixed float formatting via
``repr``-stable Python floats) used by the determinism and
kill-and-resume tests.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Sequence

from ..sim.engine import left_sum
from .scheduler import ServiceResult, TenantOutcome

__all__ = [
    "jain_fairness",
    "percentile",
    "render_report",
    "report_json",
    "slo_report",
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Returns ``nan`` for an empty sample — the caller decides how to
    render "no data", arithmetic never invents one.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)``.

    1.0 is perfectly even, ``1/n`` maximally skewed.  Empty or all-zero
    allocations count as perfectly fair (nothing was allocated
    unevenly).
    """
    if not values:
        return 1.0
    total = left_sum(values)
    squares = left_sum(v * v for v in values)
    if squares < sys.float_info.min:
        # Tiny shares square into subnormals (or 0) and lose precision;
        # the index is scale-invariant, so rescale by the largest share.
        peak = max(values)
        if peak == 0:
            return 1.0
        values = [v / peak for v in values]
        total = left_sum(values)
        squares = left_sum(v * v for v in values)
    return (total * total) / (len(values) * squares)


def _tenant_report(outcome: TenantOutcome) -> dict[str, Any]:
    """The per-tenant slice of the SLO report."""
    lat = outcome.latencies
    late = sum(1 for v in lat if v > outcome.slo_latency)
    violations = late + outcome.shed_total
    arrived = outcome.arrived
    return {
        "priority": outcome.priority,
        "arrived": arrived,
        "completed": outcome.completed,
        "shed": dict(sorted(outcome.shed.items())),
        "shed_total": outcome.shed_total,
        "in_flight": outcome.in_flight,
        "decisions": dict(sorted(outcome.decisions.items())),
        "preemptions": outcome.preemptions,
        "migrations": outcome.migrations,
        "configs": outcome.configs,
        "backlog_peak": outcome.backlog_peak,
        # An empty sample serializes as null, not NaN: RFC 8259 has no
        # NaN token, so a zero-completion tenant must not poison the
        # canonical report JSON for strict parsers.
        "latency": {
            "p50": percentile(lat, 50.0) if lat else None,
            "p99": percentile(lat, 99.0) if lat else None,
            "p999": percentile(lat, 99.9) if lat else None,
            "mean": (left_sum(lat) / len(lat)) if lat else None,
            "max": max(lat) if lat else None,
        },
        "slo_latency": outcome.slo_latency,
        "slo_violations": violations,
        "slo_violation_rate": (violations / arrived) if arrived else 0.0,
        "shed_rate": (outcome.shed_total / arrived) if arrived else 0.0,
    }


def slo_report(result: ServiceResult) -> dict[str, Any]:
    """The full SLO report for one service run, as a plain dict."""
    return {
        "makespan": result.makespan,
        "horizon": result.horizon,
        "interrupted": result.interrupted,
        "fills": result.fills,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "retired_slots": list(result.retired),
        "totals": {
            "arrived": result.total_arrived,
            "completed": result.total_completed,
            "shed": result.total_shed,
            "in_flight": result.total_in_flight,
        },
        "fairness_jain": jain_fairness(
            [float(t.completed) for t in result.tenants]
        ),
        "tenants": {t.name: _tenant_report(t) for t in result.tenants},
    }


def report_json(report: dict[str, Any]) -> str:
    """Canonical byte form of a report: sorted keys, no whitespace games.

    Strict RFC 8259 output: empty-sample statistics are ``None`` in the
    report (see :func:`slo_report`) and serialize as ``null``;
    ``allow_nan=False`` guarantees a non-finite float can never slip a
    bare ``NaN``/``Infinity`` token — invalid JSON — into the canonical
    bytes again.
    """
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False)


def _fmt(value: float | None) -> str:
    """Human cell: millisecond precision, dash for no-data.

    ``None`` (an empty-sample statistic from :func:`slo_report`) and
    ``nan`` (raw :func:`percentile` output) both mean "no data".
    """
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    return f"{value:.4f}"


def render_report(report: dict[str, Any]) -> str:
    """Human-readable table view of :func:`slo_report` output."""
    lines = [
        f"service run: makespan={report['makespan']:.4f}s "
        f"horizon={report['horizon']:.1f}s "
        f"fills={report['fills']} "
        f"jain={report['fairness_jain']:.4f}"
        + (
            f"  [INTERRUPTED: {report['interrupted']}]"
            if report["interrupted"]
            else ""
        ),
        f"totals: arrived={report['totals']['arrived']} "
        f"completed={report['totals']['completed']} "
        f"shed={report['totals']['shed']} "
        f"in_flight={report['totals']['in_flight']}",
    ]
    if report["retired_slots"]:
        lines.append(f"retired PRR slots: {report['retired_slots']}")
    header = (
        f"{'tenant':<10} {'pri':>3} {'arrived':>8} {'done':>8} "
        f"{'shed':>6} {'p50':>9} {'p99':>9} {'p999':>9} "
        f"{'viol%':>7} {'shed%':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    # Sort explicitly: a journal round trip alphabetizes dict keys, and
    # the rendering must not depend on which side it came from.
    ordered = sorted(
        report["tenants"].items(),
        key=lambda kv: (-kv[1]["priority"], kv[0]),
    )
    for name, t in ordered:
        lines.append(
            f"{name:<10} {t['priority']:>3} {t['arrived']:>8} "
            f"{t['completed']:>8} {t['shed_total']:>6} "
            f"{_fmt(t['latency']['p50']):>9} "
            f"{_fmt(t['latency']['p99']):>9} "
            f"{_fmt(t['latency']['p999']):>9} "
            f"{100.0 * t['slo_violation_rate']:>6.2f}% "
            f"{100.0 * t['shed_rate']:>6.2f}%"
        )
    return "\n".join(lines)
