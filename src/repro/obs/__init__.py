"""Observability: metrics, trace export, profiling, utilization reports.

The paper's whole argument is about *where time goes* — execution
profiles (Figs. 2-4), hit-ratio-driven bounds, ICAP throughput
measurements (Tables 1-2).  This package makes the same quantities
first-class observables of every simulated run:

:mod:`repro.obs.metrics`
    Counter/gauge/histogram registry with labeled series and a declared
    catalog.  Disabled by default; the disabled path is a no-op and
    runs are bit-identical to an uninstrumented build.
:mod:`repro.obs.tracing`
    Chrome trace-event JSON export of :class:`~repro.sim.trace.Timeline`
    spans (``chrome://tracing`` / Perfetto), one lane per
    FPGA/ICAP/channel/blade.
:mod:`repro.obs.profile`
    DES hot-path profiling through the simulator's watchdog hook point.
:mod:`repro.obs.report`
    Utilization rollups: ICAP occupancy, hit-ratio timelines,
    configuration-bandwidth histograms vs Table 2.

CLI: ``repro trace --out trace.json`` and ``repro metrics``.  The
architecture and metric catalog are documented in
``docs/OBSERVABILITY.md``; ``docs/ARCHITECTURE.md`` places the package
in the system map.

Usage::

    from repro.obs import metrics

    with metrics.observed():
        result = compare(trace, force_miss=True)
    print(metrics.render())
"""

from __future__ import annotations

from . import metrics, profile, report, tracing
from .metrics import MetricsRegistry, observed
from .profile import EventProfiler, profiled
from .report import icap_occupancy, render_utilization
from .tracing import (
    chrome_trace_events,
    trace_document,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "EventProfiler",
    "MetricsRegistry",
    "chrome_trace_events",
    "icap_occupancy",
    "metrics",
    "observed",
    "profile",
    "profiled",
    "render_utilization",
    "report",
    "trace_document",
    "tracing",
    "validate_chrome_trace",
    "write_chrome_trace",
]
