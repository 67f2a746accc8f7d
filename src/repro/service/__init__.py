"""Multi-tenant service mode: open arrivals on a shared PRR pool.

The paper's closing claim is that PRTR beats FRTR "for versatility
purposes, multi-tasking applications, and hardware virtualization".
:mod:`repro.rtr.multitask` measures that claim closed-loop; this package
stresses it open-loop — the reconfigurable node run as a *service*:

* :mod:`repro.service.tenants` — tenant specifications (priority, task
  mix, SLO, rate limits) and the service configuration;
* :mod:`repro.service.arrivals` — seeded Poisson/bursty/diurnal arrival
  processes, lazily generated so horizons with millions of requests
  stay cheap;
* :mod:`repro.service.admission` — token-bucket rate limiting, bounded
  per-tenant queues, and explicit admit/queue/shed decisions;
* :mod:`repro.service.fabric` — the shared PRR pool: residency,
  pinning, reconfiguration, retired and blocked slots;
* :mod:`repro.service.scheduler` — the preemptive scheduler
  time-sharing that pool with checkpoint/evict/restore costs and
  priority aging;
* :mod:`repro.service.slo` — per-tenant p50/p99/p999 latency, Jain
  fairness, shed and SLO-violation rates as a canonical report;
* :mod:`repro.service.runner` — the journaled, kill-and-resume-safe
  harness behind ``repro serve``.

Determinism contract: one master seed drives per-tenant substreams via
:func:`repro.model.stochastic.resolve_rng`; same seed, same spec ->
byte-identical SLO report, under any worker count and across
kill-and-resume.  The scheduler is the one loop that time-shares the
:class:`~repro.service.fabric.PrrFabric`:
:func:`~repro.rtr.multitask.compare_multitask` runs its PRTR half as one
service run with admission and preemption off and one closed tenant per
application.
"""

from .admission import AdmissionController, TokenBucket
from .arrivals import ARRIVAL_KINDS, arrival_times, request_stream
from .runner import crash_safe_serve, serve_payload
from .scheduler import Request, ServiceExecutor, ServiceResult, run_service
from .slo import jain_fairness, percentile, render_report, report_json, slo_report
from .tenants import (
    ServiceConfig,
    TaskMix,
    TenantSpec,
    default_tenants,
    load_tenants,
)

__all__ = [
    "ARRIVAL_KINDS",
    "AdmissionController",
    "Request",
    "ServiceConfig",
    "ServiceExecutor",
    "ServiceResult",
    "TaskMix",
    "TenantSpec",
    "TokenBucket",
    "arrival_times",
    "crash_safe_serve",
    "default_tenants",
    "jain_fairness",
    "load_tenants",
    "percentile",
    "render_report",
    "report_json",
    "request_stream",
    "run_service",
    "serve_payload",
    "slo_report",
]
