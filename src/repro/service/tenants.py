"""Tenant specifications and the service-mode configuration.

A :class:`TenantSpec` is everything the service knows about one tenant:
how its requests arrive (open Poisson/bursty/diurnal streams or a closed
replayed trace), which hardware modules it calls (a weighted
:class:`TaskMix`), how important it is (``priority``, higher wins), what
latency it was promised (``slo_latency``), and how hard the admission
controller may push back (token-bucket ``rate_limit``/``bucket`` and the
bounded ``queue_capacity``).

:class:`ServiceConfig` holds the knobs that belong to the service as a
whole: the arrival horizon, preemption quantum and checkpoint/restore
costs (the preemptive-scheduling cost model), priority aging, the
overload high-water mark, scheduled blade degradations, and the fault
rates forwarded to :class:`~repro.faults.injector.FaultInjector`.

Tenant specs can be loaded from a JSON document (``repro serve
--tenants spec.json``); :func:`default_tenants` provides the built-in
gold/silver/bronze mix used when no spec file is given.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

from ..faults.injector import FaultConfig
from ..workloads.task import CallTrace

__all__ = [
    "ARRIVAL_KINDS",
    "ServiceConfig",
    "TaskMix",
    "TenantSpec",
    "default_tenants",
    "load_tenants",
    "tenant_from_dict",
]

#: supported arrival-process kinds (see :mod:`repro.service.arrivals`)
ARRIVAL_KINDS = ("poisson", "bursty", "diurnal", "closed")


@dataclass(frozen=True)
class TaskMix:
    """One weighted entry of a tenant's hardware-call mix."""

    module: str
    time: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.module:
            raise ValueError("task mix module name must be non-empty")
        if self.time <= 0:
            raise ValueError(f"task time must be > 0: {self.module}")
        if self.weight <= 0:
            raise ValueError(f"task weight must be > 0: {self.module}")


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of the service: arrivals, mix, priority and limits.

    Attributes
    ----------
    name:
        Service-unique tenant identifier.
    priority:
        Scheduling priority; *higher* values are more important.  The
        scheduler ages waiting requests (see
        :attr:`ServiceConfig.aging_rate`) so low-priority tenants never
        starve outright.
    arrival:
        One of :data:`ARRIVAL_KINDS`.  Open kinds generate a seeded
        stream until the horizon; ``closed`` replays :attr:`trace`
        call-by-call (each request issued when the previous completes,
        as :func:`~repro.rtr.multitask.compare_multitask` runs each
        application).
    rate:
        Long-run mean arrival rate (requests per simulated second) for
        the open kinds.
    burst_factor, burst_on, burst_off:
        Bursty (on/off modulated Poisson) shape: mean on/off phase
        lengths in seconds; arrivals only occur during on-phases, at a
        rate scaled so the long-run mean stays :attr:`rate`.
    period:
        Diurnal cycle length in seconds (sinusoidal rate modulation).
    tasks:
        The weighted hardware-call mix sampled per request (open kinds).
    trace:
        The replayed :class:`~repro.workloads.task.CallTrace` (closed).
    slo_latency:
        Promised arrival-to-completion latency; completions slower than
        this count as SLO violations.
    rate_limit, bucket:
        Token-bucket admission limit: sustained tokens/second and burst
        capacity.  ``rate_limit == 0`` disables the bucket.
    queue_capacity:
        Bound on this tenant's backlog (queued, not-yet-running
        requests); arrivals beyond it are shed with reason
        ``queue_full``.
    start:
        Seconds after service boot at which a closed tenant issues its
        first call (an application's
        :attr:`~repro.rtr.multitask.AppSpec.arrival_time`).  Open
        tenants start at boot and take only 0; :meth:`as_dict` omits
        the key at 0.
    """

    name: str
    priority: int = 0
    arrival: str = "poisson"
    rate: float = 1.0
    burst_factor: float = 8.0
    burst_on: float = 5.0
    burst_off: float = 20.0
    period: float = 50.0
    tasks: tuple[TaskMix, ...] = ()
    trace: CallTrace | None = None
    slo_latency: float = 1.0
    rate_limit: float = 0.0
    bucket: float = 1.0
    queue_capacity: int = 64
    start: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.start < 0:
            raise ValueError(f"tenant {self.name!r} start must be >= 0")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"unknown arrival kind {self.arrival!r}; "
                f"expected one of {ARRIVAL_KINDS}"
            )
        if self.arrival == "closed":
            if self.trace is None:
                raise ValueError(
                    f"closed tenant {self.name!r} needs a trace"
                )
        else:
            if not self.tasks:
                raise ValueError(
                    f"open tenant {self.name!r} needs a task mix"
                )
            if self.start:
                raise ValueError(
                    f"open tenant {self.name!r} starts at boot: "
                    f"start must be 0, not {self.start}"
                )
            if self.rate <= 0:
                raise ValueError(
                    f"tenant {self.name!r} rate must be > 0: {self.rate}"
                )
        for f in ("burst_factor", "burst_on", "burst_off", "period"):
            if getattr(self, f) <= 0:
                raise ValueError(f"tenant {self.name!r}: {f} must be > 0")
        if self.slo_latency <= 0:
            raise ValueError(
                f"tenant {self.name!r} slo_latency must be > 0"
            )
        if self.rate_limit < 0:
            raise ValueError(
                f"tenant {self.name!r} rate_limit must be >= 0"
            )
        if self.bucket < 1:
            raise ValueError(
                f"tenant {self.name!r} bucket must be >= 1"
            )
        if self.queue_capacity < 1:
            raise ValueError(
                f"tenant {self.name!r} queue_capacity must be >= 1"
            )

    def as_dict(self) -> dict[str, Any]:
        """JSON-able fingerprint (used as journal meta; trace summarized)."""
        out: dict[str, Any] = {
            "name": self.name,
            "priority": int(self.priority),
            "arrival": self.arrival,
            "rate": float(self.rate),
            "burst_factor": float(self.burst_factor),
            "burst_on": float(self.burst_on),
            "burst_off": float(self.burst_off),
            "period": float(self.period),
            "tasks": [
                [t.module, float(t.time), float(t.weight)]
                for t in self.tasks
            ],
            "slo_latency": float(self.slo_latency),
            "rate_limit": float(self.rate_limit),
            "bucket": float(self.bucket),
            "queue_capacity": int(self.queue_capacity),
        }
        if self.trace is not None:
            out["trace"] = [
                [c.name, float(c.task.time)] for c in self.trace
            ]
        if self.start:
            out["start"] = float(self.start)
        return out


def tenant_from_dict(raw: Mapping[str, Any]) -> TenantSpec:
    """Build a :class:`TenantSpec` from one JSON object.

    Unknown keys raise (typos in a spec file must not silently become
    defaults).  A ``trace`` key (list of ``[module, time]`` pairs)
    builds a closed tenant.
    """
    known = {f.name for f in fields(TenantSpec)}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(
            f"unknown tenant spec key(s): {sorted(unknown)}; "
            f"expected a subset of {sorted(known)}"
        )
    kwargs: dict[str, Any] = dict(raw)
    if "tasks" in kwargs:
        kwargs["tasks"] = tuple(
            TaskMix(*entry) for entry in kwargs["tasks"]
        )
    if "trace" in kwargs and kwargs["trace"] is not None:
        from ..workloads.task import HardwareTask

        calls = kwargs["trace"]
        kwargs["trace"] = CallTrace(
            [HardwareTask(m, float(t)) for m, t in calls],
            name=f"{raw.get('name', 'tenant')}-trace",
        )
    return TenantSpec(**kwargs)


def load_tenants(path: str) -> list[TenantSpec]:
    """Load tenant specs from a JSON file.

    The document is either a list of tenant objects or an object with a
    ``tenants`` list.  Duplicate names raise.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, Mapping):
        doc = doc.get("tenants")
    if not isinstance(doc, Sequence) or not doc:
        raise ValueError(
            f"{path}: expected a non-empty list of tenant objects "
            "(or {'tenants': [...]})"
        )
    tenants = [tenant_from_dict(entry) for entry in doc]
    names = [t.name for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate tenant names: {names}")
    return tenants


def default_tenants(task_time: float = 0.05) -> list[TenantSpec]:
    """The built-in gold/silver/bronze mix used without ``--tenants``.

    Three priority tiers over the quickstart module library; rates are
    sized so the combined offered load saturates a dual-PRR node
    (capacity is roughly ``n_prrs / task_time`` requests per second).
    """
    mix = (
        TaskMix("median", task_time, 2.0),
        TaskMix("sobel", task_time, 1.0),
        TaskMix("smoothing", task_time, 1.0),
    )
    return [
        TenantSpec(
            name="gold", priority=2, arrival="poisson", rate=10.0,
            tasks=mix, slo_latency=0.5, rate_limit=20.0, bucket=10,
            queue_capacity=64,
        ),
        TenantSpec(
            name="silver", priority=1, arrival="bursty", rate=8.0,
            tasks=mix, slo_latency=1.0, rate_limit=16.0, bucket=8,
            queue_capacity=48,
        ),
        TenantSpec(
            name="bronze", priority=0, arrival="diurnal", rate=12.0,
            tasks=mix, slo_latency=2.0, queue_capacity=32,
        ),
    ]


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs (everything that is not per-tenant).

    Attributes
    ----------
    horizon:
        Simulated seconds of open arrivals, measured from service boot
        (the initial full configuration).  At the horizon open arrivals
        stop; nothing else reads it.  Every admitted request, queued or
        running, is still granted and runs to completion, so the
        makespan may pass the horizon and ``in_flight`` is 0 unless the
        run is interrupted.  Closed tenants replay their whole trace
        regardless of it.
    admission:
        Master switch for the admission controller; off means every
        arrival is admitted (pass-through, as
        :func:`~repro.rtr.multitask.compare_multitask` runs it).
    preemption:
        Master switch for preemptive time-sharing.  Off means a granted
        request runs to completion in one slice.
    quantum:
        Preemption check interval: a running task may only be
        checkpointed at multiples of this slice.
    checkpoint_cost, restore_cost:
        Modeled cost of saving a preempted hardware task's state out of
        its PRR and of restoring it on the next grant (paid while the
        PRR is held, per the preemptive-scheduling cost model).
    aging_rate:
        Priority points a *waiting* request gains per simulated second;
        guarantees no tenant starves under sustained overload.
    overload_backlog:
        Total-backlog high-water mark; above it arrivals are shed
        lowest-priority-first (see
        :meth:`~repro.service.admission.AdmissionController.decide`).
    epoch:
        Width (simulated seconds) of the decision-accounting buckets
        journaled with every run.
    degrade_at:
        Scheduled blade degradations: ``(time, slot)`` pairs; at each
        time the PRR slot is retired via
        :meth:`~repro.service.fabric.PrrFabric.retire_slot`.
    fault:
        Optional fault rates forwarded to the node's
        :class:`~repro.faults.injector.FaultInjector`.
    max_config_attempts:
        Reconfiguration attempts per request, the budget of the
        executor's :class:`~repro.faults.recovery.RecoveryPolicy`,
        before it is shed with reason ``fault``.
    prrs:
        PRR count of the node (uniform floorplan); ``0`` keeps the
        paper's dual-PRR layout.  It must stay 0 when the
        :class:`~repro.service.scheduler.ServiceExecutor` is given a
        cell, whose floorplan then sets the node.
    power_cap_w:
        Optional node power budget in watts.  When set, an arrival is
        shed with reason ``power_cap`` if granting it would push the
        projected draw — floorplan static power plus one dynamic-task
        increment per concurrently granted request, under the current
        :mod:`repro.power` model — above the cap.  ``None`` (default)
        disables the check entirely, leaving admission byte-identical
        to a power-unaware service.
    chaos:
        Optional :class:`~repro.chaos.spec.ChaosSpec`.  ``None`` — and
        any spec whose ``inert`` property is true — leaves the chaos
        runtime unarmed, keeping the run on the exact plain-serve code
        path.
    """

    horizon: float = 100.0
    admission: bool = True
    preemption: bool = True
    quantum: float = 0.05
    checkpoint_cost: float = 0.002
    restore_cost: float = 0.002
    aging_rate: float = 0.1
    overload_backlog: int = 64
    epoch: float = 10.0
    degrade_at: tuple[tuple[float, int], ...] = ()
    fault: FaultConfig | None = None
    max_config_attempts: int = 3
    prrs: int = 0
    power_cap_w: float | None = None
    #: a :class:`~repro.chaos.spec.ChaosSpec` or None (typed ``Any`` to
    #: keep :mod:`repro.chaos` importable on top of the service layer)
    chaos: Any = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if self.quantum <= 0:
            raise ValueError("quantum must be > 0")
        for f in ("checkpoint_cost", "restore_cost", "aging_rate"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")
        if self.overload_backlog < 1:
            raise ValueError("overload_backlog must be >= 1")
        if self.epoch <= 0:
            raise ValueError("epoch must be > 0")
        for t, slot in self.degrade_at:
            if t < 0 or slot < 0:
                raise ValueError(
                    f"degrade_at entries must be (time>=0, slot>=0): "
                    f"({t}, {slot})"
                )
        if self.max_config_attempts < 1:
            raise ValueError("max_config_attempts must be >= 1")
        if self.prrs < 0:
            raise ValueError("prrs must be >= 0 (0 = dual-PRR default)")
        if self.power_cap_w is not None and self.power_cap_w <= 0:
            raise ValueError("power_cap_w must be > 0 (or None to disable)")
        if self.chaos is not None and not hasattr(self.chaos, "as_dict"):
            raise ValueError(
                "chaos must be a ChaosSpec (or None): "
                f"{type(self.chaos).__name__}"
            )

    def as_dict(self) -> dict[str, Any]:
        """JSON-able fingerprint (journal meta).

        ``power_cap_w`` is emitted only when set, so journals written by
        power-unaware services remain resumable byte-for-byte.
        """
        out = {
            "horizon": float(self.horizon),
            "admission": bool(self.admission),
            "preemption": bool(self.preemption),
            "quantum": float(self.quantum),
            "checkpoint_cost": float(self.checkpoint_cost),
            "restore_cost": float(self.restore_cost),
            "aging_rate": float(self.aging_rate),
            "overload_backlog": int(self.overload_backlog),
            "epoch": float(self.epoch),
            "degrade_at": [[float(t), int(s)] for t, s in self.degrade_at],
            "fault": (
                None
                if self.fault is None
                else {
                    "transfer_ber": self.fault.transfer_ber,
                    "chunk_abort_rate": self.fault.chunk_abort_rate,
                    "port_abort_rate": self.fault.port_abort_rate,
                    "seu_rate": self.fault.seu_rate,
                    "seed": self.fault.seed,
                }
            ),
            "max_config_attempts": int(self.max_config_attempts),
            "prrs": int(self.prrs),
            "chaos": (
                None if self.chaos is None else self.chaos.as_dict()
            ),
        }
        if self.power_cap_w is not None:
            out["power_cap_w"] = float(self.power_cap_w)
        return out
