"""Multi-tasking and hardware virtualization on PRRs (Section 5 extension).

The paper's closing argument: "PRTR as compared to FRTR is far more
beneficial for versatility purposes, multi-tasking applications, and
hardware virtualization than it is for plain performance."  This module
implements that scenario so the claim can be measured:

* several **applications** (each a call trace) share one FPGA;
* under **FRTR**, the device is monolithic — every call from any
  application reconfigures the whole chip, so execution is one global
  serial stream (and a context switch between applications is a full
  reconfiguration even if the module was just loaded);
* under **PRTR**, the PRRs act as a *shared module cache* (hardware
  virtualization): calls whose module is resident run immediately on that
  PRR; misses allocate a PRR (replacement policy) and stream a partial
  bitstream through the single shared ICAP controller.  Each PRR is its
  own execution resource, so PRRs execute **concurrently** — spatial
  multitasking.

Scheduling: each application issues its calls in order, each when the
previous completes (optionally after an arrival delay).  The PRTR half
is one run of the service scheduler (:mod:`repro.service.scheduler`),
the repository's one PRR time-sharing loop, with admission and
preemption off: at most one call per PRR holds a grant, later ones wait
in its FIFO grant queue, a call executes on the PRR holding its module,
and the ICAP serializes reconfigurations.  This is deliberately simple —
the point is the architectural comparison, not scheduler research.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from ..hardware.node import XD1Node
from ..hardware.prr import dual_prr_floorplan
from ..sim.engine import Delay
from ..sim.resources import MutexResource
from ..sim.trace import Phase, Timeline
from ..workloads.task import CallTrace

__all__ = [
    "AppSpec",
    "AppResult",
    "MultitaskResult",
    "MultitaskFrtrExecutor",
    "compare_multitask",
]


@dataclass(frozen=True)
class AppSpec:
    """One application sharing the node."""

    name: str
    trace: CallTrace
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("application name must be non-empty")
        if self.arrival_time < 0:
            raise ValueError("arrival_time must be >= 0")


@dataclass
class AppResult:
    """Per-application outcome."""

    name: str
    arrival_time: float
    completion_time: float
    n_calls: int
    n_configs: int

    @property
    def turnaround(self) -> float:
        return self.completion_time - self.arrival_time

    def __post_init__(self) -> None:
        if self.completion_time < self.arrival_time:
            raise ValueError("completed before it arrived")


@dataclass
class MultitaskResult:
    """Aggregate outcome of a multi-application run."""

    mode: str
    apps: list[AppResult]
    makespan: float
    timeline: Timeline
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def total_calls(self) -> int:
        return sum(a.n_calls for a in self.apps)

    @property
    def total_configs(self) -> int:
        return sum(a.n_configs for a in self.apps)

    @property
    def throughput(self) -> float:
        """Completed calls per unit time (0.0 for an empty run)."""
        if self.makespan <= 0 or not self.total_calls:
            return 0.0
        return self.total_calls / self.makespan

    @property
    def mean_turnaround(self) -> float:
        """Average per-application turnaround (0.0 with no applications)."""
        if not self.apps:
            return 0.0
        return sum(a.turnaround for a in self.apps) / len(self.apps)

    @property
    def max_turnaround(self) -> float:
        """Worst per-application turnaround (0.0 with no applications)."""
        if not self.apps:
            return 0.0
        return max(a.turnaround for a in self.apps)

    def unfairness(self) -> float:
        """max/min turnaround ratio (1.0 = perfectly fair).

        Degenerate mixes stay NaN-free: no applications (an all-shed
        service epoch) is trivially fair (1.0), and a zero minimum with
        a positive maximum is infinitely unfair.
        """
        if not self.apps:
            return 1.0
        lo = min(a.turnaround for a in self.apps)
        hi = max(a.turnaround for a in self.apps)
        if hi <= 0:
            return 1.0
        return hi / lo if lo > 0 else float("inf")


class MultitaskFrtrExecutor:
    """All applications funnel through one monolithic FRTR device.

    The fabric is a single exclusive resource; every call pays a full
    reconfiguration, a transfer of control and its task time.  FIFO
    arbitration in call-arrival order (applications interleave naturally
    as each finishes its previous call).
    """

    def __init__(
        self,
        node: XD1Node,
        *,
        estimated: bool = False,
        control_time: float | None = None,
    ) -> None:
        self.node = node
        self.estimated = estimated
        self.control_time = (
            node.params.control_time if control_time is None else control_time
        )

    def run(self, apps: list[AppSpec]) -> MultitaskResult:
        if not apps:
            raise ValueError("need at least one application")
        _check_unique_names(apps)
        sim = self.node.sim
        timeline = Timeline()
        fabric = MutexResource(sim, name="fabric")
        t_config = self.node.full_config_time(estimated=self.estimated)
        results: dict[str, AppResult] = {}

        def app_proc(spec: AppSpec) -> Generator[Any, Any, None]:
            if spec.arrival_time:
                yield Delay(spec.arrival_time)
            for call in spec.trace:
                owner = f"{spec.name}#{call.index}"
                yield from fabric.acquire(owner)
                try:
                    t0 = sim.now
                    yield from self.node.configure_full(
                        owner, estimated=self.estimated
                    )
                    timeline.add(
                        Phase.CONFIG, t0, sim.now,
                        task=call.name, lane="fabric", note=spec.name,
                    )
                    if self.control_time:
                        yield Delay(self.control_time)
                    t0 = sim.now
                    yield Delay(call.task.time)
                    timeline.add(
                        Phase.TASK, t0, sim.now,
                        task=call.name, lane="fabric", note=spec.name,
                    )
                finally:
                    fabric.release(owner)
            results[spec.name] = AppResult(
                name=spec.name,
                arrival_time=spec.arrival_time,
                completion_time=sim.now,
                n_calls=spec.trace.n_calls,
                n_configs=spec.trace.n_calls,
            )

        start = sim.now
        for spec in apps:
            sim.spawn(app_proc(spec), name=f"app:{spec.name}")
        sim.run()
        fabric.assert_no_overlap()
        return MultitaskResult(
            mode="frtr",
            apps=[results[s.name] for s in apps],
            makespan=sim.now - start,
            timeline=timeline,
            notes={"t_config_full": t_config},
        )


def _check_unique_names(apps: list[AppSpec]) -> None:
    names = [a.name for a in apps]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate application names: {names}")


def compare_multitask(
    apps: list[AppSpec],
    *,
    floorplan=None,
    estimated: bool = False,
    control_time: float | None = None,
    bitstream_bytes: int | None = None,
) -> tuple[MultitaskResult, MultitaskResult]:
    """Run the application mix under FRTR and PRTR on fresh nodes.

    The PRTR half is one service run (:mod:`repro.service.scheduler`)
    with admission and preemption off and each application a closed
    tenant starting at its ``arrival_time``.
    """
    from ..service.scheduler import ServiceExecutor
    from ..service.tenants import ServiceConfig, TenantSpec
    from .runner import CellSpec, make_node

    frtr = MultitaskFrtrExecutor(
        make_node(floorplan), estimated=estimated, control_time=control_time
    ).run(apps)
    service = ServiceExecutor(
        [
            TenantSpec(
                a.name, arrival="closed", trace=a.trace, start=a.arrival_time
            )
            for a in apps
        ],
        ServiceConfig(admission=False, preemption=False),
        cell=CellSpec(
            floorplan=floorplan or dual_prr_floorplan(),
            estimated=estimated,
            control_time=control_time,
            bitstream_bytes=bitstream_bytes,
        ),
    ).run()
    if service.interrupted:
        raise RuntimeError(f"PRTR run cut off: {service.interrupted}")
    prtr = MultitaskResult(
        mode="prtr",
        apps=[
            AppResult(
                name=a.name,
                arrival_time=a.arrival_time,
                completion_time=t.finished,
                n_calls=t.completed,
                n_configs=t.configs,
            )
            for a, t in zip(apps, service.tenants)
        ],
        makespan=service.makespan,
        timeline=service.timeline,
        notes={k: service.notes[k] for k in ("t_config_full", "hit_ratio")},
    )
    return frtr, prtr
