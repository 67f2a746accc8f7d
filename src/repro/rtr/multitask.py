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
  bitstream through the single shared ICAP controller.  With per-PRR
  memory banks (Section 4.2's dual layout), PRRs execute **concurrently**
  — spatial multitasking.

Scheduling: each application is a DES process issuing its calls in order
(optionally after an arrival delay).  A call executes on the PRR holding
its module; per-PRR queues are FIFO; the ICAP serializes
reconfigurations.  This is deliberately simple — the point is the
architectural comparison, not scheduler research.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

from ..caching.base import ConfigCache
from ..caching.policies import LruPolicy
from ..hardware.bitstream import Bitstream
from ..hardware.node import XD1Node
from ..sim.engine import Delay
from ..sim.resources import MutexResource
from ..sim.trace import Phase, Timeline
from ..workloads.task import CallTrace

__all__ = [
    "AppSpec",
    "AppResult",
    "MultitaskResult",
    "MultitaskFrtrExecutor",
    "MultitaskPrtrExecutor",
    "PrrFabric",
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
                yield from fabric.acquire(f"{spec.name}#{call.index}")
                try:
                    t0 = sim.now
                    yield Delay(t_config)
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
                    fabric.release(f"{spec.name}#{call.index}")
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


class PrrFabric:
    """The shared PRR-pool machinery: residency, pinning, reconfiguration.

    Extracted from :class:`MultitaskPrtrExecutor` so the multi-tenant
    service scheduler (:mod:`repro.service.scheduler`) can time-share the
    exact same pool — the reduction identity (service with one tenant,
    no admission, no preemption == multitask PRTR) holds because both
    run *this* code, not a reimplementation.

    Responsibilities:

    * residency tracked by a :class:`ConfigCache` over the PRR slots;
    * each PRR is an exclusive execution resource
      (:attr:`prr_mutexes`, its own memory banks per Section 4.2);
    * the ICAP controller serializes reconfigurations;
    * a miss allocates a victim PRR — never one whose module is pinned
      (currently executing or queued) — and streams the partial
      bitstream;
    * a configuration fault (:class:`~repro.faults.errors
      .ReconfigurationFault`) rolls residency back cleanly and
      propagates, so callers can retry or shed;
    * a slot can be *retired* (:meth:`retire_slot`) — the
      degraded-blade analogue for service mode: a pinned sentinel
      occupies the slot forever, shrinking effective capacity;
    * a slot can be temporarily *blocked* (:meth:`block_slot` /
      :meth:`unblock_slot`) while its failure domain is down — the
      reversible outage primitive the chaos runtime
      (:mod:`repro.chaos`) drives.
    """

    def __init__(
        self,
        node: XD1Node,
        cache: ConfigCache,
        timeline: Timeline,
        *,
        estimated: bool = False,
        bitstream_bytes: int | None = None,
    ) -> None:
        self.node = node
        self.cache = cache
        self.timeline = timeline
        self.estimated = estimated
        self._bitstream_bytes = bitstream_bytes
        sim = node.sim
        self.prr_mutexes = [
            MutexResource(sim, name=f"prr{i}") for i in range(cache.slots)
        ]
        #: modules currently executing or queued -> pin against eviction
        self.busy_modules: dict[str, int] = {}
        #: per-module "configured" signal registry to avoid double configs
        self.configuring: dict[str, Any] = {}
        self._unpin_waiters: list[Any] = []
        #: slots taken out of rotation by :meth:`retire_slot`
        self.retired: set[int] = set()
        #: slots temporarily dark while their failure domain is down
        #: (:meth:`block_slot` / :meth:`unblock_slot`, chaos runtime)
        self.blocked_slots: set[int] = set()
        #: partial configurations streamed (successful fills)
        self.fills = 0

    @property
    def sim(self) -> Any:
        """The simulator the fabric's node lives on."""
        return self.node.sim

    @property
    def active_slots(self) -> int:
        """PRRs still in rotation (total minus retired minus blocked)."""
        return self.cache.slots - len(self.retired | self.blocked_slots)

    def bitstream(self, module: str) -> Bitstream:
        """The partial bitstream configured for ``module``."""
        if self._bitstream_bytes is not None:
            return Bitstream(
                name=f"prr:{module}", nbytes=self._bitstream_bytes,
                region="prr0", module=module, kind="module",
            )
        return self.node.prr_bitstream(0, module)

    def pin(self, module: str) -> None:
        """Protect ``module`` from eviction while it executes or queues."""
        self.busy_modules[module] = self.busy_modules.get(module, 0) + 1

    def unpin(self, module: str) -> None:
        """Drop one pin; wakes fills waiting for an eviction candidate."""
        self.busy_modules[module] -= 1
        if not self.busy_modules[module]:
            del self.busy_modules[module]
        waiters, self._unpin_waiters[:] = list(self._unpin_waiters), []
        for sig in waiters:
            sig.succeed()

    def block_slot(self, slot: int) -> None:
        """Darken ``slot`` while its failure domain is down.

        Unlike :meth:`retire_slot` this is reversible and synchronous:
        the slot stops counting toward :attr:`active_slots` and stops
        receiving fills immediately; evicting its (state-lost) resident
        is the chaos runtime's job.
        """
        if not 0 <= slot < self.cache.slots:
            raise ValueError(f"no such PRR slot: {slot}")
        self.blocked_slots.add(slot)

    def unblock_slot(self, slot: int) -> None:
        """Return ``slot`` to rotation; wakes fills waiting for space."""
        self.blocked_slots.discard(slot)
        waiters, self._unpin_waiters[:] = list(self._unpin_waiters), []
        for sig in waiters:
            sig.succeed()

    def evictable_exists(self, module: str) -> bool:
        """Can a fill for ``module`` proceed right now?"""
        blocked = self.blocked_slots
        if blocked:
            if any(s not in blocked for s in self.cache._free):
                return True
            pinned = set(self.busy_modules)
            return any(
                m not in pinned and s not in blocked
                for m, s in self.cache._residents.items()
            )
        if not self.cache.is_full:
            return True
        pinned = set(self.busy_modules)
        return any(m not in pinned for m in self.cache.residents)

    def ensure_resident(
        self, module: str, owner: str
    ) -> Generator[Any, Any, bool]:
        """Make ``module`` resident; returns True if it was a hit.

        A hit is decided at the *first* check — if the module arrives
        while we wait (loaded by another application), the call still
        counts as a miss but skips the redundant reconfiguration
        (module sharing across applications).  A configuration fault
        rolls the speculative residency back, wakes any waiters (they
        re-enter the loop and may retry the fill themselves) and
        re-raises for the caller's recovery policy.
        """
        sim = self.sim
        was_hit = self.cache.contains(module)
        if was_hit:
            self.cache.stats.hits += 1
            self.cache.policy.on_access(module)
            return True
        self.cache.stats.misses += 1
        while True:
            if self.cache.contains(module):
                return False  # another app loaded it meanwhile
            if module in self.configuring:
                yield self.configuring[module]
                continue  # loop: confirm residency (or eviction race)
            if not self.evictable_exists(module):
                # Every resident is busy; wait for any unpin.
                sig = sim.signal(name=f"evict-wait:{module}")
                self._unpin_waiters.append(sig)
                yield sig
                continue
            break
        sig = sim.signal(name=f"cfg:{module}")
        self.configuring[module] = sig
        self.cache.fill(
            module,
            pinned=set(self.busy_modules),
            blocked=self.blocked_slots,
        )
        t0 = sim.now
        bs = self.bitstream(module)
        try:
            if self.estimated:
                yield Delay(self.node.icap_raw.wire_time(bs.nbytes))
            else:
                yield from self.node.icap.configure(bs, owner=owner)
        except BaseException:
            # Roll the speculative residency back so the slot is not
            # poisoned by a half-written configuration.
            self.cache.evict(module)
            del self.configuring[module]
            sig.succeed()
            raise
        self.timeline.add(
            Phase.CONFIG, t0, sim.now, task=module, lane="icap",
            note="partial",
        )
        del self.configuring[module]
        self.fills += 1
        sig.succeed()
        return False

    def retire_slot(self, slot: int) -> Generator[Any, Any, None]:
        """Take PRR ``slot`` out of rotation (a degraded blade).

        A DES process: waits for the slot's mutex (any running task
        finishes first), evicts whatever module lives there once it is
        neither pinned nor mid-configuration, then installs a
        permanently pinned sentinel so the replacement policy can never
        hand the slot out again.
        """
        if not 0 <= slot < self.cache.slots:
            raise ValueError(f"no such PRR slot: {slot}")
        if slot in self.retired:
            raise ValueError(f"PRR slot {slot} is already retired")
        self.retired.add(slot)
        # Retirement subsumes any temporary outage on the same slot.
        self.blocked_slots.discard(slot)
        sentinel = f"__retired{slot}"
        owner = f"retire:{slot}"
        yield from self.prr_mutexes[slot].acquire(owner)
        # The mutex is held forever: nothing can execute here again.
        yield from self.drain_slot(slot, f"retire-wait:{slot}")
        self.cache.place(sentinel, slot)
        self.pin(sentinel)

    def drain_slot(
        self, slot: int, wait_name: str
    ) -> Generator[Any, Any, None]:
        """Evict ``slot``'s resident, if any, once it is safe to.

        A DES process step: waits out an in-flight configuration of the
        resident, then waits (on a signal named ``wait_name``) for every
        pin on it to drop, then evicts it.
        """
        while True:
            victim = next(
                (
                    m
                    for m, s in list(self.cache._residents.items())
                    if s == slot
                ),
                None,
            )
            if victim is None:
                return
            if victim in self.configuring:
                yield self.configuring[victim]
                continue
            if victim in self.busy_modules:
                sig = self.sim.signal(name=wait_name)
                self._unpin_waiters.append(sig)
                yield sig
                continue
            self.cache.evict(victim)
            return

    def assert_no_overlap(self) -> None:
        """Post-run sanity: PRR and ICAP mutexes were truly exclusive."""
        for m in self.prr_mutexes:
            m.assert_no_overlap()
        self.node.icap.icap_mutex.assert_no_overlap()


class MultitaskPrtrExecutor:
    """Spatial multitasking: PRRs as a shared, concurrent module cache.

    The pool machinery lives in :class:`PrrFabric`; this executor adds
    the closed-loop application processes (each replays its trace,
    issuing the next call when the previous completes) and the initial
    full configuration that loads the static design only — all modules
    arrive by partial reconfiguration (unlike the single-app executor,
    there is no well-defined "first module" here).
    """

    def __init__(
        self,
        node: XD1Node,
        *,
        estimated: bool = False,
        control_time: float | None = None,
        cache: ConfigCache | None = None,
        bitstream_bytes: int | None = None,
    ) -> None:
        if not node.floorplan.n_prrs:
            raise ValueError("PRTR multitasking needs PRRs")
        self.node = node
        self.estimated = estimated
        self.control_time = (
            node.params.control_time if control_time is None else control_time
        )
        self.cache = cache or ConfigCache(
            slots=node.floorplan.n_prrs, policy=LruPolicy()
        )
        if self.cache.slots != node.floorplan.n_prrs:
            raise ValueError("cache slots must equal the PRR count")
        self._bitstream_bytes = bitstream_bytes

    def run(self, apps: list[AppSpec]) -> MultitaskResult:
        if not apps:
            raise ValueError("need at least one application")
        _check_unique_names(apps)
        sim = self.node.sim
        timeline = Timeline()
        fabric = PrrFabric(
            self.node,
            self.cache,
            timeline,
            estimated=self.estimated,
            bitstream_bytes=self._bitstream_bytes,
        )
        results: dict[str, AppResult] = {}
        config_counts: dict[str, int] = {s.name: 0 for s in apps}

        def app_proc(spec: AppSpec) -> Generator[Any, Any, None]:
            if spec.arrival_time:
                yield Delay(spec.arrival_time)
            for call in spec.trace:
                owner = f"{spec.name}#{call.index}"
                fabric.pin(call.name)
                try:
                    hit = yield from fabric.ensure_resident(call.name, owner)
                    if not hit:
                        config_counts[spec.name] += 1
                    slot = self.cache.slot_of(call.name)
                    yield from fabric.prr_mutexes[slot].acquire(owner)
                    try:
                        if self.control_time:
                            yield Delay(self.control_time)
                        t0 = sim.now
                        yield Delay(call.task.time)
                        timeline.add(
                            Phase.TASK, t0, sim.now, task=call.name,
                            lane=f"prr{slot}", note=spec.name,
                        )
                    finally:
                        fabric.prr_mutexes[slot].release(owner)
                finally:
                    fabric.unpin(call.name)
            results[spec.name] = AppResult(
                name=spec.name,
                arrival_time=spec.arrival_time,
                completion_time=sim.now,
                n_calls=spec.trace.n_calls,
                n_configs=config_counts[spec.name],
            )

        def startup() -> Generator[Any, Any, None]:
            t0 = sim.now
            yield Delay(self.node.full_config_time(estimated=self.estimated))
            timeline.add(Phase.CONFIG, t0, sim.now, note="initial full")

        start = sim.now
        boot = sim.spawn(startup(), name="startup")

        def gated_app(spec: AppSpec) -> Generator[Any, Any, None]:
            yield boot.done
            yield from app_proc(spec)

        for spec in apps:
            sim.spawn(gated_app(spec), name=f"app:{spec.name}")
        sim.run()
        fabric.assert_no_overlap()
        return MultitaskResult(
            mode="prtr",
            apps=[results[s.name] for s in apps],
            makespan=sim.now - start,
            timeline=timeline,
            notes={
                "t_config_full": self.node.full_config_time(
                    estimated=self.estimated
                ),
                "hit_ratio": self.cache.stats.hit_ratio,
            },
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
    """Run the application mix under FRTR and PRTR on fresh nodes."""
    from .runner import make_node

    frtr = MultitaskFrtrExecutor(
        make_node(floorplan), estimated=estimated, control_time=control_time
    ).run(apps)
    prtr = MultitaskPrtrExecutor(
        make_node(floorplan),
        estimated=estimated,
        control_time=control_time,
        bitstream_bytes=bitstream_bytes,
    ).run(apps)
    return frtr, prtr
