"""Preemptive service scheduler time-sharing the PRR pool.

The scheduler runs the service as a DES on one reconfigurable node,
time-sharing its :class:`~repro.rtr.multitask.PrrFabric` — residency,
pinning, the ICAP serialization, eviction under pressure.  On top of it,
service mode adds:

* **grants** — at most ``active_slots`` requests hold execution grants
  at once; the rest wait in a priority queue ordered by *effective
  priority* (static tenant priority plus aging for time spent waiting,
  tie-broken by global arrival order, so identical runs order
  identically and no tenant starves);
* **preemption** — when a strictly higher-priority request waits and no
  grant is free, the lowest-priority running request is flagged; it
  checkpoints at its next quantum boundary (a modeled
  ``checkpoint_cost`` paid while the PRR is held), releases everything,
  and re-queues to restore later (``restore_cost`` on the next grant);
* **graceful degradation** — scheduled blade degradations retire PRR
  slots mid-run (:meth:`~repro.rtr.multitask.PrrFabric.retire_slot`),
  shrinking capacity without deadlock; repeated reconfiguration faults
  shed the request (reason ``fault``) instead of wedging a slot;
* **chaos resilience** (armed only by a non-inert
  :attr:`~repro.service.tenants.ServiceConfig.chaos` spec) — scripted
  failure-domain outages darken PRR slots and the configuration path
  mid-run; a granted task whose slot dies is *migrated*: the work since
  its last quantum boundary (its implicit checkpoint) is discarded, it
  re-queues, and it restores on a surviving slot paying
  ``restore_cost`` plus any reconfiguration — never silently lost.
  Per-domain circuit breakers fail configuration attempts fast while a
  domain is dark, and a hysteretic brownout controller sheds
  low-priority tiers and stretches quanta when the observed tail
  latency or shed rate crosses its thresholds (see :mod:`repro.chaos`);
* **a watchdog on every run** — runaway or stalled schedules are cut
  off and reported as ``interrupted`` rather than hanging the process.

The grant queue is a lazy heap: waiters are pushed with a *time-invariant
static rank* (``aging_rate * ready_since - priority``), which orders any
two waiters identically to comparing their aged effective priorities at
dispatch time — so dispatch is O(log waiters) with decisions identical
to the original full scan, and idle tenants cost nothing per tick.

This is the repository's one PRR time-sharing loop:
:func:`~repro.rtr.multitask.compare_multitask` runs its PRTR half as one
service run with admission and preemption off and one closed tenant per
application, so each call is grant / pin / ensure-resident / acquire /
control / task / release / unpin, and applications beyond the PRR count
wait in the FIFO grant queue.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Generator, Sequence

from ..caching.base import ConfigCache
from ..caching.policies import LruPolicy
from ..chaos.breakers import CircuitBreaker
from ..chaos.brownout import BrownoutController
from ..faults.injector import FaultInjector
from ..hardware.domains import DomainTopology
from ..hardware.prr import dual_prr_floorplan, uniform_prr_floorplan
from ..model.stochastic import resolve_rng
from ..obs import metrics as obsm
from ..power import current_model
from ..rtr import runner
from ..rtr.multitask import PrrFabric
from ..rtr.resilience import config_attempts
from ..runtime.watchdog import Watchdog, WatchdogExpired
from ..sim.engine import Delay
from ..sim.trace import Phase, Timeline
from .admission import AdmissionController
from .arrivals import request_stream, tenant_rng
from .tenants import ServiceConfig, TenantSpec

__all__ = [
    "Request",
    "ServiceExecutor",
    "ServiceResult",
    "TenantOutcome",
    "run_service",
]

#: slack under which a remaining-time balance counts as finished
_EPS = 1e-12
#: consecutive events without a clock advance that cut a run off (the
#: no-deadlock guard every run arms)
_STALL_EVENTS = 1_000_000


@dataclass
class Request:
    """One in-flight service request and its scheduling state."""

    tenant: str
    seq: int
    arrival: float
    module: str
    work: float
    priority: int
    remaining: float = field(init=False)
    #: set by the dispatcher: checkpoint at the next quantum boundary
    preempt_flag: bool = False
    #: true once checkpointed at least once (pays restore on regrant)
    preempted: bool = False
    ready_since: float = 0.0
    preemptions: int = 0
    #: checkpoint migrations survived (chaos mode)
    migrations: int = 0
    #: the PRR slot of the most recent grant (chaos migration wait)
    last_slot: int | None = None

    def __post_init__(self) -> None:
        self.remaining = self.work


@dataclass
class TenantOutcome:
    """Per-tenant accounting over one service run."""

    name: str
    priority: int
    slo_latency: float
    arrived: int = 0
    #: admission verdicts: admit / queue / shed
    decisions: dict[str, int] = field(default_factory=dict)
    #: shed reasons: rate_limit / queue_full / overload / fault /
    #: brownout / power_cap
    shed: dict[str, int] = field(default_factory=dict)
    completed: int = 0
    preemptions: int = 0
    #: checkpoint migrations off failed PRR slots (chaos mode)
    migrations: int = 0
    configs: int = 0
    #: admitted requests still queued or running at run end
    in_flight: int = 0
    #: simulated time of the latest completion (0.0 before any)
    finished: float = 0.0
    #: arrival-to-completion latency per completed request
    latencies: list[float] = field(default_factory=list)
    backlog_peak: int = 0

    @property
    def shed_total(self) -> int:
        """Requests shed across all reasons."""
        return sum(self.shed.values())


@dataclass
class ServiceResult:
    """Aggregate outcome of one service run."""

    tenants: list[TenantOutcome]
    makespan: float
    horizon: float
    timeline: Timeline
    fills: int
    cache_hits: int
    cache_misses: int
    retired: list[int]
    decision_epochs: dict[str, dict[str, dict[str, int]]]
    interrupted: str | None = None
    notes: dict[str, float] = field(default_factory=dict)
    #: chaos-runtime logs (outages, breakers, brownout); None when unarmed
    chaos: dict | None = None

    @property
    def total_arrived(self) -> int:
        """Requests that arrived across all tenants."""
        return sum(t.arrived for t in self.tenants)

    @property
    def total_completed(self) -> int:
        """Requests that completed across all tenants."""
        return sum(t.completed for t in self.tenants)

    @property
    def total_shed(self) -> int:
        """Requests shed across all tenants and reasons."""
        return sum(t.shed_total for t in self.tenants)

    @property
    def total_in_flight(self) -> int:
        """Admitted requests still pending at run end."""
        return sum(t.in_flight for t in self.tenants)


class _Waiter:
    """A queued grant request plus its wakeup signal."""

    __slots__ = ("req", "signal")

    def __init__(self, req: Request, signal: Any) -> None:
        self.req = req
        self.signal = signal


class _ChaosRuntime:
    """The armed chaos machinery of one :class:`ServiceExecutor`.

    Owns the failure-domain topology, the per-domain circuit breakers,
    the optional brownout controller, and the per-slot outage state the
    scripted :meth:`outage_proc` processes drive.  Slot outages are
    refcounted so overlapping events compose, and a darkened slot only
    returns to rotation once its (state-lost) resident has actually been
    evicted — never with a stale configuration still resident.

    Created only for a non-inert spec; every hook in the executor is
    behind ``if self._chaos is not None``, so an unarmed run stays on
    the exact historical code path.
    """

    def __init__(self, executor: "ServiceExecutor", spec: Any) -> None:
        self.ex = executor
        self.spec = spec
        self.sim = executor.sim
        n_slots = executor.cache.slots
        self.topology = DomainTopology.build(n_slots, spec.blades)
        for event in spec.events:
            self.topology.domain(event.domain)  # fail fast on typos
        self.rng = resolve_rng(spec.seed)
        self.breakers: dict[str, CircuitBreaker] = {}
        if spec.breakers_enabled:
            self.breakers = {
                name: CircuitBreaker(
                    name,
                    threshold=spec.breaker_threshold,
                    cooldown=spec.breaker_cooldown,
                    probe_jitter=spec.breaker_probe_jitter,
                    rng=self.rng,
                )
                for name in sorted(self.topology.domains)
            }
        #: the breaker guarding the (single) configuration path
        self.config_breaker = self.breakers.get("icap0")
        self.brownout: BrownoutController | None = None
        if spec.brownout_enabled:
            self.brownout = BrownoutController(
                enter_p99=spec.brownout_enter_p99,
                exit_p99=spec.brownout_exit_p99,
                enter_shed=spec.brownout_enter_shed,
                exit_shed=spec.brownout_exit_shed,
                window=spec.brownout_window,
                min_samples=spec.brownout_min_samples,
                hold=spec.brownout_hold,
                max_shed_priority=spec.brownout_max_shed_priority,
                quantum_stretch=spec.brownout_quantum_stretch,
            )
        #: slot -> {"count", "evicted", "signal"} refcounted outage state
        self._slot_state: dict[int, dict[str, Any]] = {}
        #: nested config-blocking outages currently live
        self._config_block_level = 0
        self._config_signal: Any = None
        #: outage log: domain, failed_at, recovered_at, slots, blocks
        self.outages: list[dict[str, Any]] = []
        #: ``(slot, time)`` when a slot actually returned to rotation
        self.restorations: list[dict[str, Any]] = []

    # -- config-path blocking ---------------------------------------------

    @property
    def config_blocked(self) -> bool:
        """True while any live outage blocks the configuration path."""
        return self._config_block_level > 0

    def config_wait(self) -> Any:
        """The level signal fired when the configuration path returns."""
        if self._config_signal is None:
            self._config_signal = self.sim.signal(
                name="chaos-config-block"
            )
        return self._config_signal

    # -- slot outage state -------------------------------------------------

    def _slot_fail(self, slot: int) -> None:
        """One outage now covers ``slot``; darken it on the first."""
        st = self._slot_state.get(slot)
        if st is None:
            st = {"count": 0, "evicted": True, "signal": None}
            self._slot_state[slot] = st
        st["count"] += 1
        if st["count"] == 1:
            self.ex.fabric.block_slot(slot)
            if st["evicted"]:
                # No evictor still draining a previous outage: start one.
                st["evicted"] = False
                st["signal"] = self.sim.signal(
                    name=f"chaos-evicted:prr{slot}"
                )
                self.sim.spawn(
                    self._evict_slot(slot, st),
                    name=f"chaos-evict:prr{slot}",
                )

    def _slot_recover(self, slot: int) -> None:
        """One outage over ``slot`` ended; maybe return it to rotation."""
        st = self._slot_state[slot]
        st["count"] -= 1
        if st["count"] == 0:
            self._maybe_unblock(slot, st)

    def _maybe_unblock(self, slot: int, st: dict[str, Any]) -> None:
        """Unblock ``slot`` once recovered *and* drained of stale state."""
        if st["count"] == 0 and st["evicted"]:
            self.ex.fabric.unblock_slot(slot)
            self.restorations.append(
                {"slot": slot, "time": self.sim.now}
            )
            self.ex._dispatch()

    def _evict_slot(
        self, slot: int, st: dict[str, Any]
    ) -> Generator[Any, Any, None]:
        """Drain the darkened slot's resident (its state died with it).

        Uses :meth:`~repro.rtr.multitask.PrrFabric.drain_slot`, the
        victim loop of slot retirement: granted requests migrate off the
        slot at their next quantum boundary, so the pins drop.  Fires
        the outage state's signal so migrated requests waiting to
        re-queue know the residency is gone.
        """
        yield from self.ex.fabric.drain_slot(slot, f"chaos-unpin:prr{slot}")
        st["evicted"] = True
        st["signal"].succeed()
        self._maybe_unblock(slot, st)

    def migration_wait(self, slot: int | None) -> Any:
        """What a migrated request should wait on before re-queueing.

        Returns the slot's eviction signal while its stale resident is
        still being drained (so the request cannot synchronously bounce
        back onto the dead residency), or ``None`` once the slot is
        clean.
        """
        if slot is None:
            return None
        st = self._slot_state.get(slot)
        if st is None or st["evicted"]:
            return None
        return st["signal"]

    # -- the scripted outage processes ------------------------------------

    def outage_proc(self, event: Any) -> Generator[Any, Any, None]:
        """Fail ``event.domain`` at its scripted time, recover later."""
        yield self.ex._boot.done
        if event.time:
            yield Delay(event.time)
        now = self.sim.now
        closure = self.topology.closure(event.domain)
        entry = {
            "domain": event.domain,
            "failed_at": now,
            "recovered_at": None,
            "slots": [],
            "blocks_config": self.topology.blocks_config(event.domain),
        }
        self.outages.append(entry)
        for name in closure:
            breaker = self.breakers.get(name)
            if breaker is not None:
                breaker.force_open(now)
        slots = [
            s
            for s in self.topology.slots_down(event.domain)
            if s not in self.ex.fabric.retired
        ]
        entry["slots"] = slots
        for slot in slots:
            self._slot_fail(slot)
        if entry["blocks_config"]:
            self._config_block_level += 1
        yield Delay(event.duration)
        now = self.sim.now
        if entry["blocks_config"]:
            self._config_block_level -= 1
            if self._config_block_level == 0 and (
                self._config_signal is not None
            ):
                sig, self._config_signal = self._config_signal, None
                sig.succeed()
        for slot in slots:
            self._slot_recover(slot)
        for name in closure:
            breaker = self.breakers.get(name)
            if breaker is not None:
                breaker.force_release(now)
        entry["recovered_at"] = now
        self.ex._dispatch()

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe chaos logs for the :class:`ServiceResult`."""
        return {
            "outages": [dict(e) for e in self.outages],
            "restorations": [dict(r) for r in self.restorations],
            "breakers": {
                name: breaker.as_dict()
                for name, breaker in sorted(self.breakers.items())
                if breaker.transitions
            },
            "brownout": (
                None if self.brownout is None else self.brownout.as_dict()
            ),
        }


class ServiceExecutor:
    """Run a tenant mix as an open service on one PRR node.

    ``cell`` sets the node's floorplan and timing (``estimated``,
    ``control_time``, ``bitstream_bytes``); without one the node has
    ``config.prrs`` uniform PRRs (0: the dual-PRR layout).  A cell's
    ``faults``, ``recovery`` and ``force_miss`` have no service meaning
    and are rejected, as is a cell alongside ``config.prrs``.
    """

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        config: ServiceConfig,
        *,
        seed: int = 0,
        cell: runner.CellSpec | None = None,
    ) -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if cell is None:
            cell = runner.CellSpec(
                floorplan=uniform_prr_floorplan(config.prrs, 12)
                if config.prrs
                else dual_prr_floorplan()
            )
        elif (
            cell.faults is not None
            or cell.recovery is not None
            or cell.force_miss
            or config.prrs
        ):
            raise ValueError(
                "a service cell takes no faults, recovery or force_miss "
                "(faults come from ServiceConfig.fault) and replaces "
                "ServiceConfig.prrs"
            )
        self.tenants = list(tenants)
        self.config = config
        self.seed = seed
        injector = (
            FaultInjector(config.fault)
            if config.fault is not None and not config.fault.fault_free
            else None
        )
        self.node = runner.make_node(cell.floorplan, fault_injector=injector)
        self.sim = self.node.sim
        self.estimated = cell.estimated
        self.control_time = (
            self.node.params.control_time
            if cell.control_time is None
            else cell.control_time
        )
        self.timeline = Timeline()
        self.cache = ConfigCache(
            slots=self.node.floorplan.n_prrs, policy=LruPolicy()
        )
        self.fabric = PrrFabric(
            self.node, self.cache, self.timeline,
            estimated=cell.estimated, bitstream_bytes=cell.bitstream_bytes,
        )
        self.admission = AdmissionController(tenants, config)
        self.stats = {
            t.name: TenantOutcome(
                name=t.name, priority=t.priority, slo_latency=t.slo_latency
            )
            for t in tenants
        }
        # -- grant state --------------------------------------------------
        self._granted = 0
        #: min-heap of (static rank, seq, waiter) — see _static_rank
        self._waiting: list[tuple[float, int, _Waiter]] = []
        self._running: list[Request] = []
        self._backlog: dict[str, int] = {t.name: 0 for t in tenants}
        #: incrementally maintained census over the waiter heap, so
        #: admission decisions cost O(active tenants), not O(all tenants)
        self._backlog_total = 0
        self._backlog_by_priority: dict[int, int] = {}
        self._seq = 0
        self._boot: Any = None
        # -- chaos runtime (armed only for a non-inert spec) --------------
        self._chaos: _ChaosRuntime | None = None
        if config.chaos is not None and not config.chaos.inert:
            self._chaos = _ChaosRuntime(self, config.chaos)

    # -- grant machinery ---------------------------------------------------

    def _capacity(self) -> int:
        """Concurrent grants allowed right now (active PRR slots)."""
        return self.fabric.active_slots

    def _grant_free(self) -> bool:
        """Would a grant be issued immediately (no queueing)?"""
        return not self._waiting and self._granted < self._capacity()

    def _power_capped(self) -> bool:
        """Would admitting one more request breach the power budget?

        The projection is pessimistic-but-simple: the floorplan's static
        draw plus one dynamic-task increment per *granted* request,
        counting the candidate — clamped at the PRR count, because the
        fabric can never draw more than all PRRs busy and an arrival
        beyond that merely queues (its PRR is not powered on its behalf
        yet).  A cap at or above the all-busy draw is therefore inert.
        No cap configured — the default — means the check is inert and
        admission behaves exactly as before the power model existed.
        """
        cap = self.config.power_cap_w
        if cap is None:
            return False
        model = current_model()
        busy = min(self._granted + 1, self.node.floorplan.n_prrs)
        projected = (
            self.node.floorplan.static_power_w(model)
            + busy * model.dynamic_task_w
        )
        return projected > cap

    def _effective_priority(self, req: Request, now: float) -> float:
        """Static priority plus aging for time spent waiting."""
        return req.priority + self.config.aging_rate * (
            now - req.ready_since
        )

    def _static_rank(self, req: Request) -> float:
        """Heap key ordering waiters identically to aged priority.

        Effective priority at any dispatch instant ``t`` is
        ``p + aging_rate * (t - ready_since)``; the ``aging_rate * t``
        term is common to every waiter, so comparing
        ``aging_rate * ready_since - p`` (ascending) picks the same
        winner as comparing aged priorities (descending) — without
        recomputing anything per tick for idle waiters.
        """
        return (
            self.config.aging_rate * req.ready_since - req.priority
        )

    def _acquire_grant(self, req: Request) -> Generator[Any, Any, None]:
        """Take a grant, waiting in the priority queue if none is free.

        The fast path returns without yielding, so an uncontended
        request adds no DES events.
        """
        if self._grant_free():
            self._granted += 1
            return
        req.ready_since = self.sim.now
        sig = self.sim.signal(name=f"grant:{req.tenant}#{req.seq}")
        heapq.heappush(
            self._waiting,
            (self._static_rank(req), req.seq, _Waiter(req, sig)),
        )
        stats = self.stats[req.tenant]
        self._backlog[req.tenant] += 1
        self._backlog_total += 1
        self._backlog_by_priority[req.priority] = (
            self._backlog_by_priority.get(req.priority, 0) + 1
        )
        stats.backlog_peak = max(
            stats.backlog_peak, self._backlog[req.tenant]
        )
        self._flag_preemption(req)
        yield sig

    def _release_grant(self) -> None:
        """Return a grant and hand it to the best waiter, if any."""
        self._granted -= 1
        self._dispatch()

    def _dispatch(self) -> None:
        """Grant waiting requests while capacity is free.

        Pops the heap's best static rank — identical to picking the
        maximum effective priority (aging included) tie-broken by global
        arrival order, a total, deterministic order — in O(log waiters).
        """
        while self._waiting and self._granted < self._capacity():
            _, _, best = heapq.heappop(self._waiting)
            self._backlog[best.req.tenant] -= 1
            self._backlog_total -= 1
            pr = best.req.priority
            self._backlog_by_priority[pr] -= 1
            if not self._backlog_by_priority[pr]:
                del self._backlog_by_priority[pr]
            self._granted += 1
            best.signal.succeed()

    def _higher_pending(self, priority: int) -> bool:
        """Any waiter with strictly higher static priority queued?

        Answered from the incrementally maintained per-priority census:
        O(distinct queued priorities), independent of tenant count.
        """
        return any(p > priority for p in self._backlog_by_priority)

    def _flag_preemption(self, waiter: Request) -> None:
        """Mark the weakest running request for checkpointing.

        Only when preemption is on, no grant is free, and the waiter
        strictly outranks the weakest running request's *static*
        priority (running tasks do not age).
        """
        if not self.config.preemption or not self._running:
            return
        if self._granted < self._capacity():
            return
        victim = min(self._running, key=lambda r: (r.priority, r.seq))
        if victim.preempt_flag:
            return
        if self._effective_priority(waiter, self.sim.now) > victim.priority:
            victim.preempt_flag = True

    # -- request execution -------------------------------------------------

    def _quantum(self) -> float:
        """The current slice width (brownout stretches it under chaos)."""
        if self._chaos is not None and self._chaos.brownout is not None:
            return self.config.quantum * self._chaos.brownout.stretch()
        return self.config.quantum

    def _run_granted(self, req: Request) -> Generator[Any, Any, str]:
        """Execute one granted request slice on the fabric.

        Returns ``"done"``, ``"preempted"`` (checkpointed at a quantum
        boundary), ``"fault"`` (reconfiguration failed
        ``max_config_attempts`` times) or ``"migrated"`` (chaos mode:
        the request's PRR slot went dark, its state died with it, and it
        must restore its last checkpoint on a surviving slot).
        """
        owner = f"{req.tenant}#{req.seq}"
        fabric = self.fabric
        chaos = self._chaos
        fabric.pin(req.module)
        try:
            if chaos is not None:
                # A dark configuration path gates misses only: already
                # resident modules keep computing through an ICAP outage.
                while chaos.config_blocked and not self.cache.contains(
                    req.module
                ):
                    yield chaos.config_wait()
                ok, hit = yield from config_attempts(
                    self.sim,
                    lambda: fabric.ensure_resident(req.module, owner),
                    max_attempts=self.config.max_config_attempts,
                    backoff=chaos.spec.config_retry_backoff,
                    breaker=chaos.config_breaker,
                )
            else:
                ok, hit = yield from config_attempts(
                    self.sim,
                    lambda: fabric.ensure_resident(req.module, owner),
                    max_attempts=self.config.max_config_attempts,
                )
            if not ok:
                return "fault"
            if not hit:
                self.stats[req.tenant].configs += 1
            slot = self.cache.slot_of(req.module)
            req.last_slot = slot
            if chaos is not None and slot in fabric.blocked_slots:
                return "migrated"
            yield from fabric.prr_mutexes[slot].acquire(owner)
            try:
                if chaos is not None and slot in fabric.blocked_slots:
                    return "migrated"
                if req.preempted and self.config.restore_cost:
                    yield Delay(self.config.restore_cost)
                if self.control_time:
                    yield Delay(self.control_time)
                t0 = self.sim.now
                migrated = False
                if not self.config.preemption and chaos is None:
                    yield Delay(req.remaining)
                    req.remaining = 0.0
                else:
                    # Chaos mode slices even with preemption off: each
                    # completed quantum is the task's implicit
                    # checkpoint, so a slot loss costs at most one
                    # quantum of re-execution.
                    while req.remaining > _EPS:
                        step = min(self._quantum(), req.remaining)
                        yield Delay(step)
                        if chaos is not None and (
                            slot in fabric.blocked_slots
                        ):
                            migrated = True
                            break
                        req.remaining -= step
                        if req.preempt_flag and req.remaining > _EPS:
                            break
                self.timeline.add(
                    Phase.TASK, t0, self.sim.now, task=req.module,
                    lane=f"prr{slot}", note=req.tenant,
                )
                if migrated:
                    return "migrated"
                if req.remaining > _EPS:
                    if self.config.checkpoint_cost:
                        yield Delay(self.config.checkpoint_cost)
                    return "preempted"
                return "done"
            finally:
                fabric.prr_mutexes[slot].release(owner)
        finally:
            fabric.unpin(req.module)

    def _lifecycle(self, req: Request) -> Generator[Any, Any, None]:
        """Grant / execute / re-queue loop for one admitted request."""
        while True:
            yield from self._acquire_grant(req)
            self._running.append(req)
            try:
                outcome = yield from self._run_granted(req)
            finally:
                self._running.remove(req)
            self._release_grant()
            if outcome == "done":
                self._complete(req)
                return
            if outcome == "fault":
                self._shed_admitted(req, "fault")
                return
            if outcome == "migrated":
                # The slot died under the request: its state is gone,
                # progress reverts to the last quantum boundary, and it
                # re-queues to restore on a surviving slot (paying
                # restore_cost and any reconfiguration on regrant).
                req.preempt_flag = False
                req.preempted = True
                req.migrations += 1
                self.stats[req.tenant].migrations += 1
                obsm.counter("repro_chaos_migrations_total").inc(
                    tenant=req.tenant
                )
                sig = self._chaos.migration_wait(req.last_slot)
                if sig is not None:
                    # Wait for the dead slot's stale residency to drain
                    # so re-entry cannot synchronously land back on it.
                    yield sig
                else:
                    yield Delay(0.0)
                continue
            req.preempt_flag = False
            req.preempted = True
            req.preemptions += 1
            self.stats[req.tenant].preemptions += 1
            obsm.counter("repro_service_preemptions_total").inc(
                tenant=req.tenant
            )

    def _complete(self, req: Request) -> None:
        """Completion bookkeeping: latency, SLO inputs, metrics."""
        stats = self.stats[req.tenant]
        stats.completed += 1
        stats.in_flight -= 1
        stats.finished = self.sim.now
        latency = self.sim.now - req.arrival
        stats.latencies.append(latency)
        obsm.counter("repro_service_completions_total").inc(
            tenant=req.tenant
        )
        obsm.histogram("repro_service_latency_seconds").observe(
            latency, tenant=req.tenant
        )
        if self._chaos is not None and self._chaos.brownout is not None:
            self._chaos.brownout.observe_completion(self.sim.now, latency)

    def _shed_admitted(self, req: Request, reason: str) -> None:
        """Shed a request that had already been admitted."""
        stats = self.stats[req.tenant]
        stats.in_flight -= 1
        stats.shed[reason] = stats.shed.get(reason, 0) + 1
        self.admission.shed_post_admission(req.tenant, self.sim.now, reason)
        if self._chaos is not None and self._chaos.brownout is not None:
            self._chaos.brownout.observe_shed(self.sim.now)

    # -- arrival sources ---------------------------------------------------

    def _admit(self, spec: TenantSpec, module: str, work: float) -> Request | None:
        """Run one arrival through admission; returns the admitted request.

        ``None`` means the arrival was shed (already accounted).
        """
        stats = self.stats[spec.name]
        stats.arrived += 1
        brownout = (
            self._chaos.brownout if self._chaos is not None else None
        )
        decision = self.admission.decide(
            spec.name,
            self.sim.now,
            backlog_of=lambda name: self._backlog[name],
            total_backlog=self._backlog_total,
            grant_free=self._grant_free(),
            higher_pending=self._higher_pending,
            brownout_shed=(
                brownout is not None
                and brownout.should_shed(spec.priority)
            ),
            power_capped=self._power_capped(),
        )
        stats.decisions[decision.verdict] = (
            stats.decisions.get(decision.verdict, 0) + 1
        )
        if decision.verdict == "shed":
            stats.shed[decision.reason] = (
                stats.shed.get(decision.reason, 0) + 1
            )
            if brownout is not None:
                brownout.observe_shed(self.sim.now)
            return None
        self._seq += 1
        stats.in_flight += 1
        return Request(
            tenant=spec.name,
            seq=self._seq,
            arrival=self.sim.now,
            module=module,
            work=work,
            priority=spec.priority,
        )

    def _open_source(
        self, spec: TenantSpec, rng: Any
    ) -> Generator[Any, Any, None]:
        """Generate one open tenant's arrivals until the horizon."""
        yield self._boot.done
        t0 = self.sim.now
        for arrival in request_stream(spec, self.config.horizon, rng):
            target = t0 + arrival.time
            if target > self.sim.now:
                yield Delay(target - self.sim.now)
            req = self._admit(spec, arrival.module, arrival.work)
            if req is None:
                continue
            self.sim.spawn(
                self._lifecycle(req), name=f"req:{req.tenant}#{req.seq}"
            )

    def _closed_source(self, spec: TenantSpec) -> Generator[Any, Any, None]:
        """Replay a closed tenant's trace, one call at a time.

        The first call is issued :attr:`TenantSpec.start` seconds after
        boot, and each next call when the previous completes, admission
        and grants permitting.
        """
        yield self._boot.done
        if spec.start:
            yield Delay(spec.start)
        for call in spec.trace:  # type: ignore[union-attr]
            req = self._admit(spec, call.name, call.task.time)
            if req is None:
                continue
            yield from self._lifecycle(req)

    def _degrade_proc(
        self, delay: float, slot: int
    ) -> Generator[Any, Any, None]:
        """Retire one PRR slot ``delay`` seconds after service boot."""
        yield self._boot.done
        if delay:
            yield Delay(delay)
        yield from self.fabric.retire_slot(slot)

    def _startup(self) -> Generator[Any, Any, None]:
        """Initial full configuration loading the static design."""
        t0 = self.sim.now
        yield Delay(self.node.full_config_time(self.estimated))
        self.timeline.add(Phase.CONFIG, t0, self.sim.now,
                          note="initial full")

    # -- the run -----------------------------------------------------------

    def run(self) -> ServiceResult:
        """Execute the service to drain (or watchdog interruption)."""
        sim = self.sim
        start = sim.now
        self._boot = sim.spawn(self._startup(), name="startup")
        master = resolve_rng(self.seed)
        for index, spec in enumerate(self.tenants):
            if spec.arrival == "closed":
                sim.spawn(
                    self._closed_source(spec), name=f"src:{spec.name}"
                )
            else:
                sim.spawn(
                    self._open_source(spec, tenant_rng(master, index)),
                    name=f"src:{spec.name}",
                )
        for delay, slot in self.config.degrade_at:
            sim.spawn(
                self._degrade_proc(delay, slot),
                name=f"degrade:prr{slot}",
            )
        if self._chaos is not None:
            for idx, event in enumerate(self._chaos.spec.events):
                sim.spawn(
                    self._chaos.outage_proc(event),
                    name=f"chaos:{event.domain}#{idx}",
                )
        sim.watchdog = Watchdog(stall_events=_STALL_EVENTS).start(sim)
        interrupted: str | None = None
        try:
            sim.run()
        except WatchdogExpired as exc:
            interrupted = str(exc)
        finally:
            sim.watchdog = None
        if interrupted is None:
            self.fabric.assert_no_overlap()
        for spec in self.tenants:
            obsm.gauge("repro_service_backlog_peak").set(
                self.stats[spec.name].backlog_peak, tenant=spec.name
            )
        return ServiceResult(
            tenants=[self.stats[t.name] for t in self.tenants],
            makespan=sim.now - start,
            horizon=self.config.horizon,
            timeline=self.timeline,
            fills=self.fabric.fills,
            cache_hits=self.cache.stats.hits,
            cache_misses=self.cache.stats.misses,
            retired=sorted(self.fabric.retired),
            decision_epochs=self.admission.epochs_as_dict(),
            interrupted=interrupted,
            notes={
                "t_config_full": self.node.full_config_time(self.estimated),
                "hit_ratio": self.cache.stats.hit_ratio,
                "events": float(sim.events_processed),
            },
            chaos=(
                None if self._chaos is None else self._chaos.as_dict()
            ),
        )


def run_service(
    tenants: Sequence[TenantSpec],
    config: ServiceConfig,
    *,
    seed: int = 0,
) -> ServiceResult:
    """Run one service realization; audited by the caller."""
    return ServiceExecutor(tenants, config, seed=seed).run()
