"""The PRR pool the service scheduler time-shares.

:class:`PrrFabric` tracks which module each PRR holds, pins the modules
in use against eviction, configures a miss through the node's ICAP, and
takes slots out of rotation for degraded blades and chaos outages.
"""

from __future__ import annotations

from typing import Any, Generator

from ..caching.base import ConfigCache
from ..hardware.node import XD1Node
from ..sim.resources import MutexResource
from ..sim.trace import Phase, Timeline

__all__ = ["PrrFabric"]


class PrrFabric:
    """The shared PRR-pool machinery: residency, pinning, reconfiguration.

    The pool the service scheduler (:mod:`repro.service.scheduler`)
    time-shares, for ``repro serve``/``repro chaos`` and for
    :func:`~repro.rtr.multitask.compare_multitask`'s PRTR half alike.

    Responsibilities:

    * residency tracked by a :class:`ConfigCache` over the PRR slots;
    * each PRR is an exclusive execution resource (:attr:`prr_mutexes`);
    * the ICAP controller serializes reconfigurations;
    * a miss allocates a victim PRR — never one whose module is pinned
      (currently executing or queued) — and configures the partial
      bitstream with :meth:`~repro.hardware.node.XD1Node
      .configure_partial`, the executors' own attempt;
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
        returns a miss but skips the redundant reconfiguration
        (module sharing across applications).  The cache's hit and miss
        counts are the caller's: a retried attempt must not count its
        request's lookup again.  A configuration fault rolls the
        speculative residency back, wakes any waiters (they re-enter the
        loop and may retry the fill themselves) and re-raises for the
        caller's recovery policy.
        """
        sim = self.sim
        if self.cache.contains(module):
            self.cache.policy.on_access(module)
            return True
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
        try:
            yield from self.node.configure_partial(
                self.node.prr_bitstream(0, module, self._bitstream_bytes),
                owner,
                estimated=self.estimated,
            )
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
