"""Shared-resource primitives for the DES kernel.

Two resource archetypes cover every piece of hardware we model:

* :class:`MutexResource` — an exclusive-ownership device (a configuration
  port, a memory bank, a PRR).  Requests queue FIFO; holders release
  explicitly.  Each hold is recorded for trace validation (no two
  holders may ever overlap); its :class:`Interval` is built on the first
  read of :attr:`MutexResource.intervals`.

* :class:`BandwidthChannel` — a store-and-forward channel moving *bytes* at
  a fixed rate with an optional fixed per-transfer overhead (an I/O link, a
  configuration interface).  Transfers on the same channel serialize; the
  dual-channel RapidArray link of the Cray XD1 is modeled as two independent
  channels (one per direction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Sequence

from .engine import Delay, EventSignal, SimulationError, Simulator, left_sum

__all__ = ["MutexResource", "BandwidthChannel", "ChannelTiming", "Interval"]


@dataclass(frozen=True)
class Interval:
    """A closed-open holding interval ``[start, end)`` on a resource."""

    start: float
    end: float
    owner: str

    def overlaps(self, other: "Interval") -> bool:
        """Whether the two half-open intervals share any instant."""
        return self.start < other.end and other.start < self.end


class MutexResource:
    """Exclusive resource with FIFO queueing and interval accounting."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._holder: Optional[str] = None
        self._acquired_at: float = 0.0
        self._waiters: list[tuple[EventSignal, str]] = []
        #: holds not yet read, in order: ``(start, end, owner)`` per
        #: release, or a channel's ``(fold, count, label)`` fold record
        self._holds: list[tuple[Any, Any, str]] = []
        self._intervals: list[Interval] = []

    @property
    def busy(self) -> bool:
        """Whether some owner holds the resource now."""
        return self._holder is not None

    @property
    def holder(self) -> Optional[str]:
        """The current owner, or ``None`` when free."""
        return self._holder

    def acquire(self, owner: str) -> Generator[Any, Any, None]:
        """Process helper: ``yield from resource.acquire("me")``."""
        if self._holder is None:
            self._grant(owner)
            return
        sig = self.sim.signal(name=f"acq:{self.name}:{owner}")
        self._waiters.append((sig, owner))
        yield sig

    def try_acquire(self, owner: str) -> bool:
        """Take the resource for ``owner`` now if free; ``False`` leaves
        a held one to :meth:`acquire`, which queues."""
        if self._holder is not None:
            return False
        self._grant(owner)
        return True

    def release(self, owner: str) -> None:
        """Release as ``owner`` and grant the next FIFO waiter, if any."""
        if self._holder != owner:
            raise SimulationError(
                f"{owner!r} released {self.name!r} held by {self._holder!r}"
            )
        self._holds.append((self._acquired_at, self.sim.now, owner))
        self._holder = None
        if self._waiters:
            sig, next_owner = self._waiters.pop(0)
            self._grant(next_owner)
            sig.succeed()

    def _grant(self, owner: str) -> None:
        self._holder = owner
        self._acquired_at = self.sim.now

    def _build(
        self, transfer_time: Callable[[float], float] | None = None
    ) -> list[Interval]:
        """The holding intervals, each hold recorded since the last read
        built in order.

        A fold record ``(fold, count, label)`` (only a
        :class:`BandwidthChannel` leaves one, and passes its
        ``transfer_time``) re-times its stream: ``fold(transfer_time,
        spans)`` appends each transfer's ``(start, end, index)``, and
        the first ``count`` become intervals owned by
        ``f"{label}{index}"``.
        """
        holds = self._holds
        if holds:
            intervals = self._intervals
            for first, second, owner in holds:
                if not callable(first):
                    intervals.append(Interval(first, second, owner))
                    continue
                spans: list[tuple[float, float, int]] = []
                first(transfer_time, spans)
                intervals.extend(
                    Interval(start, end, f"{owner}{idx}")
                    for start, end, idx in spans[:second]
                )
            holds.clear()
        return self._intervals

    @property
    def intervals(self) -> list[Interval]:
        """Every finished hold, in release order."""
        return self._build()

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of ``[0, horizon]`` the resource was held."""
        horizon = self.sim.now if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        held = sum(iv.end - iv.start for iv in self.intervals)
        if self._holder is not None:
            held += self.sim.now - self._acquired_at
        return held / horizon

    def assert_no_overlap(self) -> None:
        """Raise if any two recorded holding intervals overlap."""
        ivs = sorted(self.intervals, key=lambda iv: iv.start)
        for a, b in zip(ivs, ivs[1:]):
            if a.overlaps(b):
                raise SimulationError(
                    f"overlapping holds on {self.name!r}: {a} vs {b}"
                )


class ChannelTiming:
    """A channel's pure time model, ``time = overhead + nbytes / rate``.

    ``rate`` is the sustained throughput in bytes per unit time;
    ``overhead`` a fixed latency added to every transfer (API call cost,
    DMA setup...).  Usable without a simulator, so the hybrid replay
    times link transfers with the code every :class:`BandwidthChannel`
    inherits.
    """

    def __init__(self, rate: float, overhead: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"channel rate must be positive: {rate}")
        if overhead < 0:
            raise ValueError(f"channel overhead must be >= 0: {overhead}")
        self.rate = rate
        self.overhead = overhead

    def transfer_time(self, nbytes: float) -> float:
        """Pure time model for a transfer of ``nbytes`` (no queueing)."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.overhead + nbytes / self.rate


class BandwidthChannel(ChannelTiming):
    """Serializing byte channel with the :class:`ChannelTiming` time model.

    Parameters
    ----------
    rate, overhead:
        The :class:`ChannelTiming` parameters.
    injector:
        Optional fault oracle (:class:`repro.faults.FaultInjector`-shaped:
        anything with ``transfer_corrupted(nbytes) -> bool``).  Consulted
        once per :meth:`transfer_ok` call; corrupted transfers still pay
        their full wire time — the bytes moved, they just arrived wrong.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate: float,
        overhead: float = 0.0,
        injector: Any | None = None,
    ) -> None:
        super().__init__(rate, overhead)
        self.sim = sim
        self.name = name
        self.injector = injector
        self._mutex = MutexResource(sim, name=f"{name}.mutex")
        self.bytes_moved: float = 0.0
        self.transfer_count: int = 0
        self.corrupted_count: int = 0
        #: owner and end time of the current folded stream (:meth:`reserve`)
        self._fold_owner = ""
        self._fold_until = 0.0

    @property
    def busy(self) -> bool:
        return self._mutex.busy

    def reserve(self, owner: str, until: float) -> None:
        """Hold the free channel for ``owner``'s folded stream until ``until``.

        A folded stream computes its transfers' timing without events
        and accounts them afterwards with :meth:`record_fold`; that is
        exact only if nobody else uses the channel in between.  Any
        :meth:`transfer` requested before ``until`` therefore raises
        :class:`SimulationError` naming both owners instead of silently
        diverging from the per-transfer timeline.
        """
        self._fold_owner = owner
        self._fold_until = until

    def record_fold(
        self,
        fold: Callable[..., Any],
        payloads: Sequence[float],
        label: str,
    ) -> None:
        """Account the transfers a folded stream made, in one record.

        ``payloads`` are the sizes of the transfers that ran, in order:
        ``bytes_moved`` and ``transfer_count`` move now, by the float
        additions :meth:`transfer` makes.  Their intervals are built on
        first read of :attr:`intervals`, :meth:`utilization` or
        :meth:`assert_no_overlap`, in the record's place among the
        channel's holds: ``fold(self.transfer_time, spans)`` re-times the
        stream, and the first ``len(payloads)`` transfers become
        intervals owned by ``f"{label}{index}"``.  ``fold`` must not
        reference the channel: the record lives in the channel's own
        hold list, so that would be a cycle only the garbage collector
        frees.
        """
        self.bytes_moved = left_sum(payloads, self.bytes_moved)
        self.transfer_count += len(payloads)
        self._mutex._holds.append((fold, len(payloads), label))

    def try_start(self, owner: str) -> bool:
        """Take the channel for ``owner``'s transfer now if it is free.

        The event-free start of every transfer: the caller yields the
        :meth:`transfer_time` delay and then calls :meth:`finish`.
        ``False`` when another owner holds the channel, which
        :meth:`transfer` then queues for.
        """
        if self.sim.now < self._fold_until:
            raise SimulationError(
                f"{owner!r} requested {self.name!r} inside the folded "
                f"stream of {self._fold_owner!r} (reserved until "
                f"t={self._fold_until!r})"
            )
        return self._mutex.try_acquire(owner)

    def finish(self, nbytes: float, owner: str) -> None:
        """Account ``owner``'s finished ``nbytes`` transfer and release."""
        self.bytes_moved += nbytes
        self.transfer_count += 1
        self._mutex.release(owner)

    def transfer(
        self, nbytes: float, owner: str
    ) -> Generator[Any, Any, float]:
        """Process helper: move ``nbytes``; returns completion time.

        Ignores fault injection — use :meth:`transfer_ok` for payloads
        whose integrity matters (bitstreams).
        """
        if not self.try_start(owner):
            yield from self._mutex.acquire(owner)
        try:
            yield Delay(self.transfer_time(nbytes))
        except BaseException:
            self._mutex.release(owner)
            raise
        self.finish(nbytes, owner)
        return self.sim.now

    def transfer_ok(
        self, nbytes: float, owner: str
    ) -> Generator[Any, Any, tuple[float, bool]]:
        """Like :meth:`transfer` but reports integrity.

        Returns ``(completion_time, ok)`` where ``ok`` is ``False`` when
        the channel's fault injector corrupted the payload in flight.
        Timing is identical to :meth:`transfer` in every case.
        """
        t = yield from self.transfer(nbytes, owner)
        ok = True
        if self.injector is not None and self.injector.transfer_corrupted(
            nbytes
        ):
            ok = False
            self.corrupted_count += 1
        return t, ok

    @property
    def intervals(self) -> list[Interval]:
        return self._mutex._build(self.transfer_time)

    def utilization(self, horizon: Optional[float] = None) -> float:
        self._mutex._build(self.transfer_time)
        return self._mutex.utilization(horizon)

    def assert_no_overlap(self) -> None:
        self._mutex._build(self.transfer_time)
        self._mutex.assert_no_overlap()
