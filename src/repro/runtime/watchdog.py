"""Watchdog: deadline and no-progress cancellation for long runs.

Two execution shapes need guarding:

* **DES runs** (:class:`~repro.sim.engine.Simulator`) can livelock —
  a buggy process yielding ``Delay(0)`` forever burns events without
  advancing the clock — or simply run far past any useful horizon.
  Attach a watchdog to the simulator (``sim.watchdog = wd; wd.start()``)
  and the kernel calls :meth:`Watchdog.after_event` after every event;
  the watchdog raises :class:`WatchdogExpired` when a limit trips.
* **Sweep loops** (grid evaluations in :mod:`repro.runtime.crashsafe`)
  are bounded by *wall clock*: call :meth:`Watchdog.check_wall` between
  grid points.

Cancellation is cooperative and graceful: the exception unwinds out of
``Simulator.run`` (or the sweep loop) to a harness that flushes the
journal or finalizes a partial result marked ``interrupted`` — see
:func:`repro.runtime.crashsafe.run_checkpointed` and
:func:`repro.rtr.cluster.run_cluster`.

Deadline semantics are deterministic for DES limits: an event scheduled
*exactly at* ``max_sim_time`` still runs (the check is strict ``>``),
so two runs of the same workload cancel at the same event regardless of
host speed.  Only ``max_wall_s`` depends on the host clock.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["Watchdog", "WatchdogExpired"]


class WatchdogExpired(RuntimeError):
    """A watchdog limit tripped; carries the machine-readable reason."""

    def __init__(self, reason: str, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason


class Watchdog:
    """Deadline / stall canceller for simulators and sweep loops.

    Parameters
    ----------
    max_sim_time:
        Cancel once the simulation clock passes this time.  An event at
        exactly this time still runs; the first event strictly later
        trips the watchdog.
    max_events:
        Cancel after this many processed events (runaway-queue guard).
    stall_events:
        Cancel after this many *consecutive* events that do not advance
        the simulation clock (the zero-delay livelock heuristic).  Any
        clock advance resets the counter.
    max_wall_s:
        Wall-clock budget in seconds, measured from :meth:`start`.
        Checked both per event and by :meth:`check_wall`; ``0`` expires
        at the first check.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        *,
        max_sim_time: float | None = None,
        max_events: int | None = None,
        stall_events: int | None = None,
        max_wall_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_sim_time is not None and max_sim_time < 0:
            raise ValueError("max_sim_time must be >= 0")
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1")
        if stall_events is not None and stall_events < 1:
            raise ValueError("stall_events must be >= 1")
        if max_wall_s is not None and max_wall_s < 0:
            raise ValueError("max_wall_s must be >= 0")
        if all(
            limit is None
            for limit in (max_sim_time, max_events, stall_events, max_wall_s)
        ):
            raise ValueError("watchdog needs at least one limit")
        self.max_sim_time = max_sim_time
        self.max_events = max_events
        self.stall_events = stall_events
        self.max_wall_s = max_wall_s
        #: the injectable time source
        self.clock = clock
        self._wall_start: float | None = None
        self._base_events = 0
        self._last_now: float | None = None
        self._stalled = 0
        #: set when the watchdog fires (mirrors the raised exception)
        self.expired_reason: str | None = None

    def start(self, sim: Any | None = None) -> "Watchdog":
        """Arm the watchdog; call when the guarded run begins."""
        self._wall_start = self.clock()
        if sim is not None:
            self._base_events = sim.events_processed
            self._last_now = sim.now
        self._stalled = 0
        self.expired_reason = None
        return self

    # -- checks -----------------------------------------------------------

    def _expire(self, reason: str, detail: str) -> None:
        self.expired_reason = reason
        raise WatchdogExpired(reason, detail)

    def check_wall(self) -> None:
        """Raise if the wall-clock budget is exhausted (sweep loops)."""
        if self.max_wall_s is None:
            return
        if self._wall_start is None:
            self.start()
        elapsed = self.clock() - self._wall_start
        if elapsed >= self.max_wall_s:
            self._expire(
                "wall-deadline",
                f"wall-clock budget exhausted "
                f"({elapsed:.3f}s >= {self.max_wall_s:g}s)",
            )

    def after_event(self, sim: Any) -> None:
        """Per-event hook called by ``Simulator.run`` after each step."""
        if self.max_sim_time is not None and sim.now > self.max_sim_time:
            self._expire(
                "sim-deadline",
                f"simulation clock {sim.now:g} passed the deadline "
                f"{self.max_sim_time:g}",
            )
        processed = sim.events_processed - self._base_events
        if self.max_events is not None and processed >= self.max_events:
            self._expire(
                "event-budget",
                f"processed {processed} events "
                f"(budget {self.max_events})",
            )
        if self.stall_events is not None:
            if self._last_now is None or sim.now > self._last_now:
                self._last_now = sim.now
                self._stalled = 0
            else:
                self._stalled += 1
                if self._stalled >= self.stall_events:
                    self._expire(
                        "no-progress",
                        f"{self._stalled} consecutive events without "
                        f"clock advance at t={sim.now:g}",
                    )
        self.check_wall()
