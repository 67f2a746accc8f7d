"""DES hot-path profiling.

:class:`EventProfiler` finds where *host* time goes (the simulated
clock is already fully observable through timelines).  It rides the
simulator's existing watchdog hook point
(:attr:`repro.sim.engine.Simulator.watchdog`): the kernel's one event
loop calls ``after_event(sim)`` after every event, a process resumed in
place included, and the profiler attributes the wall-clock gap since
the previous hook call to the event just processed, keyed by its
process's *event type* (the process name with indices stripped, so
``task17`` and ``cfg3`` fold into ``task`` and ``cfg``).  An existing
watchdog can be chained, so profiling composes with deadline
cancellation.

Profiling is measurement only — it never influences scheduling, so a
profiled run produces the same :class:`~repro.rtr.events.RunResult` as
an unprofiled one (a test pins this).
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["EventProfiler", "event_type", "profiled"]

_INDEX_RE = re.compile(r"\d+")


def event_type(process_name: str) -> str:
    """Fold a process name into its type: strip indices, keep structure.

    >>> event_type("task17")
    'task'
    >>> event_type("blade3:wave2")
    'blade:wave'
    >>> event_type("")
    '(anonymous)'
    """
    folded = _INDEX_RE.sub("", process_name).strip("-")
    return folded or "(anonymous)"


class EventProfiler:
    """Watchdog-slot hook measuring wall time per DES event type.

    Parameters
    ----------
    chain:
        Optional watchdog-shaped object whose ``after_event(sim)`` runs
        after the measurement (so deadlines still fire under profiling).
    clock:
        Monotonic wall-clock source, injectable for tests.
    """

    def __init__(
        self,
        chain: Any = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.chain = chain
        self._clock = clock
        self._last_tick: float | None = None
        #: event type -> [count, total wall seconds]
        self.stats: dict[str, list[float]] = {}
        self.events = 0

    def start(self, sim: Any | None = None) -> "EventProfiler":
        """Arm the profiler (and any chained watchdog)."""
        self._last_tick = self._clock()
        if self.chain is not None and hasattr(self.chain, "start"):
            self.chain.start(sim)
        return self

    def after_event(self, sim: Any) -> None:
        """Per-event hook: attribute the gap to the event just run."""
        now = self._clock()
        if self._last_tick is None:
            self._last_tick = now
        elapsed = now - self._last_tick
        self._last_tick = now
        name = getattr(getattr(sim, "last_process", None), "name", "")
        key = event_type(name)
        entry = self.stats.get(key)
        if entry is None:
            self.stats[key] = [1, elapsed]
        else:
            entry[0] += 1
            entry[1] += elapsed
        self.events += 1
        if self.chain is not None:
            self.chain.after_event(sim)

    @property
    def total_seconds(self) -> float:
        """Total wall time attributed across all event types."""
        return sum(total for _count, total in self.stats.values())

    def top(self, n: int = 10) -> list[dict[str, Any]]:
        """The ``n`` costliest event types by total wall time."""
        rows = [
            {
                "event_type": key,
                "count": int(count),
                "total_s": total,
                "mean_us": (total / count * 1e6) if count else 0.0,
            }
            for key, (count, total) in self.stats.items()
        ]
        rows.sort(key=lambda r: (-r["total_s"], r["event_type"]))
        return rows[:n]

    def render(self, n: int = 10) -> str:
        """Text table of :meth:`top` (the hot-path summary)."""
        rows = self.top(n)
        if not rows:
            return "(no events profiled)"
        width = max(len(r["event_type"]) for r in rows)
        width = max(width, len("event type"))
        lines = [
            f"{'event type':<{width}}  {'events':>8}  "
            f"{'total ms':>10}  {'mean us':>9}"
        ]
        for r in rows:
            lines.append(
                f"{r['event_type']:<{width}}  {r['count']:>8}  "
                f"{r['total_s'] * 1e3:>10.3f}  {r['mean_us']:>9.3f}"
            )
        lines.append(
            f"{'(all)':<{width}}  {self.events:>8}  "
            f"{self.total_seconds * 1e3:>10.3f}"
        )
        return "\n".join(lines)


@contextmanager
def profiled(sim: Any, **kwargs: Any) -> Iterator[EventProfiler]:
    """Install an :class:`EventProfiler` on ``sim`` for a ``with`` block.

    Any watchdog already installed keeps working (it is chained), and
    the previous watchdog slot is restored on exit.
    """
    profiler = EventProfiler(chain=sim.watchdog, **kwargs)
    previous = sim.watchdog
    sim.watchdog = profiler.start(sim)
    try:
        yield profiler
    finally:
        sim.watchdog = previous
