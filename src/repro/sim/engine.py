"""Discrete-event simulation (DES) engine.

The whole hardware model in :mod:`repro.hardware` and the reconfiguration
executors in :mod:`repro.rtr` are built on this small, deterministic DES
kernel.  It follows the classic event-list design:

* a :class:`Simulator` owns a monotonically advancing clock and a priority
  queue of ``(time, seq, process, value)`` tuples, ordered by time and
  then by ``seq``, the order events were scheduled in;
* *processes* are plain Python generators that ``yield`` scheduling
  primitives (:class:`Delay`, :class:`WaitUntil`, :class:`WaitEvent`,
  :class:`AllOf`) and are resumed by the kernel when the corresponding
  condition is satisfied.

The engine is intentionally synchronous and single-threaded: determinism is
a hard requirement because the analytical model of the paper is exact, and
we validate the simulator against it to float precision.

:meth:`Simulator.run` is the kernel's one event loop.  It pops events
inline, and a process whose :class:`Delay` wakes strictly before every
queued event resumes in place instead of through the heap.  That event
would be popped next anyway, so it still takes a sequence number and
counts in :attr:`Simulator.events_processed`.  A per-event hook in
:attr:`Simulator.watchdog` runs once after every event, in-place
resumes included, and must not schedule events; it changes neither
order nor counts.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield Delay(5.0)
...     log.append(sim.now)
>>> _ = sim.spawn(proc(sim))
>>> sim.run()
5.0
>>> log
[5.0]
"""

from __future__ import annotations

import functools
import heapq
import operator
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable

__all__ = [
    "Delay",
    "WaitUntil",
    "WaitEvent",
    "AllOf",
    "EventSignal",
    "Process",
    "Simulator",
    "SimulationError",
    "left_sum",
]


def left_sum(values: Iterable[float], start: float = 0.0) -> float:
    """``(((start + v0) + v1) + ...)``: one rounding per addition, in order.

    The float sum every supported interpreter agrees on, and the one
    the DES performs when it adds times in sequence.  From Python 3.12
    the builtin :func:`sum` compensates float sums, so its last bits
    depend on the interpreter: ``sum([0.1] * 10)`` is ``1.0`` on 3.12
    but ``0x1.fffffffffffffp-1`` on 3.10 and 3.11, which is what this
    returns everywhere.
    """
    return functools.reduce(operator.add, values, start)


class SimulationError(RuntimeError):
    """Raised for scheduling violations (negative delays, dead kernels...)."""


class Delay:
    """Yield from a process to suspend it for ``duration`` simulated time."""

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise SimulationError(f"negative delay: {duration!r}")
        self.duration = duration


class WaitUntil:
    """Yield from a process to suspend it until absolute time ``time``.

    Exact where ``Delay(time - sim.now)`` is not: ``now + (time - now)``
    can round one ulp away from ``time``.  A time in the past raises
    :class:`SimulationError` when yielded.
    """

    __slots__ = ("time",)

    def __init__(self, time: float) -> None:
        self.time = time


class EventSignal:
    """A one-shot level-triggered signal processes may wait on.

    Once :meth:`succeed` fires, all current and *future* waiters resume
    immediately (future waiters resume at their wait time, i.e. a wait on an
    already-fired signal is a no-op).  A payload value is delivered to each
    waiter as the value of the ``yield`` expression.
    """

    __slots__ = ("_sim", "_fired", "_value", "_waiters", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._fired = False
        self._value: Any = None
        self._waiters: list["Process"] = []
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"signal {self.name!r} has not fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the signal, resuming every waiter at the current sim time."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._sim._schedule(self._sim.now, proc, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            self._sim._schedule(self._sim.now, proc, self._value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "fired" if self._fired else "pending"
        return f"<EventSignal {self.name!r} {state}>"


@dataclass(frozen=True)
class WaitEvent:
    """Yield from a process to suspend it until ``signal`` fires."""

    signal: EventSignal


@dataclass(frozen=True)
class AllOf:
    """Yield from a process to wait until *all* signals have fired."""

    signals: tuple[EventSignal, ...]

    def __init__(self, signals: Iterable[EventSignal]) -> None:
        object.__setattr__(self, "signals", tuple(signals))


class Process:
    """A running generator coroutine inside a :class:`Simulator`.

    The generator yields :class:`Delay` / :class:`WaitEvent` / :class:`AllOf`
    instances (or another :class:`Process` to join it).  When the generator
    returns, :attr:`done` fires with the generator's return value.
    """

    __slots__ = ("sim", "gen", "done", "name", "_pending_join")

    def __init__(
        self,
        sim: "Simulator",
        gen: Generator[Any, Any, Any],
        name: str = "",
    ) -> None:
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.done = EventSignal(sim, name=f"done:{self.name}")

    @property
    def finished(self) -> bool:
        return self.done.fired

    @property
    def result(self) -> Any:
        return self.done.value

    def _step(self, send_value: Any) -> None:
        sim = self.sim
        while True:
            try:
                target = self.gen.send(send_value)
            except StopIteration as stop:
                self.done.succeed(stop.value)
                return
            if type(target) is not Delay:
                if type(target) is WaitUntil:
                    sim._schedule(target.time, self, None)
                else:
                    self._dispatch(target)
                return
            wake = sim.now + target.duration
            queue = sim._queue
            if not sim._zero and (not queue or wake < queue[0][0]):
                # The wake-up would be the next event popped: take it
                # here, as the kernel would, with its seq and its count,
                # after the hook has seen the event that just ran.
                hook = sim.watchdog
                if hook is not None:
                    try:
                        hook.after_event(sim)
                    except BaseException:
                        sim._schedule(wake, self, None)
                        raise
                sim._next_seq += 1
                sim._event_count += 1
                sim.now = wake
                sim.last_process = self
                send_value = None
                continue
            sim._schedule(wake, self, None)
            return

    def _dispatch(self, target: Any) -> None:
        """Wait on anything but a :class:`Delay` or :class:`WaitUntil`
        (:meth:`_step` schedules those)."""
        if isinstance(target, WaitEvent):
            target.signal._add_waiter(self)
        elif isinstance(target, Process):
            target.done._add_waiter(self)
        elif isinstance(target, AllOf):
            self._wait_all(target.signals)
        elif isinstance(target, EventSignal):
            target._add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {target!r}"
            )

    def _wait_all(self, signals: tuple[EventSignal, ...]) -> None:
        pending = [s for s in signals if not s.fired]
        if not pending:
            self.sim._schedule(self.sim.now, self, None)
            return
        waiter = _AllOfWaiter(self, len(pending))
        for sig in pending:
            sig._waiters.append(waiter)  # type: ignore[arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else "running"
        return f"<Process {self.name!r} {state}>"


class _AllOfWaiter:
    """Resumes ``parent`` once ``remaining`` signals have fired.

    Registered on each pending signal of an :class:`AllOf`, so every
    firing resumes it as a kernel event, as it would a process; the
    last one schedules the parent.  It has no ``name``, so the
    :class:`repro.obs.profile.EventProfiler` files those events as
    anonymous.
    """

    __slots__ = ("parent", "remaining")

    def __init__(self, parent: Process, remaining: int) -> None:
        self.parent = parent
        self.remaining = remaining

    def _step(self, _value: Any) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            sim = self.parent.sim
            sim._schedule(sim.now, self.parent, None)


class Simulator:
    """Deterministic single-threaded discrete-event simulator.

    Attributes
    ----------
    now:
        Current simulation time.  Starts at ``0.0`` and never decreases.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        #: heap of ``(time, seq, process, value)``; ``seq`` is unique, so
        #: tuple order is (time, seq) order and never compares processes
        self._queue: list[tuple[float, int, Any, Any]] = []
        #: zero-delay side queue: events scheduled at exactly ``now`` are
        #: drained FIFO without paying two O(log n) heap sifts each.  Any
        #: heap entry at the current time was inserted *before* the clock
        #: reached it, so its seq is smaller than every side-queue entry's
        #: and plain "heap first on time ties" preserves (time, seq) order.
        self._zero: deque[tuple[Any, Any]] = deque()
        self._next_seq = 0
        self._running = False
        self._event_count = 0
        #: optional per-event hook (:class:`repro.runtime.watchdog.
        #: Watchdog`-shaped: ``after_event(sim)`` raising to cancel);
        #: duck-typed so the kernel stays dependency-free.  The
        #: :class:`repro.obs.profile.EventProfiler` rides the same slot
        #: (and chains any real watchdog behind it).  It runs once after
        #: every event, in-place resumes included, and must not schedule
        #: events: the in-place check has already been made when it runs.
        self.watchdog: Any = None
        #: the process the most recent event was dispatched to — what a
        #: watchdog-slot hook (profiler) sees as "the event just run"
        self.last_process: Any = None

    # -- scheduling ------------------------------------------------------

    def _schedule(self, time: float, proc: Any, value: Any) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now={self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        if time == self.now:
            self._zero.append((proc, value))
        else:
            heapq.heappush(self._queue, (time, seq, proc, value))

    def spawn(
        self, gen: Generator[Any, Any, Any], name: str = ""
    ) -> Process:
        """Register a generator as a process starting at the current time."""
        proc = Process(self, gen, name=name)
        self._schedule(self.now, proc, None)
        return proc

    def signal(self, name: str = "") -> EventSignal:
        """Create a fresh :class:`EventSignal` bound to this simulator."""
        return EventSignal(self, name=name)

    def schedule_at(
        self, time: float, fn: Callable[[], None], name: str = "timer"
    ) -> Process:
        """Run ``fn`` as a one-shot process at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(f"schedule_at past time {time} < {self.now}")

        def timer() -> Generator[Any, Any, None]:
            yield WaitUntil(time)
            fn()

        return self.spawn(timer(), name=name)

    # -- execution -------------------------------------------------------

    def run(self) -> float:
        """Run until the event queue drains; returns the final time."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        queue = self._queue
        zero = self._zero
        heappop = heapq.heappop
        try:
            while True:
                # Heap entries tied with ``now`` precede side-queue
                # entries (smaller seq by construction — see __init__).
                if zero and not (queue and queue[0][0] == self.now):
                    proc, value = zero.popleft()
                elif queue:
                    self.now, _seq, proc, value = heappop(queue)
                else:
                    return self.now
                self._event_count += 1
                self.last_process = proc
                proc._step(value)
                if self.watchdog is not None:
                    self.watchdog.after_event(self)
        finally:
            self._running = False

    @property
    def events_processed(self) -> int:
        return self._event_count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        queued = len(self._queue) + len(self._zero)
        return f"<Simulator now={self.now} queued={queued}>"
