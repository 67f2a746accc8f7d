"""Task and call-trace abstractions.

Section 3.1 of the paper: applications are built around a common hardware
library; each application issues *function calls* to hardware tasks, and
every task is fully characterized by its time requirement ``T_task``
(I/O + compute folded together).  A :class:`CallTrace` is the sequence of
calls an executor replays — the unit of workload throughout the repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["HardwareTask", "FunctionCall", "CallTrace"]


@dataclass(frozen=True)
class HardwareTask:
    """One hardware function (core) from the application library.

    Attributes
    ----------
    name:
        Library-unique identifier (e.g. ``"median"``).
    time:
        The task time requirement ``T_task`` in seconds — the paper's
        single per-task characterization.  For tasks whose time varies
        with data size, build per-call times into the trace instead.
    data_in_bytes, data_out_bytes:
        Optional I/O volume split; executors that model link contention
        use these, the pure model does not.
    compute_time:
        Optional pure-computation component; when data volumes are given,
        ``time`` should equal data-in + compute + data-out at the nominal
        platform bandwidth (executors check this loosely).
    """

    name: str
    time: float
    data_in_bytes: float = 0.0
    data_out_bytes: float = 0.0
    compute_time: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.time <= 0:
            raise ValueError(f"task time must be > 0: {self.name} {self.time}")
        for f in ("data_in_bytes", "data_out_bytes", "compute_time"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be >= 0")

    def with_time(self, time: float) -> "HardwareTask":
        """This task with ``T_task`` replaced (I/O and compute kept)."""
        return HardwareTask(
            self.name,
            time,
            self.data_in_bytes,
            self.data_out_bytes,
            self.compute_time,
        )


@dataclass(frozen=True)
class FunctionCall:
    """One invocation of a hardware task in a trace."""

    task: HardwareTask
    #: call index within the trace (set by CallTrace)
    index: int = -1

    @property
    def name(self) -> str:
        """The called task's name."""
        return self.task.name


class CallTrace:
    """An ordered sequence of function calls over a finite task library."""

    def __init__(self, tasks: Iterable[HardwareTask], name: str = "trace") -> None:
        self.name = name
        self.calls: list[FunctionCall] = []
        for i, task in enumerate(tasks):
            self.calls.append(FunctionCall(task, index=i))
        if not self.calls:
            raise ValueError("a trace needs at least one call")

    # -- basic protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.calls)

    def __iter__(self) -> Iterator[FunctionCall]:
        return iter(self.calls)

    def __getitem__(self, i: int) -> FunctionCall:
        return self.calls[i]

    # -- statistics ----------------------------------------------------------

    @property
    def n_calls(self) -> int:
        """``n``: the number of calls in the trace."""
        return len(self.calls)

    def task_names(self) -> list[str]:
        """Distinct task names in first-appearance order."""
        seen: dict[str, None] = {}
        for c in self.calls:
            seen.setdefault(c.name, None)
        return list(seen)

    @property
    def n_distinct(self) -> int:
        """The number of distinct tasks the trace calls."""
        return len(self.task_names())

    def mean_task_time(self) -> float:
        """The trace's average ``T_task`` (what the model consumes)."""
        return float(np.mean([c.task.time for c in self.calls]))

    def total_task_time(self) -> float:
        """Sum of ``T_task`` over every call."""
        return float(sum(c.task.time for c in self.calls))

    def call_counts(self) -> dict[str, int]:
        """Calls per task name."""
        counts: dict[str, int] = {}
        for c in self.calls:
            counts[c.name] = counts.get(c.name, 0) + 1
        return counts

    def reuse_distance_histogram(self) -> dict[int, int]:
        """Histogram of stack reuse distances (cold misses excluded).

        The reuse distance of a call is the number of *distinct* tasks
        referenced since the previous call to the same task — the standard
        metric connecting a trace to cache hit ratios.
        """
        hist: dict[int, int] = {}
        stack: list[str] = []  # LRU stack, most recent last
        for c in self.calls:
            if c.name in stack:
                pos = stack.index(c.name)
                distance = len(stack) - pos - 1
                hist[distance] = hist.get(distance, 0) + 1
                stack.pop(pos)
            stack.append(c.name)
        return hist

    def cold_misses(self) -> int:
        """Compulsory misses: the first call to each distinct task."""
        return self.n_distinct

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_names(
        names: Sequence[str],
        library: dict[str, HardwareTask],
        name: str = "trace",
    ) -> "CallTrace":
        """The trace calling ``library[n]`` for each name in ``names``.

        Raises ``KeyError`` naming the first task missing from the
        library.
        """
        try:
            tasks = [library[n] for n in names]
        except KeyError as exc:
            raise KeyError(f"task {exc.args[0]!r} not in library") from None
        return CallTrace(tasks, name=name)

    def repeat(self, times: int) -> "CallTrace":
        """This trace's calls repeated ``times`` times back to back."""
        if times <= 0:
            raise ValueError("times must be >= 1")
        return CallTrace(
            [c.task for _ in range(times) for c in self.calls],
            name=f"{self.name}x{times}",
        )
