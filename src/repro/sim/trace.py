"""Timeline tracing for simulation runs.

Every executor in :mod:`repro.rtr` records what happened when as a list of
:class:`Span` records (phase name, task, lane, start, end).  The trace is
the simulated analogue of the paper's Figures 2-4 execution profiles and is
what :mod:`repro.analysis.validate` compares against the analytical model.
A :class:`Timeline` builds its spans on first read, so a run whose
timeline nobody reads builds none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["Span", "Timeline", "Phase"]


class Phase:
    """Canonical phase names used across the executors (Fig. 2)."""

    SETUP = "setup"            # pre-fetch decision (T_decision)
    CONFIG = "config"          # full or partial (re)configuration
    CONTROL = "control"        # transfer of control (T_control)
    DATA_IN = "data_in"        # host -> FPGA input transfer
    COMPUTE = "compute"        # task computation on the fabric
    DATA_OUT = "data_out"      # FPGA -> host output transfer
    TASK = "task"              # aggregated T_task (data_in+compute+data_out)

    ALL = (SETUP, CONFIG, CONTROL, DATA_IN, COMPUTE, DATA_OUT, TASK)


@dataclass(frozen=True)
class Span:
    """One timed activity on a named lane of the timeline."""

    phase: str
    start: float
    end: float
    lane: str = "main"
    task: str = ""
    note: str = ""

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"span ends before it starts: {self!r}")

    @property
    def duration(self) -> float:
        """``end - start`` in simulated seconds."""
        return self.end - self.start

    def overlaps(self, other: "Span") -> bool:
        """Whether the two half-open spans share any instant."""
        return self.start < other.end and other.start < self.end


class Timeline:
    """An append-only collection of :class:`Span` records.

    :meth:`add` checks its arguments and keeps a plain tuple; the
    :class:`Span` records are built on the first read of :attr:`spans`
    (iteration, ``len``, ``==``, every query and export), in insertion
    order.  A run nobody reads builds none.

    :class:`Span` itself is frozen, but the ``spans`` *list* is plain
    and therefore aliasable: ``Timeline(spans=shared_list)`` (or module
    callers holding a reference) can mutate a timeline behind its back.
    Use :meth:`merged` for a defensive copy and :meth:`freeze` to make
    a timeline reject further mutation through *this* object while
    decoupling it from any aliased list.  A span appended straight to
    an aliased list lands before any :meth:`add` left pending.
    """

    def __init__(self, spans: Optional[list[Span]] = None) -> None:
        self._spans: list[Span] = [] if spans is None else spans
        #: ``Span`` arguments :meth:`add` accepted since the last read
        self._pending: list[tuple[str, float, float, str, str, str]] = []
        self._frozen = False

    def add(
        self,
        phase: str,
        start: float,
        end: float,
        *,
        lane: str = "main",
        task: str = "",
        note: str = "",
    ) -> None:
        """Append one span; raises ``TypeError`` once frozen.

        A span ending before it starts raises :class:`Span`'s
        ``ValueError`` here, not when it is read.
        """
        if self._frozen:
            raise TypeError("cannot add spans to a frozen timeline")
        if end < start:  # Span raises, naming every field
            Span(phase, start, end, lane=lane, task=task, note=note)
        self._pending.append((phase, start, end, lane, task, note))

    @property
    def spans(self) -> list[Span]:
        """Every span in insertion order (builds the pending ones)."""
        if self._pending:
            self._spans.extend([Span(*args) for args in self._pending])
            self._pending.clear()
        return self._spans

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        return self.spans == other.spans

    def __repr__(self) -> str:
        return f"Timeline(spans={self.spans!r})"

    # -- defensive copies --------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has been called."""
        return self._frozen

    def freeze(self) -> "Timeline":
        """Make this timeline immutable (idempotent); returns ``self``.

        The span list is copied, so appends through a previously shared
        list no longer reach this timeline — the regression this guards
        is a caller mutating the list a finalized ``RunResult`` holds.
        Pending spans stay pending: freezing builds none.
        """
        if not self._frozen:
            self._spans = list(self._spans)
            self._frozen = True
        return self

    def merged(self) -> "Timeline":
        """An independent, mutable copy (spans are shared — frozen)."""
        return Timeline(spans=list(self.spans))

    # -- queries ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def by_phase(self, phase: str) -> list[Span]:
        """The spans of one phase, in insertion order."""
        return [s for s in self.spans if s.phase == phase]

    def by_lane(self, lane: str) -> list[Span]:
        """The spans on one lane, in insertion order."""
        return [s for s in self.spans if s.lane == lane]

    def by_task(self, task: str) -> list[Span]:
        """The spans of one task, in insertion order."""
        return [s for s in self.spans if s.task == task]

    def lanes(self) -> list[str]:
        """Distinct lane names in first-appearance order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.lane, None)
        return list(seen)

    def total(self, phase: Optional[str] = None) -> float:
        """Total (summed, possibly overlapping) duration of a phase."""
        spans = self.spans if phase is None else self.by_phase(phase)
        return sum(s.duration for s in spans)

    def busy_time(self, lane: Optional[str] = None) -> float:
        """Union length of spans on a lane (overlaps counted once)."""
        spans = sorted(
            self.spans if lane is None else self.by_lane(lane),
            key=lambda s: s.start,
        )
        busy = 0.0
        cur_start: Optional[float] = None
        cur_end = 0.0
        for s in spans:
            if cur_start is None:
                cur_start, cur_end = s.start, s.end
            elif s.start <= cur_end:
                cur_end = max(cur_end, s.end)
            else:
                busy += cur_end - cur_start
                cur_start, cur_end = s.start, s.end
        if cur_start is not None:
            busy += cur_end - cur_start
        return busy

    @property
    def makespan(self) -> float:
        if not self.spans:
            return 0.0
        return max(s.end for s in self.spans) - min(s.start for s in self.spans)

    @property
    def end_time(self) -> float:
        return max((s.end for s in self.spans), default=0.0)

    def assert_lane_exclusive(self, lane: str) -> None:
        """Raise if two spans on ``lane`` overlap (exclusive-resource check)."""
        spans = sorted(self.by_lane(lane), key=lambda s: (s.start, s.end))
        for a, b in zip(spans, spans[1:]):
            # Touching endpoints (a.end == b.start) are fine.
            if a.overlaps(b):
                raise AssertionError(
                    f"overlapping spans on lane {lane!r}: {a} vs {b}"
                )

    # -- export ----------------------------------------------------------

    def to_rows(self) -> list[dict[str, object]]:
        """Plain-dict rows, convenient for CSV export or table rendering."""
        return [
            {
                "lane": s.lane,
                "phase": s.phase,
                "task": s.task,
                "start": s.start,
                "end": s.end,
                "duration": s.duration,
                "note": s.note,
            }
            for s in sorted(self.spans, key=lambda s: (s.start, s.lane))
        ]

    def gantt(self, width: int = 72, resolution: Optional[float] = None) -> str:
        """Render an ASCII Gantt chart, one row per lane.

        Each lane row shows blocks of the first letter of the phase name.
        Useful for eyeballing overlap structure (the paper's Fig. 3/4).
        """
        if not self.spans:
            return "(empty timeline)"
        t0 = min(s.start for s in self.spans)
        t1 = max(s.end for s in self.spans)
        horizon = max(t1 - t0, 1e-12)
        scale = (width - 1) / horizon
        lines = []
        label_w = max(len(lane) for lane in self.lanes()) + 1
        for lane in self.lanes():
            row = [" "] * width
            for s in self.by_lane(lane):
                a = int((s.start - t0) * scale)
                b = max(int((s.end - t0) * scale), a + 1)
                ch = (s.phase[:1] or "#").upper()
                for i in range(a, min(b, width)):
                    row[i] = ch
            lines.append(f"{lane:<{label_w}}|{''.join(row)}|")
        lines.append(
            f"{'':<{label_w}} t0={t0:.6g}  t1={t1:.6g}  "
            f"(1 col = {horizon / (width - 1):.3g})"
        )
        return "\n".join(lines)
