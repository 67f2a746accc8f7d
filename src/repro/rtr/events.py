"""Per-call execution records and run results.

Both executors return a :class:`RunResult`: the full timeline, one
:class:`CallRecord` per function call, aggregate counters, and helpers
that convert the measurement into the analytical model's parameter space
for validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..model.parameters import RawParameters
from ..sim.trace import Timeline

__all__ = ["CallRecord", "RunResult"]


@dataclass(frozen=True, slots=True)
class CallRecord:
    """What happened to one function call."""

    index: int
    task: str
    #: True when the module was already resident (no reconfiguration)
    hit: bool
    #: stage start/end on the executor's main lane
    start: float
    end: float
    #: seconds of (re)configuration attributed to this call (0 for hits)
    config_time: float
    #: which PRR slot ran the task (-1 for FRTR: the whole device)
    slot: int = -1
    #: failed (re)configuration attempts recovered from before this call
    retries: int = 0
    #: retries that re-fetched the bitstream from the server
    refetches: int = 0
    #: partial path abandoned — this call paid a full reconfiguration
    fallback_full: bool = False
    #: seconds burned on failed attempts/backoff (subset of config_time)
    recovery_time: float = 0.0
    #: the call never ran: recovery exhausted and the blade degraded
    failed: bool = False

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"call record ends before start: {self!r}")
        if self.config_time < 0:
            raise ValueError("config_time must be >= 0")
        if self.retries < 0 or self.refetches < 0:
            raise ValueError("retry counters must be >= 0")
        if self.recovery_time < 0:
            raise ValueError("recovery_time must be >= 0")

    @property
    def stage_time(self) -> float:
        return self.end - self.start


@dataclass
class RunResult:
    """Aggregate outcome of an executor run."""

    mode: str  # "frtr" | "prtr"
    trace_name: str
    total_time: float
    records: list[CallRecord]
    timeline: Timeline
    #: startup cost before the first stage (decision + initial full config)
    startup_time: float = 0.0
    notes: dict[str, float] = field(default_factory=dict)
    #: the run was cancelled mid-flight (watchdog); records are partial
    interrupted: bool = False
    #: human-readable cancellation reason (empty for completed runs)
    interrupt_reason: str = ""

    def __post_init__(self) -> None:
        if self.total_time < 0:
            raise ValueError("total_time must be >= 0")
        if not self.records and not self.interrupted:
            raise ValueError("a run must have at least one call record")

    # -- counters ----------------------------------------------------------

    @property
    def n_calls(self) -> int:
        return len(self.records)

    @property
    def n_configs(self) -> int:
        return sum(1 for r in self.records if not r.hit)

    # -- robustness counters ----------------------------------------------

    @property
    def n_retries(self) -> int:
        """Failed configuration attempts recovered from across the run."""
        return sum(r.retries for r in self.records)

    @property
    def n_refetches(self) -> int:
        return sum(r.refetches for r in self.records)

    @property
    def n_fallbacks(self) -> int:
        """Calls that abandoned the partial path for a full reconfiguration."""
        return sum(1 for r in self.records if r.fallback_full)

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.records if r.failed)

    @property
    def recovery_time(self) -> float:
        """Total simulated seconds burned on failed attempts and backoff."""
        return self.notes.get("startup_recovery_time", 0.0) + sum(
            r.recovery_time for r in self.records
        )

    @property
    def degraded(self) -> bool:
        """The run gave up partway: recovery exhausted on some call."""
        return bool(self.notes.get("degraded", 0.0))

    @property
    def degraded_at(self) -> int | None:
        """Index of the first call that never ran (``None`` if healthy)."""
        if not self.degraded:
            return None
        return int(self.notes["degraded_at"])

    @property
    def hit_ratio(self) -> float:
        """Achieved ``H = 1 - n_config / n_calls`` (0 for empty runs)."""
        if not self.records:
            return 0.0
        return 1.0 - self.n_configs / self.n_calls

    @property
    def miss_ratio(self) -> float:
        if not self.records:
            return 0.0
        return self.n_configs / self.n_calls

    @property
    def mean_stage_time(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([r.stage_time for r in self.records]))

    def config_overhead(self) -> float:
        """Total seconds attributed to (re)configuration."""
        return self.startup_config + sum(r.config_time for r in self.records)

    @property
    def startup_config(self) -> float:
        return self.notes.get("startup_config", 0.0)

    # -- model bridging -------------------------------------------------------

    def raw_parameters(
        self,
        t_frtr: float,
        t_prtr: float,
        t_control: float = 0.0,
        t_decision: float = 0.0,
        t_task: Optional[float] = None,
    ) -> RawParameters:
        """Package this run's measured ``H`` with platform times for the
        analytical model (``t_task`` defaults to the trace mean)."""
        if t_task is None:
            t_task = self.notes.get("mean_task_time")
            if t_task is None:
                raise ValueError("t_task not recorded; pass it explicitly")
        return RawParameters(
            t_task=t_task,
            t_frtr=t_frtr,
            t_prtr=t_prtr,
            t_control=t_control,
            t_decision=t_decision,
            hit_ratio=self.hit_ratio,
        )

    def summary(self) -> dict[str, float]:
        out = {
            "total_time": self.total_time,
            "n_calls": float(self.n_calls),
            "n_configs": float(self.n_configs),
            "hit_ratio": self.hit_ratio,
            "startup_time": self.startup_time,
            "config_overhead": self.config_overhead(),
            "mean_stage_time": self.mean_stage_time,
        }
        if self.n_retries or self.n_fallbacks or self.n_failed:
            out["n_retries"] = float(self.n_retries)
            out["n_fallbacks"] = float(self.n_fallbacks)
            out["n_failed"] = float(self.n_failed)
            out["recovery_time"] = self.recovery_time
        if self.interrupted:
            out["interrupted"] = 1.0
        return out
