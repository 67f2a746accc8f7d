"""Simulation-versus-model validation.

The paper's Figure 9 claim is that the measured points agree with the
analytical curves.  This module formalizes "agree": given a
:class:`~repro.rtr.events.RunResult` and the platform times, compute the
model's prediction (finite-``n`` Eq. 6 and the exact pipeline total) and
report relative errors.

Two reference totals are provided:

* :func:`expected_prtr_pipeline_total` — the *exact* expectation for the
  executor's pipeline given the per-call hit sequence; the simulator must
  match this to float precision (asserted in tests);
* Eq. (3)/(5) via :mod:`repro.model.prtr` — the paper's averaged model;
  agreement is asymptotic in ``n`` (the two differ by at most one stage's
  worth of configuration overlap at the trace boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..model.frtr import frtr_total_time
from ..model.parameters import RawParameters
from ..model.prtr import prtr_total_time
from ..rtr.events import RunResult

__all__ = [
    "ValidationReport",
    "expected_prtr_pipeline_total",
    "validate_frtr",
    "validate_prtr",
    "relative_error",
]


def relative_error(measured: float, expected: float) -> float:
    """``|measured - expected| / |expected|`` (0 when both are 0)."""
    if expected == 0:
        return 0.0 if measured == 0 else np.inf
    return abs(measured - expected) / abs(expected)


def expected_prtr_pipeline_total(
    task_times: list[float],
    hits: list[bool],
    *,
    t_frtr: float,
    t_prtr: float,
    t_control: float = 0.0,
    t_decision: float = 0.0,
) -> float:
    """Exact total of the lookahead-1 pipeline the executor implements.

    Startup (decision + full configuration), then per stage ``i``:
    ``t_control`` plus ``max(task_i + t_decision, t_prtr)`` when call
    ``i+1`` is a miss needing overlap, else ``task_i + t_decision``.
    The *first* call's configuration ships with the initial full
    bitstream; the *last* stage has no successor to configure.
    """
    n = len(task_times)
    if n != len(hits):
        raise ValueError("task_times and hits must have equal length")
    if n == 0:
        raise ValueError("empty trace")
    total = t_decision + t_frtr  # startup
    for i in range(n):
        total += t_control
        serial = task_times[i] + t_decision
        next_missed = (i + 1 < n) and not hits[i + 1]
        total += max(serial, t_prtr) if next_missed else serial
    return total


@dataclass(frozen=True)
class ValidationReport:
    """Measured vs expected totals with relative errors."""

    mode: str
    measured_total: float
    pipeline_total: float | None
    model_total: float
    pipeline_rel_error: float | None
    model_rel_error: float

    def ok(self, pipeline_tol: float = 1e-9, model_tol: float = 0.05) -> bool:
        """Tight agreement with the pipeline, loose with the averaged model."""
        pipe_ok = (
            self.pipeline_rel_error is None
            or self.pipeline_rel_error <= pipeline_tol
        )
        return pipe_ok and self.model_rel_error <= model_tol


def validate_frtr(
    result: RunResult, *, t_frtr: float, t_control: float, t_task: float
) -> ValidationReport:
    """Compare an FRTR run against Eq. (1)."""
    raw = RawParameters(
        t_task=t_task, t_frtr=t_frtr, t_prtr=t_frtr, t_control=t_control
    )
    model = float(frtr_total_time(raw, result.n_calls))
    return ValidationReport(
        mode="frtr",
        measured_total=result.total_time,
        pipeline_total=model,  # Eq. (1) *is* the exact serial pipeline
        model_total=model,
        pipeline_rel_error=relative_error(result.total_time, model),
        model_rel_error=relative_error(result.total_time, model),
    )


def validate_prtr(
    result: RunResult,
    *,
    t_frtr: float,
    t_prtr: float,
    t_control: float = 0.0,
    t_decision: float = 0.0,
) -> ValidationReport:
    """Compare a PRTR run against the pipeline formula and Eq. (3).

    Eq. (3) uses the run's *measured* hit ratio, closing the loop the
    paper draws between experiment and model.
    """
    # Stage times include overlap effects; recover pure task times from
    # the timeline's TASK spans (one per call for opaque-task runs).
    task_spans = result.timeline.by_phase("task")
    if len(task_spans) == result.n_calls:
        task_times = [s.duration for s in task_spans]
    else:  # detailed-io runs: reconstruct from data/compute spans
        task_times = [
            r.stage_time - t_control for r in result.records
        ]
    hits = [r.hit for r in result.records]
    pipeline = expected_prtr_pipeline_total(
        task_times,
        hits,
        t_frtr=t_frtr,
        t_prtr=t_prtr,
        t_control=t_control,
        t_decision=t_decision,
    )
    raw = RawParameters(
        t_task=float(np.mean(task_times)),
        t_frtr=t_frtr,
        t_prtr=t_prtr,
        t_control=t_control,
        t_decision=t_decision,
        hit_ratio=result.hit_ratio,
    )
    model = float(prtr_total_time(raw, result.n_calls))
    return ValidationReport(
        mode="prtr",
        measured_total=result.total_time,
        pipeline_total=pipeline,
        model_total=model,
        pipeline_rel_error=relative_error(result.total_time, pipeline),
        model_rel_error=relative_error(result.total_time, model),
    )
