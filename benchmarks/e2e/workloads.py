"""The four benchmark workloads: seeded op inputs, one op, its digest.

Op ``i`` of a workload draws its inputs from ``random.Random`` seeded with
``"<workload>:<seed>:<i>"`` alone, so a longer run measures a superset of
a shorter one and the per-op digests committed in ``expected/`` check any
prefix of the default seed.  Inputs are built before timing starts; an op
only calls the program with them.

Every call into :mod:`repro` goes through a module attribute
(``runner.compare``, not a ``from``-imported name), so the span tracer in
``spans.py`` sees it once it rebinds those attributes.

Simulated quantities (speedups, makespans, joules, simulated latencies
and shed rates) are model outputs, not performance: they go into each
op's canonical bytes, which the harness hashes and compares.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np

from repro.analysis import reliability
from repro.experiments import fig9
from repro.hardware.catalog import PUBLISHED_TABLE2
from repro.power import pareto
from repro.rtr import runner
from repro.runtime import invariants
from repro.service import scheduler, slo
from repro.service.tenants import ServiceConfig, default_tenants
from repro.workloads.task import CallTrace

__all__ = ["CheckFailed", "OpResult", "WORKLOADS", "Workload"]

#: calls per Figure 9 trace (each op runs it under FRTR and PRTR)
FIG9_CALLS = 90
#: simulated seconds of open arrivals per service realization
SERVE_HORIZON = 5.0
#: fault-grid cells: calls per trace (each cell runs FRTR and PRTR)
FAULT_CALLS = 30
#: power-journal grid: PRR counts x seeded hit ratios per op
POWER_PRRS = (2, 3, 4, 5)
POWER_HIT_RATIOS = 10
POWER_CALLS = 30


class CheckFailed(RuntimeError):
    """An op's output broke a correctness check the harness makes."""


@dataclass(frozen=True)
class OpResult:
    """What one op produced."""

    #: canonical bytes of every model output the op returned
    canonical: bytes
    #: simulated hardware calls the op answered
    calls: int
    #: relative error against a reference model, where one exists
    model_error: float | None = None


@dataclass(frozen=True)
class Workload:
    """A named workload: ``make_input(i, rng)``, ``run(input, run_dir)``."""

    name: str
    make_input: Callable[[int, random.Random], Any]
    run: Callable[[Any, str], OpResult]

    def inputs(self, seed: int, n_ops: int) -> list[Any]:
        """The op inputs for ``seed``; op ``i`` depends on ``i`` alone."""
        return [
            self.make_input(i, random.Random(f"{self.name}:{seed}:{i}"))
            for i in range(n_ops)
        ]


def _canonical(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


# -- fig9-des: the paper's Figure 9(b) FRTR-vs-PRTR experiment --------------

_PANEL = fig9.panel("measured")
_DUAL_PRR_BYTES = PUBLISHED_TABLE2["dual_prr"].bitstream_bytes


@dataclass(frozen=True)
class Fig9Input:
    x_task: float
    trace: CallTrace
    #: finite-n Eq. (6) speedup at ``x_task`` (the reference model)
    eq6: float


def _fig9_input(i: int, rng: random.Random) -> Fig9Input:
    x_task = 10 ** rng.uniform(-2.5, 1.0)
    trace = fig9._cyclic_trace(x_task * _PANEL.t_frtr, FIG9_CALLS)
    _, eq6 = fig9.model_curve_finite(_PANEL, FIG9_CALLS, np.array([x_task]))
    return Fig9Input(x_task, trace, float(eq6[0]))


def _fig9_run(op: Fig9Input, run_dir: str) -> OpResult:
    result = runner.compare(
        op.trace,
        estimated=_PANEL.estimated,
        control_time=_PANEL.t_control,
        force_miss=True,
        bitstream_bytes=_DUAL_PRR_BYTES,
    )
    error = abs(result.speedup - op.eq6) / op.eq6
    # The repository's own Figure 9 test holds the DES to Eq. (6)
    # within 2/n; a larger gap means the simulator drifted.
    if error > 2.0 / FIG9_CALLS:
        raise CheckFailed(
            f"x_task={op.x_task!r}: speedup {result.speedup!r} is "
            f"{error:.3g} from Eq. (6) {op.eq6!r}"
        )
    canonical = _canonical(
        [result.speedup, result.frtr.total_time, result.prtr.total_time]
    )
    return OpResult(canonical, 2 * FIG9_CALLS, error)


# -- fault-grid: single fault-rate x hit-ratio cells, hybrid on -------------


def _fault_input(i: int, rng: random.Random) -> tuple[float, float, int]:
    # Stratified: op i takes rate i mod 8 and a hit ratio from its tenth
    # of [0, 1], so every seed runs the same mix of cheap analytic cells
    # and retry-heavy DES cells and the percentiles do not wander with it.
    rates = reliability.DEFAULT_FAULT_RATES
    rate = rates[i % len(rates)]
    hit_ratio = ((i // len(rates)) % 10 + rng.random()) / 10
    return rate, hit_ratio, rng.randrange(2**31)


def _fault_run(cell: tuple[float, float, int], run_dir: str) -> OpResult:
    rate, hit_ratio, seed = cell
    point = reliability.effective_speedup_under_faults(
        rate, hit_ratio, n_calls=FAULT_CALLS, seed=seed, hybrid="on"
    )
    return OpResult(_canonical(asdict(point)), 2 * FAULT_CALLS)


# -- serve-saturated: one open-arrival service realization ------------------

_TENANTS = default_tenants()
_SERVE_CONFIG = ServiceConfig(horizon=SERVE_HORIZON)


def _serve_input(i: int, rng: random.Random) -> int:
    return rng.randrange(2**31)


def _serve_run(seed: int, run_dir: str) -> OpResult:
    result = scheduler.run_service(_TENANTS, _SERVE_CONFIG, seed=seed)
    if result.interrupted:
        raise CheckFailed(f"service run interrupted: {result.interrupted}")
    invariants.audit_service(result).raise_if_strict()
    text = slo.report_json(slo.slo_report(result))
    return OpResult(text.encode(), result.total_completed)


# -- power-journal: journaled power sweep, then a resume that replays it ----


def _power_input(i: int, rng: random.Random) -> tuple[float, ...]:
    return tuple(rng.random() for _ in range(POWER_HIT_RATIOS))


def _power_run(hit_ratios: tuple[float, ...], run_dir: str) -> OpResult:
    def sweep(resume: bool) -> Any:
        return pareto.crash_safe_power_sweep(
            run_dir, POWER_PRRS, hit_ratios, n_calls=POWER_CALLS,
            resume=resume, strict=True, hybrid="on",
        )

    first = sweep(resume=False)
    again = sweep(resume=True)
    if again.computed_points or again.results != first.results:
        raise CheckFailed(
            f"resume recomputed {again.computed_points} point(s) or "
            "returned different results"
        )
    files = []
    for name in ("journal.jsonl", "invariants.json"):
        with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
            files.append(fh.read())
    canonical = _canonical([[asdict(p) for p in first.results], files])
    calls = len(first.results) * 2 * POWER_CALLS
    return OpResult(canonical, calls)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig9-des", _fig9_input, _fig9_run),
        Workload("fault-grid", _fault_input, _fault_run),
        Workload("serve-saturated", _serve_input, _serve_run),
        Workload("power-journal", _power_input, _power_run),
    )
}
