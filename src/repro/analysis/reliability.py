"""Reliability analysis: effective speedup under injected faults.

The paper's speedup bounds (Eqs. 1-3) assume every configuration
succeeds.  The custom ICAP-controller path that makes PRTR fast is also
the path that bypasses the vendor API's end-to-end validation — so the
honest comparison charges PRTR for the recovery work its faults induce.
This module quantifies that trade:

* :func:`effective_speedup_under_faults` — one (fault rate, hit ratio)
  cell: the same workload under FRTR and PRTR with a shared fault
  process, returning achieved times, recovery counters and the
  *effective* speedup ``T_FRTR / T_PRTR``;
* :func:`sweep_fault_hit_grid` — the full fault-rate x hit-ratio grid
  behind the ``repro faults`` figure;
* :func:`find_crossover` — the fault rate where PRTR stops winning
  (effective speedup drops through 1.0) for a fixed hit ratio;
* :func:`mean_time_to_repair` / :func:`availability` — MTTR and the
  productive-time fraction of a run.

Fault-domain asymmetry is deliberate: the swept rate is the *ICAP chunk
abort* rate, which only the partial path pays (the vendor SelectMap path
is validated by DONE-pin polling, so its abort rate stays at the
``FaultConfig`` default of zero).  That is exactly why a crossover
exists: at high rates PRTR burns its advantage on retries and
fallback-full reconfigurations while FRTR is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..faults.injector import FaultConfig, FaultInjector
from ..faults.recovery import FallbackPolicy, RecoveryPolicy
from ..model.hybrid import (
    HybridMode,
    cell_modes,
    fault_point_verdicts,
    replay_fault_point,
    route,
)
from ..rtr.events import RunResult
from ..rtr.frtr import FrtrExecutor
from ..rtr.prtr import PrtrExecutor
from ..rtr.runner import make_node
from ..workloads.task import CallTrace, HardwareTask

__all__ = [
    "DEFAULT_FAULT_RATES",
    "DEFAULT_HIT_RATIOS",
    "FaultSweepPoint",
    "availability",
    "effective_speedup_under_faults",
    "find_crossover",
    "mean_time_to_repair",
    "sweep_fault_hit_grid",
    "trace_with_hit_ratio",
]


def mean_time_to_repair(result: RunResult) -> float:
    """Mean simulated seconds to recover one failed attempt (0 if none).

    Every retry/refetch is one repair; the numerator is the total time
    burned on failed attempts and backoff (``RunResult.recovery_time``).
    """
    repairs = result.n_retries + int(
        result.notes.get("startup_retries", 0.0)
    )
    if repairs <= 0:
        return 0.0
    return result.recovery_time / repairs


def availability(result: RunResult) -> float:
    """Fraction of the run spent on productive (non-recovery) work."""
    if result.total_time <= 0:
        return 1.0
    return 1.0 - result.recovery_time / result.total_time


def trace_with_hit_ratio(
    hit_ratio: float,
    n_calls: int,
    task_time: float,
    name: str | None = None,
) -> CallTrace:
    """A deterministic trace achieving ``~hit_ratio`` on a dual-PRR LRU.

    Hits are self-repeats (the previous module is always resident);
    misses rotate through a three-module pool, which with two PRR slots
    guarantees the chosen module was evicted.  A Bresenham-style
    accumulator spreads hits evenly, so the achieved ratio tracks the
    target to within ``1/n_calls``.
    """
    if not 0.0 <= hit_ratio <= 1.0:
        raise ValueError(f"hit_ratio must be in [0,1]: {hit_ratio}")
    if n_calls <= 0:
        raise ValueError("n_calls must be >= 1")
    pool = ["mod_a", "mod_b", "mod_c"]
    library = {m: HardwareTask(m, task_time) for m in pool}
    names = [pool[0]]
    pool_pos = 0
    acc = 0.0
    for _ in range(n_calls - 1):
        acc += hit_ratio
        if acc >= 1.0:
            acc -= 1.0
            names.append(names[-1])  # guaranteed hit
        else:
            pool_pos = (pool_pos + 1) % len(pool)
            if pool[pool_pos] == names[-1]:
                pool_pos = (pool_pos + 1) % len(pool)
            names.append(pool[pool_pos])  # guaranteed miss
    label = name or f"h{hit_ratio:g}_{n_calls}"
    return CallTrace((library[n] for n in names), name=label)


@dataclass(frozen=True)
class FaultSweepPoint:
    """One cell of the fault-rate x hit-ratio grid."""

    fault_rate: float
    target_hit_ratio: float
    #: hit ratio the PRTR run actually achieved
    hit_ratio: float
    frtr_time: float
    prtr_time: float
    #: effective speedup ``T_FRTR / T_PRTR`` under the shared fault process
    speedup: float
    prtr_retries: int
    prtr_fallbacks: int
    prtr_degraded: bool
    mttr: float
    availability: float
    #: platform ratios for the invariant auditor's bound checks
    #: (``X_PRTR = T_PRTR/T_FRTR``, ``X_task = T_task/T_FRTR``); NaN on
    #: hand-built points that never ran a simulation
    x_prtr: float = float("nan")
    x_task: float = float("nan")

    def as_row(self) -> dict[str, object]:
        return {
            "rate": self.fault_rate,
            "H_target": self.target_hit_ratio,
            "H": self.hit_ratio,
            "T_frtr_s": self.frtr_time,
            "T_prtr_s": self.prtr_time,
            "speedup": self.speedup,
            "retries": self.prtr_retries,
            "fallbacks": self.prtr_fallbacks,
            "MTTR_ms": self.mttr * 1e3,
            "avail": self.availability,
        }


def effective_speedup_under_faults(
    fault_rate: float,
    hit_ratio: float = 0.0,
    *,
    n_calls: int = 30,
    task_time: float = 0.1,
    seed: int = 0,
    recovery: RecoveryPolicy | None = None,
    hybrid: str = HybridMode.OFF,
) -> FaultSweepPoint:
    """Measure one grid cell: same trace, FRTR vs PRTR, shared fault law.

    The swept ``fault_rate`` is the per-chunk ICAP abort probability.
    ``recovery`` defaults to :class:`~repro.faults.recovery
    .FallbackPolicy` with a 50 ms initial backoff (three partial
    attempts, then a full reconfiguration) — the graceful-degradation
    setting the crossover analysis assumes.  The non-trivial backoff
    matters: failed partial attempts hide behind the overlapped task
    until their cost exceeds the task time, and only then does the
    pipeline stage stretch and the effective speedup drop *below* 1.

    ``hybrid`` routes the cell through :func:`repro.model.hybrid.route`;
    only the ``fault_rate == 0`` cells pass the exactness predicates.
    """
    if recovery is None:
        recovery = FallbackPolicy(max_attempts=3, backoff=0.05, cap=0.2)
    options = dict(
        n_calls=n_calls, task_time=task_time, seed=seed, recovery=recovery
    )
    return route(
        hybrid,
        fault_point_verdicts(fault_rate, seed),
        lambda: replay_fault_point(fault_rate, hit_ratio, **options),
        lambda: _simulated_fault_point(fault_rate, hit_ratio, **options),
        f"faults:rate={fault_rate!r},H={hit_ratio!r}",
    )


def _simulated_fault_point(
    fault_rate: float,
    hit_ratio: float,
    *,
    n_calls: int,
    task_time: float,
    seed: int,
    recovery: RecoveryPolicy | None,
) -> FaultSweepPoint:
    """The pure-DES cell measurement (the ``hybrid=off`` path)."""
    trace = trace_with_hit_ratio(hit_ratio, n_calls, task_time)
    config = FaultConfig(chunk_abort_rate=fault_rate, seed=seed)

    frtr_node = make_node(fault_injector=FaultInjector(config))
    frtr = FrtrExecutor(frtr_node, recovery=recovery).run(trace)

    prtr_node = make_node(fault_injector=FaultInjector(config))
    prtr = PrtrExecutor(prtr_node, recovery=recovery).run(trace)

    speedup = (
        frtr.total_time / prtr.total_time if prtr.total_time > 0 else 0.0
    )
    t_full = prtr.notes["t_config_full"]
    t_part = prtr.notes.get("t_config_partial", float("nan"))
    return FaultSweepPoint(
        fault_rate=fault_rate,
        target_hit_ratio=hit_ratio,
        hit_ratio=prtr.hit_ratio,
        frtr_time=frtr.total_time,
        prtr_time=prtr.total_time,
        speedup=speedup,
        prtr_retries=prtr.n_retries,
        prtr_fallbacks=prtr.n_fallbacks,
        prtr_degraded=prtr.degraded,
        mttr=mean_time_to_repair(prtr),
        availability=availability(prtr),
        x_prtr=t_part / t_full,
        x_task=task_time / t_full,
    )


#: default swept chunk-abort rates: 25-chunk partial writes put the
#: attempt failure probability at ~2% (rate 1e-3) up to ~99.7% (rate 0.2)
DEFAULT_FAULT_RATES = (0.0, 1e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.2)
DEFAULT_HIT_RATIOS = (0.0, 0.5, 0.9)


def sweep_fault_hit_grid(
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    hit_ratios: Sequence[float] = DEFAULT_HIT_RATIOS,
    *,
    n_calls: int = 30,
    task_time: float = 0.1,
    seed: int = 0,
    recovery: RecoveryPolicy | None = None,
    workers: int = 1,
    hybrid: str = HybridMode.OFF,
) -> list[FaultSweepPoint]:
    """The full grid, row-major over hit ratios then fault rates.

    Every point is independently seeded, so ``workers > 1`` evaluates
    the grid across fork workers with bit-identical results
    (:func:`repro.runtime.parallel.parallel_map`).  ``hybrid`` selects
    the analytic fast path per cell (see
    :func:`effective_speedup_under_faults`); the returned points are
    byte-identical across every mode and worker count.
    """
    from ..runtime.parallel import parallel_map

    grid = [(h, rate) for h in hit_ratios for rate in fault_rates]
    modes = cell_modes(
        grid, hybrid, seed, lambda cell: fault_point_verdicts(cell[1], seed)
    )
    return parallel_map(
        lambda item: effective_speedup_under_faults(
            item[0][1],
            item[0][0],
            n_calls=n_calls,
            task_time=task_time,
            seed=seed,
            recovery=recovery,
            hybrid=item[1],
        ),
        list(zip(grid, modes)),
        workers=workers,
    )


def find_crossover(
    points: Sequence[FaultSweepPoint],
    hit_ratio: float | None = None,
) -> float | None:
    """Lowest swept fault rate where PRTR stops winning (speedup <= 1).

    ``hit_ratio`` filters the grid to one row (``None`` uses every
    point).  Returns ``None`` when PRTR wins across the whole sweep.
    """
    rows = [
        p
        for p in points
        if hit_ratio is None or p.target_hit_ratio == hit_ratio
    ]
    crossed = [p.fault_rate for p in rows if p.speedup <= 1.0]
    return min(crossed) if crossed else None
