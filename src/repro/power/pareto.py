"""The time-vs-energy Pareto sweep behind ``repro power``.

Each grid cell fixes a floorplan (``n_prrs`` uniform PRRs) and a target
hit ratio, runs the same trace under FRTR and PRTR, and records both
makespans and both energy ledgers.  More PRRs buy residency (fewer
partial reconfigurations, shorter makespan) at the price of static draw
— exactly the time/energy trade the Nornir contracts
(:mod:`repro.power.contracts`) arbitrate.

The sweep composes with the whole existing machinery:

* ``--workers N`` shards the grid across fork workers with bit-identical
  results (:func:`repro.runtime.crashsafe.run_checkpointed`);
* ``--resume`` replays journaled points after a kill, merging to the
  same bytes as an uninterrupted walk;
* ``--hybrid on|verify`` answers multi-PRR cells by exact closed-form
  replay (:func:`repro.model.hybrid.replay_prtr` plus
  :func:`repro.model.hybrid.replay_energy_components`) under the same
  exactness predicates the fault sweep uses; single-PRR cells fail
  ``overlap-applicable`` and always run the DES.

The frontier comes from :func:`pareto_front`, a generic non-dominated
filter over any objective vector (:func:`dominates`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence, TypeVar

from ..analysis.reliability import trace_with_hit_ratio
from ..hardware.prr import uniform_prr_floorplan
from ..model.hybrid import (
    HybridMode,
    cell_modes,
    power_point_verdicts,
    replay_energy_components,
    replay_frtr,
    replay_prtr,
    route,
)
from .ledger import EnergyLedger
from .model import DEFAULT_POWER_MODEL, PowerModel

__all__ = [
    "DEFAULT_PRR_COUNTS",
    "DEFAULT_POWER_HIT_RATIOS",
    "PowerSweepPoint",
    "crash_safe_power_sweep",
    "dominates",
    "measure_power_point",
    "pareto_front",
    "power_pareto_front",
]

T = TypeVar("T")

#: default swept floorplan sizes (1 PRR = the serial-fallback floor,
#: 4 PRRs = the largest uniform carve the XC2VP50 column budget admits)
DEFAULT_PRR_COUNTS: tuple[int, ...] = (1, 2, 3, 4)
#: default swept target hit ratios (the reliability-sweep span)
DEFAULT_POWER_HIT_RATIOS: tuple[float, ...] = (0.0, 0.5, 0.9)


@dataclass(frozen=True)
class PowerSweepPoint:
    """One cell of the PRR-count x hit-ratio power grid."""

    n_prrs: int
    target_hit_ratio: float
    #: hit ratio the PRTR run actually achieved (extra PRR slots turn
    #: intended misses into hits, so this can exceed the target)
    hit_ratio: float
    frtr_time: float
    prtr_time: float
    #: ``T_FRTR / T_PRTR`` on the shared trace
    speedup: float
    frtr_energy_j: float
    prtr_energy_j: float
    prtr_static_j: float
    prtr_task_j: float
    prtr_config_full_j: float
    prtr_config_partial_j: float
    prtr_mean_w: float
    #: partial reconfigurations the PRTR run paid for
    n_configs: int

    def as_row(self) -> dict[str, object]:
        """Flat row for the CLI table / CSV export."""
        return {
            "prrs": self.n_prrs,
            "H_target": self.target_hit_ratio,
            "H": self.hit_ratio,
            "T_frtr_s": self.frtr_time,
            "T_prtr_s": self.prtr_time,
            "speedup": self.speedup,
            "E_frtr_j": self.frtr_energy_j,
            "E_prtr_j": self.prtr_energy_j,
            "P_mean_w": self.prtr_mean_w,
            "configs": self.n_configs,
        }


def measure_power_point(
    n_prrs: int,
    hit_ratio: float,
    *,
    n_calls: int = 30,
    task_time: float = 0.1,
    seed: int = 0,
    model: PowerModel = DEFAULT_POWER_MODEL,
    hybrid: str = HybridMode.OFF,
) -> PowerSweepPoint:
    """Measure one grid cell: same trace, FRTR vs PRTR, shared model.

    ``hybrid`` routes the cell through :func:`repro.model.hybrid.route`;
    every multi-PRR cell passes the exactness predicates, and ``verify``
    compares times *and* joules.  ``seed`` only feeds the verify-mode
    shadow sampling; the cells themselves are deterministic.
    """
    options = dict(n_calls=n_calls, task_time=task_time, model=model)
    return route(
        hybrid,
        power_point_verdicts(n_prrs),
        lambda: _replayed_power_point(n_prrs, hit_ratio, **options),
        lambda: _simulated_power_point(n_prrs, hit_ratio, **options),
        f"power:prrs={n_prrs!r},H={hit_ratio!r}",
    )


def _simulated_power_point(
    n_prrs: int,
    hit_ratio: float,
    *,
    n_calls: int,
    task_time: float,
    model: PowerModel,
) -> PowerSweepPoint:
    """The pure-DES cell measurement (the ``hybrid=off`` path)."""
    from ..rtr.frtr import FrtrExecutor
    from ..rtr.prtr import PrtrExecutor
    from ..rtr.runner import make_node
    from . import powered

    trace = trace_with_hit_ratio(hit_ratio, n_calls, task_time)
    plan = uniform_prr_floorplan(n_prrs, 12)
    with powered(model):
        frtr = FrtrExecutor(make_node(plan)).run(trace)
        prtr = PrtrExecutor(make_node(plan)).run(trace)
    misses = sum(1 for rec in prtr.records if not rec.hit)
    return _build_point(
        n_prrs,
        hit_ratio,
        n_calls=n_calls,
        n_partial=misses,
        frtr_time=frtr.total_time,
        prtr_time=prtr.total_time,
        frtr_ledger=EnergyLedger.from_notes(frtr.notes, frtr.total_time),
        prtr_ledger=EnergyLedger.from_notes(prtr.notes, prtr.total_time),
    )


def _replayed_power_point(
    n_prrs: int,
    hit_ratio: float,
    *,
    n_calls: int,
    task_time: float,
    model: PowerModel,
) -> PowerSweepPoint:
    """One cell by exact closed-form replay (multi-PRR cells only).

    Folds the same float additions the DES-side ledger performs
    (:func:`repro.model.hybrid.replay_energy_components`), so the
    returned point — joules included — is bit-identical to the
    simulated one wherever the exactness predicates hold.
    """
    from ..rtr.frtr import FrtrExecutor
    from ..rtr.prtr import PrtrExecutor
    from ..rtr.runner import make_node

    trace = trace_with_hit_ratio(hit_ratio, n_calls, task_time)
    plan = uniform_prr_floorplan(n_prrs, 12)
    frtr_executor = FrtrExecutor(make_node(plan))
    frtr_time = replay_frtr(frtr_executor, trace)
    prtr_executor = PrtrExecutor(make_node(plan))
    prtr_time, n_partial = replay_prtr(prtr_executor, trace)

    t_full = prtr_executor.node.full_config_time(
        estimated=prtr_executor.estimated
    )
    t_part = prtr_executor.partial_config_time(trace[0].name)
    task_s, full_s, _ = replay_energy_components(
        trace,
        t_config_full=t_full,
        t_config_partial=t_part,
        n_full=len(trace),
        n_partial=0,
    )
    frtr_ledger = EnergyLedger.from_components(
        makespan=frtr_time, n_prrs=n_prrs, model=model,
        task_s=task_s, config_full_s=full_s, config_partial_s=0.0,
    )
    task_s, full_s, part_s = replay_energy_components(
        trace,
        t_config_full=t_full,
        t_config_partial=t_part,
        n_full=1,
        n_partial=n_partial,
    )
    prtr_ledger = EnergyLedger.from_components(
        makespan=prtr_time, n_prrs=n_prrs, model=model,
        task_s=task_s, config_full_s=full_s, config_partial_s=part_s,
    )
    return _build_point(
        n_prrs,
        hit_ratio,
        n_calls=n_calls,
        n_partial=n_partial,
        frtr_time=frtr_time,
        prtr_time=prtr_time,
        frtr_ledger=frtr_ledger,
        prtr_ledger=prtr_ledger,
    )


def _build_point(
    n_prrs: int,
    hit_ratio: float,
    *,
    n_calls: int,
    n_partial: int,
    frtr_time: float,
    prtr_time: float,
    frtr_ledger: EnergyLedger,
    prtr_ledger: EnergyLedger,
) -> PowerSweepPoint:
    """Assemble a point from values both measurement paths share."""
    return PowerSweepPoint(
        n_prrs=n_prrs,
        target_hit_ratio=hit_ratio,
        hit_ratio=1.0 - n_partial / n_calls,
        frtr_time=frtr_time,
        prtr_time=prtr_time,
        speedup=frtr_time / prtr_time if prtr_time > 0 else 0.0,
        frtr_energy_j=frtr_ledger.total_j,
        prtr_energy_j=prtr_ledger.total_j,
        prtr_static_j=prtr_ledger.static_j,
        prtr_task_j=prtr_ledger.task_j,
        prtr_config_full_j=prtr_ledger.config_full_j,
        prtr_config_partial_j=prtr_ledger.config_partial_j,
        prtr_mean_w=prtr_ledger.mean_w,
        n_configs=n_partial,
    )


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff objective vector ``a`` dominates ``b`` (minimization).

    ``a`` dominates ``b`` when it is no worse in every objective and
    strictly better in at least one.  Vectors must be equal length.
    Only strict orderings (``<`` / ``<=``) are used, so ties survive as
    co-frontier points instead of being collapsed arbitrarily.
    """
    if len(a) != len(b):
        raise ValueError(
            f"objective vectors differ in length: {len(a)} vs {len(b)}"
        )
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def pareto_front(
    points: Sequence[T],
    objectives: Callable[[T], Sequence[float]],
) -> list[T]:
    """The non-dominated subset of ``points`` (minimizing objectives).

    Preserves input order, so the frontier of a deterministic sweep is
    itself deterministic.  Duplicate objective vectors all survive —
    dominance requires strict improvement in at least one coordinate.
    """
    vectors = [tuple(objectives(p)) for p in points]
    front: list[T] = []
    for i, point in enumerate(points):
        if any(
            dominates(vectors[j], vectors[i])
            for j in range(len(points))
            if j != i
        ):
            continue
        front.append(point)
    return front


def power_pareto_front(
    points: Sequence[PowerSweepPoint],
) -> list[PowerSweepPoint]:
    """The time-vs-energy non-dominated subset (PRTR objectives)."""
    return pareto_front(
        points, lambda p: (p.prtr_time, p.prtr_energy_j)
    )


def crash_safe_power_sweep(
    run_dir: str,
    prr_counts: Sequence[int] = DEFAULT_PRR_COUNTS,
    hit_ratios: Sequence[float] = DEFAULT_POWER_HIT_RATIOS,
    *,
    n_calls: int = 30,
    task_time: float = 0.1,
    seed: int = 0,
    model: PowerModel = DEFAULT_POWER_MODEL,
    resume: bool = False,
    deadline_s: float | None = None,
    strict: bool | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
    hybrid: str = HybridMode.OFF,
):
    """The power grid with checkpoint/resume and energy auditing.

    Same contract as :func:`repro.runtime.crashsafe
    .crash_safe_fault_sweep`: row-major grid order (PRR counts outer,
    hit ratios inner), every point independently derived, so a killed
    run resumed under any worker count — or the other hybrid mode —
    merges to a bit-identical point list.  ``hybrid`` is deliberately
    left out of the resume meta for exactly that reason.  The completed
    sweep is audited point by point (``energy-conservation``) and the
    report written to ``<run_dir>/invariants.json``.
    """
    from ..runtime.crashsafe import run_journaled
    from ..runtime.invariants import audit_power_points

    meta = {
        "kind": "power_sweep",
        "prr_counts": [int(p) for p in prr_counts],
        "hit_ratios": [float(h) for h in hit_ratios],
        "n_calls": int(n_calls),
        "task_time": float(task_time),
        "seed": int(seed),
        "model": model.as_dict(),
    }
    grid = [(p, h) for p in prr_counts for h in hit_ratios]
    modes = dict(zip(grid, cell_modes(
        grid, hybrid, seed, lambda cell: power_point_verdicts(cell[0])
    )))
    return run_journaled(
        run_dir,
        grid,
        lambda cell: measure_power_point(
            cell[0], cell[1],
            n_calls=n_calls, task_time=task_time, seed=seed,
            model=model, hybrid=modes[cell],
        ),
        key_of=lambda cell: f"prrs={cell[0]!r},H={cell[1]!r}",
        encode=asdict,
        decode=lambda payload: PowerSweepPoint(**payload),
        meta=meta,
        audit=audit_power_points,
        resume=resume,
        deadline_s=deadline_s,
        strict=strict,
        progress=progress,
        workers=workers,
    )
