"""High-level run API: FRTR vs PRTR comparisons in one call.

:func:`compare` executes the same trace under both regimes on identically
parameterized (but independent) nodes and reports the measured speedup —
the simulated analogue of the paper's Figure 9 measurements.  Each run
is one :class:`CellSpec`, the configuration the DES (:func:`simulate`),
the hybrid replay and the exactness verdicts all read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..faults.injector import FaultConfig, FaultInjector
from ..faults.recovery import RecoveryPolicy
from ..hardware.node import XD1Node
from ..hardware.prr import Floorplan, dual_prr_floorplan
from ..obs import metrics as obsm
from ..runtime.invariants import audit_comparison
from ..sim.engine import Simulator
from ..workloads.task import CallTrace
from .events import RunResult
from .frtr import FrtrExecutor
from .prtr import PrtrExecutor

__all__ = ["CellSpec", "ComparisonResult", "REGIMES", "compare", "make_node",
           "simulate"]

#: the runs of a cell, in the order :func:`simulate` makes them
REGIMES: tuple[str, ...] = ("frtr", "prtr")


def make_node(
    floorplan: Floorplan | None = None, **node_kwargs: Any
) -> XD1Node:
    """A fresh node on a fresh simulator (runs must not share clocks)."""
    return XD1Node(
        Simulator(),
        floorplan=floorplan or dual_prr_floorplan(),
        **node_kwargs,
    )


@dataclass(frozen=True)
class CellSpec:
    """The configuration of one FRTR-vs-PRTR cell.

    Exactly the options some grid cell or :func:`compare` caller varies;
    everything else is the default node and executors.  A field that
    could break an exactness predicate must be read by
    :func:`repro.model.hybrid.verdicts`.
    """

    floorplan: Floorplan = field(default_factory=dual_prr_floorplan)
    #: fault rates armed on both nodes (each gets its own injector);
    #: ``None`` builds no injector
    faults: FaultConfig | None = None
    recovery: RecoveryPolicy | None = None
    #: wire-only configuration times (Table 2 "estimated")
    estimated: bool = False
    #: ``T_control`` per call; ``None`` keeps the node's default
    control_time: float | None = None
    #: reconfigure on every PRTR call (the paper's ``M = 1`` experiment)
    force_miss: bool = False
    #: partial bitstream size override; ``None`` keeps the PRR geometry's
    bitstream_bytes: int | None = None


def simulate(
    spec: CellSpec, trace: CallTrace, regimes: tuple[str, ...] = REGIMES
) -> tuple[RunResult, ...]:
    """Run ``trace`` under each of ``regimes`` (:data:`REGIMES`), in order.

    The only code that builds a cell's nodes: each regime asked for gets
    its own node, simulator and fault injector, so clocks, resource
    histories and random streams stay independent.
    """

    def node() -> XD1Node:
        injector = None if spec.faults is None else FaultInjector(spec.faults)
        return make_node(spec.floorplan, fault_injector=injector)

    options = dict(
        estimated=spec.estimated,
        control_time=spec.control_time,
        recovery=spec.recovery,
    )
    runs = {
        "frtr": lambda: FrtrExecutor(node(), **options).run(trace),
        "prtr": lambda: PrtrExecutor(
            node(),
            force_miss=spec.force_miss,
            bitstream_bytes=spec.bitstream_bytes,
            **options,
        ).run(trace),
    }
    return tuple(runs[regime]() for regime in regimes)


@dataclass(frozen=True)
class ComparisonResult:
    """Paired FRTR/PRTR measurement for one trace."""

    frtr: RunResult
    prtr: RunResult

    @property
    def speedup(self) -> float:
        """Measured ``S = T_total^FRTR / T_total^PRTR`` (Eq. 6's subject)."""
        if self.prtr.total_time <= 0:
            raise ZeroDivisionError("PRTR run has zero total time")
        return self.frtr.total_time / self.prtr.total_time

    def summary(self) -> dict[str, float]:
        return {
            "speedup": self.speedup,
            "frtr_total": self.frtr.total_time,
            "prtr_total": self.prtr.total_time,
            "hit_ratio": self.prtr.hit_ratio,
            "n_calls": float(self.prtr.n_calls),
        }


def compare(
    trace: CallTrace,
    *,
    floorplan: Floorplan | None = None,
    estimated: bool = False,
    control_time: float | None = None,
    force_miss: bool = False,
    bitstream_bytes: int | None = None,
) -> ComparisonResult:
    """Run ``trace`` under FRTR and PRTR and return both results.

    :func:`simulate` on the fault-free :class:`CellSpec` of these
    options (``floorplan`` defaults to dual-PRR), plus the paired audit.
    """
    frtr, prtr = simulate(
        CellSpec(
            floorplan=floorplan or dual_prr_floorplan(),
            estimated=estimated,
            control_time=control_time,
            force_miss=force_miss,
            bitstream_bytes=bitstream_bytes,
        ),
        trace,
    )
    # Paired audit: the measured speedup must respect the model's
    # (1+X_PRTR)/X_PRTR supremum and large-task 2x bounds.
    report = audit_comparison(frtr, prtr)
    prtr.notes["pair_invariant_violations"] = float(len(report.violations))
    report.raise_if_strict()
    result = ComparisonResult(frtr=frtr, prtr=prtr)
    if prtr.total_time > 0:
        obsm.gauge("repro_compare_speedup").set(result.speedup)
    return result
