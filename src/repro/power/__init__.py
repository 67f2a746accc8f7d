"""Power modeling: energy ledgers, Pareto sweeps, power contracts.

The package answers what the paper's speedup bounds leave open — what
PRTR *costs* in energy (arXiv 1701.08849 shows reconfiguration bursts
are first-order).  Layers:

* :mod:`repro.power.model` — :class:`PowerModel`, the frozen calibrated
  constants (static per-PRR draw, dynamic-while-busy, per-port
  reconfiguration bursts);
* :mod:`repro.power.ledger` — :class:`EnergyLedger`, the deterministic
  joule account every executor run can carry in its notes;
* :mod:`repro.power.pareto` — the time-vs-energy Pareto frontier sweep
  behind the ``repro power`` CLI verb;
* :mod:`repro.power.contracts` — Nornir-shaped contracts (minimize
  energy under a deadline, maximize throughput under a power cap).

Power accounting follows the observability opt-in pattern
(:mod:`repro.obs.metrics`): it is **off by default**, and while off the
executors never touch a run's notes, so power-disabled runs stay
bit-identical to an unpowered build.  Enable per block::

    from repro import power
    with power.powered():
        result = PrtrExecutor(node).run(trace)
    result.notes["energy_total_j"]
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from .ledger import EnergyLedger
from .model import DEFAULT_POWER_MODEL, PowerModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (rtr -> power)
    from ..rtr.events import RunResult
    from ..workloads.task import CallTrace

__all__ = [
    "DEFAULT_POWER_MODEL",
    "EnergyLedger",
    "PowerModel",
    "annotate_energy",
    "current_model",
    "powered",
    "set_enabled",
]

# -- module-level opt-in state ----------------------------------------------

_enabled = False
_model: PowerModel = DEFAULT_POWER_MODEL


def current_model() -> PowerModel:
    """The model in effect (meaningful only while enabled)."""
    return _model


def set_enabled(
    flag: bool, model: PowerModel | None = None
) -> tuple[bool, PowerModel]:
    """Turn power accounting on/off; returns the previous state.

    ``model`` (default :data:`DEFAULT_POWER_MODEL`) selects the
    constants subsequent annotations integrate.
    """
    global _enabled, _model
    previous = (_enabled, _model)
    _enabled = bool(flag)
    _model = model if model is not None else DEFAULT_POWER_MODEL
    return previous


@contextmanager
def powered(model: PowerModel | None = None) -> Iterator[PowerModel]:
    """Enable power accounting for a ``with`` block."""
    previous = set_enabled(True, model)
    try:
        yield _model
    finally:
        set_enabled(*previous)


# annotate_energy() is a step inside the executors, not an entry point:
# both callers audit the annotated result right after it returns, so
# the audit-coverage rule would double-count it here.
def annotate_energy(  # reprolint: disable=RL007
    result: "RunResult", trace: "CallTrace", node: Any
) -> "RunResult":
    """Stamp a run's energy ledger into its notes (no-op while off).

    Called by the executors between finalization and the invariant
    audit, so a powered run reaches
    :func:`repro.runtime.invariants.audit_and_record` with its
    ``energy_*`` notes present and the ``energy-conservation`` check
    armed.  While power accounting is disabled the result is returned
    untouched — the bit-identity guarantee for unpowered runs.
    """
    if not _enabled:
        return result
    from ..obs import metrics as obsm

    n_prrs = node.floorplan.n_prrs
    ledger = EnergyLedger.from_run(
        result, trace, model=_model, n_prrs=n_prrs
    )
    result.notes.update(ledger.as_notes())
    obsm.gauge("repro_energy_total_joules").set(
        ledger.total_j, mode=result.mode
    )
    obsm.gauge("repro_energy_static_joules").set(
        ledger.static_j, mode=result.mode
    )
    obsm.gauge("repro_energy_task_joules").set(
        ledger.task_j, mode=result.mode
    )
    obsm.gauge("repro_energy_config_joules").set(
        ledger.config_full_j, mode=result.mode, kind="full"
    )
    obsm.gauge("repro_energy_config_joules").set(
        ledger.config_partial_j, mode=result.mode, kind="partial"
    )
    obsm.gauge("repro_energy_mean_watts").set(
        ledger.mean_w, mode=result.mode
    )
    return result
