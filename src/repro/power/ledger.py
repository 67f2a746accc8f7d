"""Energy ledgers: deterministic joule accounting for a run.

An :class:`EnergyLedger` integrates a :class:`~repro.power.model
.PowerModel` over one run's simulated time and itemizes the result:

    total = static_w x makespan            (always-on fabric draw)
          + dynamic_task_w x SUM T_task    (task activity)
          + selectmap_burst_w x t_full     (full-bitstream streaming)
          + icap_burst_w x t_partial       (partial-bitstream streaming)

The ``energy-conservation`` invariant
(:func:`repro.runtime.invariants.audit_energy`) re-derives the total
from the components with exact ``==``, so every term here is computed
once, in one fixed fold order, and reused everywhere.

Bitwise reproducibility is the design constraint.  Clean (fault-free)
records are charged at the *canonical* per-configuration times the
executors publish in ``RunResult.notes`` (``t_config_full`` /
``t_config_partial``) rather than at the measured timeline spans —
a span duration is ``(t0 + x) - t0``, which IEEE-754 does not promise
equals ``x``, while the canonical times are the exact values the
closed-form replay (:func:`repro.model.hybrid.replay_energy_components`)
folds over.  Fault-affected records fall back to the measured,
recovery-inclusive times: retries and fallbacks must *burn* energy,
and the hybrid replay never applies to them anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from ..sim.trace import Phase, Timeline
from .model import PowerModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (rtr -> power)
    from ..rtr.events import RunResult
    from ..workloads.task import CallTrace

__all__ = ["EnergyLedger"]


@dataclass(frozen=True)
class EnergyLedger:
    """Itemized energy account (joules) for one run.

    Attributes
    ----------
    makespan:
        Simulated seconds the run covered (``RunResult.total_time``).
    static_w:
        Always-on draw the floorplan idles at
        (:meth:`~repro.power.model.PowerModel.static_power_w`).
    static_j, task_j, config_full_j, config_partial_j:
        The component integrals: static draw x makespan, task draw x
        busy task seconds, and burst draw x streaming seconds per port
        class.
    total_j:
        The conserved sum ``((static + task) + full) + partial`` —
        one fixed fold order, asserted exactly by the
        ``energy-conservation`` invariant.
    mean_w:
        Average draw ``total_j / makespan`` (0 for empty runs).
    """

    makespan: float
    static_w: float
    static_j: float
    task_j: float
    config_full_j: float
    config_partial_j: float
    total_j: float
    mean_w: float

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(
                    f"{f.name} must be >= 0: {getattr(self, f.name)}"
                )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_components(
        cls,
        *,
        makespan: float,
        n_prrs: int,
        model: PowerModel,
        task_s: float,
        config_full_s: float,
        config_partial_s: float,
    ) -> "EnergyLedger":
        """Integrate the model over pre-folded busy-second buckets.

        This is the single place joules are derived from seconds; both
        the DES-side :meth:`from_run` and the closed-form replay path
        funnel through it so their ledgers agree bit-for-bit whenever
        their second-buckets do.
        """
        static_w = model.static_power_w(n_prrs)
        static_j = static_w * makespan
        task_j = model.dynamic_task_w * task_s
        full_j = model.port_burst_w("selectmap") * config_full_s
        part_j = model.port_burst_w("icap") * config_partial_s
        total_j = ((static_j + task_j) + full_j) + part_j
        mean_w = total_j / makespan if makespan > 0 else 0.0
        return cls(
            makespan=makespan,
            static_w=static_w,
            static_j=static_j,
            task_j=task_j,
            config_full_j=full_j,
            config_partial_j=part_j,
            total_j=total_j,
            mean_w=mean_w,
        )

    @classmethod
    def from_run(
        cls,
        result: "RunResult",
        trace: "CallTrace",
        *,
        model: PowerModel,
        n_prrs: int,
    ) -> "EnergyLedger":
        """Account one executor run record by record.

        Charging rules (the exact fold the replay mirrors):

        * task seconds: every non-failed record burns its call's
          ``T_task`` (a failed call never computed);
        * clean FRTR records burn the canonical ``t_config_full``;
          clean PRTR records burn ``t_config_partial`` iff a partial
          configuration ran during their stage (``config_time > 0`` —
          the pre-fetch for the *next* call), and the PRTR startup full
          load burns the ``startup_config`` note;
        * fault-affected records (retries, fallback-full, degradation)
          burn their *measured* times, which include the failed
          attempts and backoff — recovery consumes energy, never
          creates it.  Failed records charge their ``recovery_time``
          (a degraded startup's record carries none: the
          ``startup_config`` note holds it).
        """
        notes = result.notes
        task_s = 0.0
        full_s = 0.0
        part_s = 0.0
        if result.mode == "prtr":
            # Startup full configuration (covers call 0's residency);
            # the measured note includes any startup recovery time.
            full_s = full_s + notes.get("startup_config", 0.0)
        for rec in result.records:
            if not rec.failed:
                task_s = task_s + trace.calls[rec.index].task.time
            affected = (
                rec.retries > 0
                or rec.fallback_full
                or rec.failed
                or rec.recovery_time > 0.0
            )
            if result.mode == "frtr":
                if affected:
                    full_s = full_s + (
                        rec.config_time
                        if rec.config_time > 0.0
                        else rec.recovery_time
                    )
                else:
                    full_s = full_s + notes["t_config_full"]
            else:
                if affected:
                    if rec.failed:
                        part_s = part_s + rec.recovery_time
                    elif rec.fallback_full:
                        full_s = full_s + rec.config_time
                    else:
                        part_s = part_s + rec.config_time
                elif rec.config_time > 0.0:
                    part_s = part_s + notes["t_config_partial"]
        return cls.from_components(
            makespan=result.total_time,
            n_prrs=n_prrs,
            model=model,
            task_s=task_s,
            config_full_s=full_s,
            config_partial_s=part_s,
        )

    @classmethod
    def from_timeline(
        cls,
        timeline: Timeline,
        *,
        makespan: float,
        model: PowerModel,
        n_prrs: int,
    ) -> "EnergyLedger":
        """Account a raw timeline (service / chaos runs).

        Service-mode runs interleave many tenants, so there is no
        per-record canonical time to charge; spans are integrated as
        measured.  ``config`` spans whose note mentions ``full`` burn
        the SelectMap burst, every other configuration burns the ICAP
        burst; ``task``/``compute`` spans burn the dynamic task draw.
        """
        task_s = 0.0
        full_s = 0.0
        part_s = 0.0
        for span in timeline:
            if span.phase in (Phase.TASK, Phase.COMPUTE):
                task_s = task_s + span.duration
            elif span.phase == Phase.CONFIG:
                if "full" in span.note:
                    full_s = full_s + span.duration
                else:
                    part_s = part_s + span.duration
        return cls.from_components(
            makespan=makespan,
            n_prrs=n_prrs,
            model=model,
            task_s=task_s,
            config_full_s=full_s,
            config_partial_s=part_s,
        )

    # -- export ------------------------------------------------------------

    def as_notes(self) -> dict[str, float]:
        """The ledger as ``RunResult.notes`` entries (all floats)."""
        return {
            "energy_total_j": self.total_j,
            "energy_static_j": self.static_j,
            "energy_task_j": self.task_j,
            "energy_config_full_j": self.config_full_j,
            "energy_config_partial_j": self.config_partial_j,
            "energy_static_w": self.static_w,
            "energy_mean_w": self.mean_w,
        }

    @classmethod
    def from_notes(cls, notes: dict[str, float], makespan: float) -> "EnergyLedger":
        """Rebuild a ledger from stamped notes (auditor convenience)."""
        return cls(
            makespan=makespan,
            static_w=notes["energy_static_w"],
            static_j=notes["energy_static_j"],
            task_j=notes["energy_task_j"],
            config_full_j=notes["energy_config_full_j"],
            config_partial_j=notes["energy_config_partial_j"],
            total_j=notes["energy_total_j"],
            mean_w=notes["energy_mean_w"],
        )
