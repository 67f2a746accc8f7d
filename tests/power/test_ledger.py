"""Energy ledger tests: conservation, replay identity, disabled purity."""

from __future__ import annotations

import pytest

from repro.analysis.reliability import trace_with_hit_ratio
from repro.model.hybrid import replay_cell, replay_energy_components
from repro.obs import metrics as obsm
from repro.power import powered, set_enabled
from repro.power.ledger import EnergyLedger
from repro.power.model import DEFAULT_POWER_MODEL, PowerModel
from repro.rtr.frtr import FrtrExecutor
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import CellSpec, make_node
from repro.runtime.invariants import audit_energy
from repro.sim.engine import Simulator


def _run(executor_cls, trace, *, power=True, **kw):
    node = make_node()
    ex = executor_cls(node, **kw)
    if power:
        with powered():
            return ex.run(trace)
    return ex.run(trace)


TRACE = trace_with_hit_ratio(0.5, 20, 0.1)


class TestConservation:
    """The ledger balances bitwise — the energy-conservation invariant."""

    @pytest.fixture(scope="class", params=["frtr", "prtr"])
    def result(self, request):
        cls = FrtrExecutor if request.param == "frtr" else PrtrExecutor
        return _run(cls, TRACE)

    def test_notes_carry_the_full_ledger(self, result):
        for key in (
            "energy_total_j", "energy_static_j", "energy_task_j",
            "energy_config_full_j", "energy_config_partial_j",
            "energy_static_w", "energy_mean_w",
        ):
            assert key in result.notes

    def test_ledger_balances_exactly(self, result):
        n = result.notes
        assert n["energy_total_j"] == (
            (n["energy_static_j"] + n["energy_task_j"])
            + n["energy_config_full_j"]
        ) + n["energy_config_partial_j"]
        assert n["energy_static_j"] == (
            n["energy_static_w"] * result.total_time
        )
        assert n["energy_mean_w"] == (
            n["energy_total_j"] / result.total_time
        )

    def test_audit_energy_passes_live(self, result):
        assert audit_energy(result).ok

    def test_audit_energy_catches_tampering(self, result):
        # Tamper each component in turn; the audit must notice every one.
        for key in ("energy_total_j", "energy_static_j", "energy_mean_w"):
            original = result.notes[key]
            result.notes[key] = original + 1.0
            try:
                report = audit_energy(result)
                assert not report.ok, f"tampered {key} went unnoticed"
                assert any(
                    "energy-conservation" in v.invariant
                    for v in report.violations
                )
            finally:
                result.notes[key] = original

    def test_audit_is_vacuous_without_a_ledger(self):
        unpowered = _run(PrtrExecutor, TRACE, power=False)
        assert "energy_total_j" not in unpowered.notes
        assert audit_energy(unpowered).ok

    def test_negative_components_rejected_at_construction(self):
        with pytest.raises(ValueError):
            EnergyLedger(
                makespan=1.0, static_w=1.0, static_j=-1.0, task_j=0.0,
                config_full_j=0.0, config_partial_j=0.0, total_j=0.0,
                mean_w=0.0,
            )

    def test_notes_round_trip(self, result):
        ledger = EnergyLedger.from_notes(result.notes, result.total_time)
        assert ledger.as_notes() == {
            k: v for k, v in result.notes.items()
            if k.startswith("energy_")
        }


class TestReplayIdentity:
    """DES ledger == closed-form fold, joule for joule, bitwise."""

    def test_prtr_ledger_matches_replay_components(self):
        result = _run(PrtrExecutor, TRACE)
        node = make_node()
        _, total_time, n_configs = replay_cell(CellSpec(), TRACE)
        assert total_time == result.total_time
        task_s, full_s, part_s = replay_energy_components(
            TRACE,
            t_config_full=result.notes["t_config_full"],
            t_config_partial=result.notes["t_config_partial"],
            n_full=1,
            n_partial=n_configs,
        )
        ledger = EnergyLedger.from_components(
            makespan=total_time,
            n_prrs=node.floorplan.n_prrs,
            model=DEFAULT_POWER_MODEL,
            task_s=task_s,
            config_full_s=full_s,
            config_partial_s=part_s,
        )
        assert ledger.as_notes() == {
            k: v for k, v in result.notes.items()
            if k.startswith("energy_")
        }

    def test_custom_model_scales_the_ledger(self):
        hot = PowerModel(
            static_base_w=2.5, static_prr_w=0.3, dynamic_task_w=1.8,
            selectmap_burst_w=0.9, jtag_burst_w=0.4, icap_burst_w=0.7,
        )
        node = make_node()
        with powered(hot):
            result = PrtrExecutor(node).run(TRACE)
        assert result.notes["energy_static_w"] == hot.static_power_w(
            node.floorplan.n_prrs
        )
        assert audit_energy(result).ok


class TestDisabledPurity:
    """Power off (the default) leaves runs bit-identical to pre-power."""

    def test_disabled_run_has_no_energy_notes(self):
        result = _run(PrtrExecutor, TRACE, power=False)
        assert not any(k.startswith("energy") for k in result.notes)

    def test_power_is_observation_only(self):
        off = _run(PrtrExecutor, TRACE, power=False)
        on = _run(PrtrExecutor, TRACE)
        assert on.total_time == off.total_time
        assert on.records == off.records
        assert on.timeline.spans == off.timeline.spans
        assert {
            k: v for k, v in on.notes.items()
            if not k.startswith("energy")
        } == off.notes

    def test_set_enabled_restores_previous_state(self):
        prev = set_enabled(True)
        try:
            assert prev == (False, DEFAULT_POWER_MODEL)
        finally:
            set_enabled(*prev)
        result = _run(PrtrExecutor, TRACE, power=False)
        assert "energy_total_j" not in result.notes


class TestMetricsEmission:
    def test_energy_gauges_land_in_the_snapshot(self):
        with obsm.observed():
            _run(PrtrExecutor, TRACE)
            snapshot = obsm.snapshot()
        assert "repro_energy_total_joules" in snapshot
        assert "repro_energy_config_joules" in snapshot
        assert "repro_energy_mean_watts" in snapshot
