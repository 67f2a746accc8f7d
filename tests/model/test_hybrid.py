"""The hybrid fast path: exactness, byte-identity, shadow verification.

The contract under test (docs/PERFORMANCE.md, MODEL.md section 13):
``--hybrid=on`` may change *nothing* but wall time — every
``SweepResult`` point, every fault-grid dataclass, every CSV byte must
equal the pure-DES answer with ``==``, across worker counts. Verify
mode must actually shadow-run the DES and raise on any engineered
mismatch.
"""

from __future__ import annotations

import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.analysis import reliability
from repro.analysis.reliability import (
    effective_speedup_under_faults,
    fault_cell_spec,
    sweep_fault_hit_grid,
    trace_with_hit_ratio,
)
from repro.experiments import fig5, fig9
from repro.faults.injector import FaultConfig
from repro.faults.recovery import FallbackPolicy
from repro.hardware.icap_controller import IcapController
from repro.hardware.node import XD1Node
from repro.hardware.prr import single_prr_floorplan, uniform_prr_floorplan
from repro.model.hybrid import (
    EXACTNESS_PREDICATES,
    HybridMode,
    HybridSample,
    cell_modes,
    closed_form_exact,
    parse_hybrid_mode,
    replay_cell,
    route,
    verdicts,
    verification_sample,
)
from repro.power import pareto
from repro.rtr.runner import CellSpec, simulate
from repro.runtime.invariants import InvariantError, audit_hybrid
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthChannel

#: a short dual-PRR trace with six partial configurations
TRACE = trace_with_hit_ratio(0.5, 12, 0.1)


class TestModeParsing:
    def test_all_modes_round_trip(self):
        for mode in HybridMode.ALL:
            assert parse_hybrid_mode(mode) == mode

    def test_case_and_whitespace_insensitive(self):
        assert parse_hybrid_mode("  ON ") == HybridMode.ON
        assert parse_hybrid_mode("Verify") == HybridMode.VERIFY

    def test_rejects_unknown(self):
        with pytest.raises(ValueError, match="hybrid"):
            parse_hybrid_mode("fast")


class TestExactnessPredicates:
    def test_catalog_names(self):
        assert set(EXACTNESS_PREDICATES) == {
            "fault-free",
            "overlap-applicable",
            "recovery-inert",
        }

    def test_default_comparison_is_exact(self):
        default = verdicts(CellSpec(), TRACE)
        assert all(default.values())
        assert closed_form_exact(default)

    def test_faulty_rate_is_not_exact(self):
        assert not closed_form_exact(verdicts(fault_cell_spec(0.25), TRACE))
        assert closed_form_exact(verdicts(fault_cell_spec(0.0), TRACE))

    def test_unknown_verdict_key_rejected(self):
        verdicts = dict.fromkeys(EXACTNESS_PREDICATES, True)
        verdicts["made-up"] = True
        with pytest.raises(KeyError):
            closed_form_exact(verdicts)

    def test_missing_predicate_fails_closed(self):
        verdicts = dict.fromkeys(EXACTNESS_PREDICATES, True)
        del verdicts["fault-free"]
        assert not closed_form_exact(verdicts)


#: every CellSpec field, set alone on the default spec: each value and
#: the exactness predicates it must flip
FIELD_FLIPS = {
    "floorplan": [(single_prr_floorplan(), {"overlap-applicable"})],
    "faults": [
        (FaultConfig(chunk_abort_rate=0.05), {"fault-free"}),
        (FaultConfig(seed=3), set()),
    ],
    "recovery": [(FallbackPolicy(), set())],
    "estimated": [(True, set())],
    "control_time": [(1e-5, set())],
    "force_miss": [(True, set())],
    "bitstream_bytes": [(404_168, set())],
}


def failed_predicates(spec: CellSpec) -> set[str]:
    return {name for name, ok in verdicts(spec, TRACE).items() if not ok}


class TestVerdictsReadTheSpec:
    def test_every_field_is_listed(self):
        assert set(FIELD_FLIPS) == {f.name for f in fields(CellSpec)}

    @pytest.mark.parametrize("name", [f.name for f in fields(CellSpec)])
    def test_one_field_flips_exactly_its_predicates(self, name):
        for value, flipped in FIELD_FLIPS[name]:
            spec = replace(CellSpec(), **{name: value})
            assert failed_predicates(spec) == flipped, (name, value)

    def test_recovery_under_faults_is_not_inert(self):
        spec = CellSpec(
            faults=FaultConfig(chunk_abort_rate=0.05),
            recovery=FallbackPolicy(),
        )
        assert failed_predicates(spec) == {"fault-free", "recovery-inert"}

    def test_verdicts_name_every_predicate(self):
        assert set(verdicts(CellSpec(), TRACE)) == set(EXACTNESS_PREDICATES)


class TestReplayCellIsTheDes:
    """Every cleared spec of a grid replays bitwise, not a 25% sample."""

    def test_every_cleared_spec_replays_bitwise(self):
        specs = [
            CellSpec(
                floorplan=uniform_prr_floorplan(n_prrs, 12),
                faults=faults,
                estimated=estimated,
                control_time=control_time,
                force_miss=force_miss,
                bitstream_bytes=bitstream_bytes,
            )
            for n_prrs, estimated, force_miss, bitstream_bytes,
            control_time, faults in itertools.product(
                (2, 3, 5), (False, True), (False, True), (None, 404_168),
                (None, 0.0, 1e-5), (None, FaultConfig(seed=3)),
            )
        ]
        traces = [trace_with_hit_ratio(h, 12, 0.1) for h in (0.0, 0.5, 0.9)]
        # config-bound and near-balanced Figure 9 stages
        traces += [fig9._cyclic_trace(t, 9) for t in (1e-3, 0.02)]
        mismatches = []
        for spec, trace in itertools.product(specs, traces):
            assert closed_form_exact(verdicts(spec, trace))
            frtr, prtr = simulate(spec, trace)
            des = (frtr.total_time, prtr.total_time, prtr.n_configs)
            if replay_cell(spec, trace) != des:
                mismatches.append((spec, trace.name))
        assert len(specs) * len(traces) == 720
        assert mismatches == []

    def test_seu_rate_alone_replays_bitwise(self):
        # No model draws SEUs, so a positive seu_rate must not send the
        # cell to the DES.
        spec = replace(
            fault_cell_spec(0.0), faults=FaultConfig(seu_rate=1.0)
        )
        assert all(verdicts(spec, TRACE).values())
        for h in (0.0, 0.5, 0.9):
            trace = trace_with_hit_ratio(h, 12, 0.1)
            frtr, prtr = simulate(spec, trace)
            assert replay_cell(spec, trace) == (
                frtr.total_time, prtr.total_time, prtr.n_configs
            )


class TestReplayBuildsNoNode:
    @pytest.fixture
    def no_des_objects(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        for cls in (Simulator, XD1Node, IcapController, BandwidthChannel):
            monkeypatch.setattr(cls, "__init__", refuse)

    def test_analytic_cells_build_no_des_object(self, no_des_objects):
        point = effective_speedup_under_faults(0.0, 0.5, hybrid="on")
        power = pareto.measure_power_point(3, 0.5, hybrid="on")
        _, speedups = fig9.simulate_points(
            fig9.panel("measured"), n_calls=24, hybrid="on"
        )
        assert point.speedup > 1.0
        assert power.n_prrs == 3
        assert len(speedups) == 8

    def test_the_des_builds_them(self, no_des_objects):
        with pytest.raises(AssertionError, match="built a"):
            effective_speedup_under_faults(0.0, 0.5, hybrid="off")


class TestVerificationSample:
    def test_pure_function_of_n_and_seed(self):
        assert verification_sample(40) == verification_sample(40)
        assert verification_sample(40, seed=1) != verification_sample(40)

    def test_sample_size_rule(self):
        assert len(verification_sample(40)) == 10  # 25%
        assert len(verification_sample(3)) == 2    # min_samples floor
        assert verification_sample(1) == [0]       # clamped to n
        assert verification_sample(0) == []

    def test_sorted_unique_indices(self):
        sample = verification_sample(100)
        assert sample == sorted(set(sample))
        assert all(0 <= i < 100 for i in sample)


class TestReplayBitIdentity:
    @pytest.mark.parametrize("which", ["estimated", "measured"])
    def test_fig9_points_identical(self, which):
        p = fig9.panel(which)
        x_off, s_off = fig9.simulate_points(p, n_calls=60, hybrid="off")
        x_on, s_on = fig9.simulate_points(p, n_calls=60, hybrid="on")
        assert np.array_equal(x_off, x_on)
        assert np.array_equal(s_off, s_on)  # exact, not allclose

    def test_fault_point_identical(self):
        for h in (0.0, 0.5, 0.9):
            des = effective_speedup_under_faults(0.0, h, hybrid="off")
            fast = effective_speedup_under_faults(0.0, h, hybrid="on")
            assert des == fast  # frozen-dataclass full equality

    def test_replay_refuses_inexact_point(self):
        with pytest.raises(ValueError, match="fault-free"):
            replay_cell(
                fault_cell_spec(0.3), trace_with_hit_ratio(0.5, 30, 0.1)
            )


class TestGridIdentity:
    RATES = (0.0, 0.05)
    HS = (0.0, 0.9)

    def test_faults_grid_identical_across_modes(self):
        off = sweep_fault_hit_grid(self.RATES, self.HS)
        on = sweep_fault_hit_grid(self.RATES, self.HS, hybrid="on")
        verify = sweep_fault_hit_grid(self.RATES, self.HS, hybrid="verify")
        assert off == on == verify

    @pytest.mark.parametrize("workers", [1, 4])
    def test_faults_grid_identical_across_workers(self, workers):
        serial = sweep_fault_hit_grid(self.RATES, self.HS, hybrid="on")
        sharded = sweep_fault_hit_grid(
            self.RATES, self.HS, hybrid="on", workers=workers
        )
        assert serial == sharded

    @pytest.mark.parametrize("workers", [1, 4])
    def test_fig9_identical_across_workers(self, workers):
        p = fig9.panel("measured")
        _, serial = fig9.simulate_points(p, n_calls=60, hybrid="on")
        _, sharded = fig9.simulate_points(
            p, n_calls=60, hybrid="on", workers=workers
        )
        assert np.array_equal(serial, sharded)

    def test_cell_modes_partition(self):
        grid = [(h, r) for h in self.HS for r in (0.0, 0.3)]
        def spec_of(cell):
            return fault_cell_spec(cell[1])

        def trace_of(cell):
            return trace_with_hit_ratio(cell[0], 30, 0.1)

        modes = cell_modes(grid, "verify", 0, spec_of, trace_of)
        assert len(modes) == len(grid)
        # every cell replays its FRTR run (a chunk-abort rate draws
        # nothing there), so every cell is in the verify pool
        assert [i for i, m in enumerate(modes) if m == "verify"] == (
            verification_sample(len(grid))
        )
        assert set(modes) == {HybridMode.VERIFY, HybridMode.ON}
        assert cell_modes(grid, "off", 0, spec_of, trace_of) == (
            ["off"] * len(grid)
        )

    def test_fig5_result_reuse_identical(self):
        shared = fig5.run((0.17,), fig5.DEFAULT_HIT_RATIOS)
        assert fig5.render(result=shared) == fig5.render()
        assert fig5.to_csv(result=shared) == fig5.to_csv()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_fig5_grid_identical_across_workers(self, workers):
        serial = fig5.run()
        sharded = fig5.run(workers=workers)
        assert np.array_equal(serial.values, sharded.values)


class TestShadowVerification:
    def test_verify_mode_runs_clean(self):
        p = fig9.panel("measured")
        _, s = fig9.simulate_points(p, n_calls=60, hybrid="verify")
        assert len(s) == 8

    def test_audit_passes_on_agreement(self):
        report = audit_hybrid(
            [HybridSample("pt", 1.25, 1.25), HybridSample("pt2", 0.5, 0.5)]
        )
        assert report.ok

    def test_audit_raises_on_engineered_mismatch(self):
        samples = [HybridSample("bad-point", 1.25, 1.2500000001)]
        with pytest.raises(InvariantError, match="hybrid-exactness"):
            audit_hybrid(samples).raise_if_strict(strict=True)
        report = audit_hybrid(samples)
        assert not report.ok
        assert any(
            v.invariant == "hybrid-exactness" for v in report.violations
        )

    def test_point_level_verify_matches_off(self):
        verify = effective_speedup_under_faults(0.0, 0.5, hybrid="verify")
        off = effective_speedup_under_faults(0.0, 0.5, hybrid="off")
        assert verify == off


class TestRouter:
    """:func:`route` with counting stubs: which side runs, what returns."""

    EXACT = dict.fromkeys(EXACTNESS_PREDICATES, True)

    def exact(self):
        return self.EXACT

    @staticmethod
    def stubs(analytic, simulated):
        calls = {"replay": 0, "simulate": 0}

        def replay():
            calls["replay"] += 1
            return analytic

        def simulate():
            calls["simulate"] += 1
            return simulated

        return calls, replay, simulate

    def test_off_runs_only_the_des(self):
        calls, replay, simulate = self.stubs(1.0, 2.0)
        assert route("off", self.exact, replay, simulate, "cell") == 2.0
        assert calls == {"replay": 0, "simulate": 1}

    def test_off_reads_no_predicate(self):
        def unread():
            raise AssertionError("off read the predicates")

        calls, replay, simulate = self.stubs(1.0, 2.0)
        assert route("off", unread, replay, simulate, "cell") == 2.0
        assert calls == {"replay": 0, "simulate": 1}

    @pytest.mark.parametrize("mode", ["on", "verify"])
    @pytest.mark.parametrize("failed", sorted(EXACTNESS_PREDICATES))
    def test_any_failed_predicate_runs_only_the_des(self, mode, failed):
        verdicts = {**self.EXACT, failed: False}
        calls, replay, simulate = self.stubs(1.0, 2.0)
        assert route(mode, lambda: verdicts, replay, simulate, "cell") == 2.0
        assert calls == {"replay": 0, "simulate": 1}

    def test_on_runs_only_the_replay(self):
        calls, replay, simulate = self.stubs(1.0, 2.0)
        assert route("on", self.exact, replay, simulate, "cell") == 1.0
        assert calls == {"replay": 1, "simulate": 0}

    def test_verify_runs_both_and_returns_the_replay(self):
        analytic, simulated = [1.5], [1.5]  # equal, but distinguishable
        calls, replay, simulate = self.stubs(analytic, simulated)
        assert route("verify", self.exact, replay, simulate, "cell") is (
            analytic
        )
        assert calls == {"replay": 1, "simulate": 1}

    def test_verify_mismatch_raises_naming_the_label(self):
        _, replay, simulate = self.stubs(1.25, 1.2500000001)
        with pytest.raises(InvariantError, match="hybrid-exactness.*cell-7"):
            route("verify", self.exact, replay, simulate, "cell-7")

    def test_rejects_unknown_mode(self):
        _, replay, simulate = self.stubs(1.0, 1.0)
        with pytest.raises(ValueError, match="hybrid"):
            route("fast", self.exact, replay, simulate, "cell")


def nudged(value: float) -> float:
    """``value`` off by one part in 10**12: equal to no float DES answer."""
    return value * (1.0 + 1e-12)


class TestCellsCatchMismatches:
    """A perturbed replay under ``verify`` is caught through every cell."""

    def test_fault_cell(self, monkeypatch):
        real = reliability._replayed_fault_point

        def perturbed(*args, **kwargs):
            point = real(*args, **kwargs)
            return replace(point, prtr_time=nudged(point.prtr_time))

        monkeypatch.setattr(reliability, "_replayed_fault_point", perturbed)
        with pytest.raises(InvariantError, match="hybrid-exactness"):
            effective_speedup_under_faults(
                0.0, 0.5, n_calls=8, hybrid="verify"
            )

    def test_power_cell(self, monkeypatch):
        real = pareto._replayed_power_point

        def perturbed(*args, **kwargs):
            point = real(*args, **kwargs)
            return replace(point, prtr_energy_j=nudged(point.prtr_energy_j))

        monkeypatch.setattr(pareto, "_replayed_power_point", perturbed)
        with pytest.raises(InvariantError, match="power:prrs=2"):
            pareto.measure_power_point(2, 0.5, n_calls=8, hybrid="verify")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fig9_points(self, monkeypatch, workers):
        real = fig9.replay_cell

        def perturbed(*args, **kwargs):
            frtr_total, prtr_total, n_configs = real(*args, **kwargs)
            return frtr_total, nudged(prtr_total), n_configs

        monkeypatch.setattr(fig9, "replay_cell", perturbed)
        with pytest.raises(InvariantError, match="fig9:Fig 9"):
            fig9.simulate_points(
                fig9.panel("measured"), n_calls=24, hybrid="verify",
                workers=workers,
            )

    def test_fig9_verify_sample_is_verification_sample_8(self, monkeypatch):
        simulated = []
        real = fig9.compare

        def counting_compare(trace, **kw):
            simulated.append(trace[0].task.time)
            return real(trace, **kw)

        monkeypatch.setattr(fig9, "compare", counting_compare)
        p = fig9.panel("measured")
        x, _ = fig9.simulate_points(p, n_calls=24, hybrid="verify")
        assert len(x) == 8
        assert simulated == [
            x[i] * p.t_frtr for i in verification_sample(8)
        ]
        modes = cell_modes(
            list(x), "verify", 0, lambda _: CellSpec(), lambda _: TRACE
        )
        assert [i for i, m in enumerate(modes) if m == "verify"] == (
            verification_sample(8)
        )
