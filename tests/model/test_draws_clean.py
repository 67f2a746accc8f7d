"""The draws-clean verdict: a faulty run whose seeded draws all come up
clean is replayed, and only the runs that draw a fault are simulated.

A run with positive fault rates makes, in order, the draws of its
fault-free schedule up to its first fault, on a fresh injector seeded
with ``faults.seed``.  So :func:`repro.model.hybrid.verdicts` can decide
each regime before either path runs: clean exactly when each of the
schedule's first N uniforms is at least its draw's rate.  These tests
hold the verdict to *exact*: every regime it clears replays bitwise, and
every PRTR regime it refuses really draws a fault.
"""

from __future__ import annotations

import random
from dataclasses import asdict, replace

import pytest

from repro.analysis import reliability
from repro.analysis.reliability import (
    DEFAULT_FAULT_RATES,
    effective_speedup_under_faults,
    fault_cell_spec,
    trace_with_hit_ratio,
)
from repro.experiments import fig9
from repro.faults.injector import FaultConfig
from repro.faults.recovery import FallbackPolicy
from repro.hardware.prr import single_prr_floorplan
from repro.model import hybrid
from repro.model.hybrid import (
    HybridMode,
    cell_modes,
    closed_form_exact,
    replay_cell,
    verdicts,
)
from repro.power import pareto
from repro.rtr import runner
from repro.rtr.runner import REGIMES, CellSpec, simulate
from repro.runtime.crashsafe import crash_safe_fault_sweep
from repro.runtime.invariants import InvariantError


def hexed(point) -> dict:
    """A point's fields, floats as ``float.hex``: equal means bitwise."""
    return {
        k: v.hex() if isinstance(v, float) else v
        for k, v in asdict(point).items()
    }


def fault_grid_cells(seed: int) -> list[tuple[float, float, int]]:
    """The 320 ``(rate, hit ratio, seed)`` cells the ``fault-grid``
    benchmark workload draws for ``seed`` (its ``_fault_input``)."""
    cells = []
    for i in range(320):
        rng = random.Random(f"fault-grid:{seed}:{i}")
        rate = DEFAULT_FAULT_RATES[i % len(DEFAULT_FAULT_RATES)]
        hit_ratio = ((i // len(DEFAULT_FAULT_RATES)) % 10 + rng.random()) / 10
        cells.append((rate, hit_ratio, rng.randrange(2**31)))
    return cells


@pytest.fixture
def simulated(monkeypatch):
    """The regimes each ``simulate`` call of a fault cell asks for."""
    calls: list[tuple[str, ...]] = []
    real = reliability.simulate

    def spy(spec, trace, regimes=REGIMES):
        calls.append(tuple(regimes))
        return real(spec, trace, regimes)

    monkeypatch.setattr(reliability, "simulate", spy)
    return calls


@pytest.fixture
def no_generator(monkeypatch):
    """Fail any draws-clean decision that builds a random generator."""

    def refuse(seed):
        raise AssertionError(f"built a generator for seed {seed!r}")

    monkeypatch.setattr(hybrid, "resolve_rng", refuse)


def clean(spec, trace, regime=None) -> bool:
    return verdicts(spec, trace, regime)["fault-free"]


class TestFaultGridIsExact:
    """Every cell ``fault-grid`` draws, on two seeds."""

    @pytest.mark.parametrize(
        "seed, fault_free, draws_clean", [(0, 40, 90), (1, 40, 86)]
    )
    def test_every_cleared_regime_replays_and_every_refusal_faults(
        self, simulated, seed, fault_free, draws_clean
    ):
        whole = {"fault-free": 0, "draws-clean": 0}
        for rate, hit_ratio, cell_seed in fault_grid_cells(seed):
            spec = fault_cell_spec(rate, cell_seed)
            trace = trace_with_hit_ratio(hit_ratio, 30, 0.1)
            frtr_ok, prtr_ok = (
                closed_form_exact(verdicts(spec, trace, regime))
                for regime in REGIMES
            )
            simulated.clear()
            on = effective_speedup_under_faults(
                rate, hit_ratio, seed=cell_seed, hybrid="on"
            )
            asked = list(simulated)
            off = effective_speedup_under_faults(
                rate, hit_ratio, seed=cell_seed, hybrid="off"
            )
            # A chunk-abort rate never touches the vendor port.
            assert frtr_ok
            assert hexed(on) == hexed(off), (rate, hit_ratio, cell_seed)
            if prtr_ok:
                assert asked == []
                assert off.prtr_retries == off.prtr_fallbacks == 0
                whole["fault-free" if rate == 0 else "draws-clean"] += 1
            else:
                assert asked == [("prtr",)]
                assert off.prtr_retries + off.prtr_fallbacks >= 1
        assert whole == {"fault-free": fault_free, "draws-clean": draws_clean}


#: a short trace with six partial configurations on a dual-PRR node
TRACE = trace_with_hit_ratio(0.5, 12, 0.1)


def seeded_specs(faults: FaultConfig, n: int = 40, **fields) -> list[CellSpec]:
    return [
        CellSpec(
            faults=replace(faults, seed=seed),
            recovery=FallbackPolicy(max_attempts=3, backoff=0.05, cap=0.2),
            **fields,
        )
        for seed in range(n)
    ]


def fault_free_replay(spec: CellSpec, trace=TRACE):
    return replay_cell(replace(spec, faults=None), trace)


class TestVerdictEdges:
    def test_transfer_ber_is_never_cleared(self, no_generator):
        spec = CellSpec(faults=FaultConfig(transfer_ber=1e-15))
        for regime in (*REGIMES, None):
            assert not clean(spec, TRACE, regime)
        with pytest.raises(ValueError, match="fault-free"):
            replay_cell(spec, TRACE)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_port_abort_rate_is_exact_per_regime(self, regime):
        # FRTR draws once per call, PRTR once at its startup.
        rate = 0.05 if regime == "frtr" else 0.5
        outcomes = set()
        for spec in seeded_specs(FaultConfig(port_abort_rate=rate)):
            (run,) = simulate(spec, TRACE, (regime,))
            replayed = fault_free_replay(spec)
            total = replayed[0] if regime == "frtr" else replayed[1]
            if clean(spec, TRACE, regime):
                assert run.total_time.hex() == total.hex()
                assert run.n_retries == 0
            else:
                startup = run.notes.get("startup_retries", 0.0)
                assert run.n_retries + startup >= 1
            outcomes.add(clean(spec, TRACE, regime))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("hit_ratio, outcomes_seen", [
        (0.5, {(True, False), (False, False)}),
        (1.0, {(True, True), (False, True)}),
    ])
    def test_port_abort_cells_route_each_regime(
        self, monkeypatch, simulated, hit_ratio, outcomes_seen
    ):
        # Fault cells whose vendor port aborts too: each run is replayed
        # exactly when its own draws come up clean.  An all-hit trace
        # makes PRTR draw once, so its FRTR run faults alone.
        specs = seeded_specs(
            FaultConfig(port_abort_rate=0.05, chunk_abort_rate=0.02)
        )
        monkeypatch.setattr(
            reliability, "fault_cell_spec",
            lambda rate, seed, recovery: specs[seed],
        )
        trace = trace_with_hit_ratio(hit_ratio, 12, 0.1)
        outcomes = set()
        for seed, spec in enumerate(specs):
            ok = [clean(spec, trace, regime) for regime in REGIMES]
            simulated.clear()
            on = effective_speedup_under_faults(
                0.02, hit_ratio, n_calls=12, seed=seed, hybrid="on"
            )
            assert simulated == [
                (regime,) for regime, cleared in zip(REGIMES, ok)
                if not cleared
            ]
            if not ok[0]:
                (frtr,) = simulate(spec, trace, ("frtr",))
                assert frtr.n_retries >= 1
            off = effective_speedup_under_faults(
                0.02, hit_ratio, n_calls=12, seed=seed
            )
            assert hexed(on) == hexed(off)
            outcomes.add(tuple(ok))
        assert outcomes_seen <= outcomes

    def test_estimated_draws_once_per_partial_write(self, monkeypatch):
        drawn: list[int] = []
        real = hybrid.resolve_rng

        class Counting:
            def __init__(self, seed):
                self.rng = real(seed)

            def random(self, n):
                drawn.append(n)
                return self.rng.random(n)

        monkeypatch.setattr(hybrid, "resolve_rng", Counting)
        outcomes = set()
        specs = seeded_specs(
            FaultConfig(chunk_abort_rate=2e-3), estimated=True
        )
        for spec in specs:
            drawn.clear()
            ok = clean(spec, TRACE, "prtr")
            _, prtr = simulate(spec, TRACE)
            if ok:
                _, prtr_total, n_configs = fault_free_replay(spec)
                assert sum(drawn) == n_configs == prtr.n_configs
                assert prtr.total_time.hex() == prtr_total.hex()
            else:
                assert prtr.n_retries + prtr.n_fallbacks >= 1
            outcomes.add(ok)
        assert outcomes == {True, False}

    def test_all_hit_trace_is_clean_at_any_chunk_rate(self, simulated):
        trace = trace_with_hit_ratio(1.0, 12, 0.1)
        spec = fault_cell_spec(1.0)
        assert fault_free_replay(spec, trace)[2] == 0
        assert clean(spec, trace)
        on = effective_speedup_under_faults(1.0, 1.0, n_calls=12)
        assert simulated == [("frtr",), ("prtr",)]
        simulated.clear()
        fast = effective_speedup_under_faults(
            1.0, 1.0, n_calls=12, hybrid="on"
        )
        assert simulated == []
        assert hexed(fast) == hexed(on)

    def test_no_positive_rate_is_decided_without_a_generator(
        self, no_generator
    ):
        for faults in (None, FaultConfig(), FaultConfig(seu_rate=1.0)):
            spec = replace(fault_cell_spec(0.0), faults=faults)
            for regime in (*REGIMES, None):
                assert clean(spec, TRACE, regime)
        # A chunk-only rate makes no FRTR draw either.
        assert clean(fault_cell_spec(0.5), TRACE, "frtr")
        effective_speedup_under_faults(0.0, 0.5, hybrid="on")
        pareto.measure_power_point(3, 0.5, hybrid="on")
        fig9.simulate_points(fig9.panel("measured"), n_calls=24, hybrid="on")

    def test_refusal_inside_the_first_partial_replays_nothing(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("counted configurations")

        monkeypatch.setattr(hybrid, "replay_cell", refuse)
        spec = fault_cell_spec(0.5)
        assert not clean(spec, TRACE, "prtr")

    def test_single_prr_run_is_refused_without_drawing(self, no_generator):
        # The replay folds the dual-PRR pipeline only.
        spec = replace(
            fault_cell_spec(1e-9), floorplan=single_prr_floorplan()
        )
        for regime in (*REGIMES, None):
            assert not clean(spec, TRACE, regime)


class TestPerRegimeRouting:
    #: seed 1 at rate 0.2: the PRTR run faults, FRTR draws nothing
    MIXED = dict(fault_rate=0.2, hit_ratio=0.5, n_calls=12, seed=1)

    def test_simulate_builds_only_the_regimes_asked_for(self, monkeypatch):
        built = []
        real = runner.make_node

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "make_node", counting)
        spec = fault_cell_spec(0.2)
        (prtr,) = simulate(spec, TRACE, ("prtr",))
        assert len(built) == 1
        _, both = simulate(spec, TRACE)
        assert prtr.total_time == both.total_time
        assert prtr.n_retries == both.n_retries

    def test_faulting_prtr_replays_frtr_and_simulates_prtr(self, simulated):
        point = effective_speedup_under_faults(**self.MIXED, hybrid="on")
        assert simulated == [("prtr",)]
        assert point.prtr_retries >= 1
        off = effective_speedup_under_faults(**self.MIXED)
        assert hexed(point) == hexed(off)

    def test_verify_shadow_checks_the_replayed_frtr(self, simulated):
        point = effective_speedup_under_faults(**self.MIXED, hybrid="verify")
        assert simulated == [("frtr",), ("prtr",)]
        assert hexed(point) == hexed(
            effective_speedup_under_faults(**self.MIXED)
        )

    def test_verify_catches_a_perturbed_frtr_replay(self, monkeypatch):
        real = reliability.replay_cell

        def perturbed(*args, **kwargs):
            frtr, prtr, n_configs = real(*args, **kwargs)
            return frtr * (1.0 + 1e-12), prtr, n_configs

        monkeypatch.setattr(reliability, "replay_cell", perturbed)
        with pytest.raises(InvariantError, match="H=0.5:frtr"):
            effective_speedup_under_faults(**self.MIXED, hybrid="verify")

    def test_cell_modes_sample_draws_clean_cells(self):
        grid = [(h, 1e-4) for h in (0.1, 0.3, 0.5, 0.7)]

        def spec_of(cell):
            return fault_cell_spec(cell[1])

        modes = cell_modes(
            grid, "verify", 0, spec_of,
            lambda cell: trace_with_hit_ratio(cell[0], 30, 0.1),
        )
        assert modes.count(HybridMode.VERIFY) == 2

    #: seed 0 at rate 0.01: every PRTR run faults, so no cell replays
    #: whole, and every FRTR run replays
    SWEEP = dict(fault_rates=(0.01,), hit_ratios=(0.0, 0.5), n_calls=12)

    @pytest.fixture
    def perturbed_frtr_replay(self, monkeypatch):
        real = reliability.replay_cell

        def perturbed(*args, **kwargs):
            frtr, prtr, n_configs = real(*args, **kwargs)
            return frtr * (1.0 + 1e-12), prtr, n_configs

        monkeypatch.setattr(reliability, "replay_cell", perturbed)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_verify_sweeps_check_the_frtr_replays(
        self, perturbed_frtr_replay, workers, tmp_path
    ):
        for h in self.SWEEP["hit_ratios"]:
            spec = fault_cell_spec(0.01)
            trace = trace_with_hit_ratio(h, 12, 0.1)
            assert not closed_form_exact(verdicts(spec, trace))
            assert closed_form_exact(verdicts(spec, trace, "frtr"))
        with pytest.raises(InvariantError, match=":frtr"):
            reliability.sweep_fault_hit_grid(
                **self.SWEEP, hybrid="verify", workers=workers
            )
        with pytest.raises(InvariantError, match=":frtr"):
            crash_safe_fault_sweep(
                str(tmp_path), **self.SWEEP, hybrid="verify",
                workers=workers,
            )

    def test_off_reads_no_verdict(self, monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("off read a verdict")

        monkeypatch.setattr(reliability, "verdicts", unread)
        monkeypatch.setattr(hybrid, "verdicts", unread)
        point = effective_speedup_under_faults(**self.MIXED)
        assert point.prtr_retries >= 1
        reliability.sweep_fault_hit_grid(**self.SWEEP)
