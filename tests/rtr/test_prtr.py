"""Unit tests for the PRTR executor — the overlap pipeline of Fig. 4."""

from __future__ import annotations

import pytest

from repro.analysis import expected_prtr_pipeline_total, validate_prtr
from repro.caching import ConfigCache, LruPolicy
from repro.hardware import PUBLISHED_TABLE2, single_prr_floorplan
from repro.rtr import PrtrExecutor, make_node
from repro.sim.trace import Phase
from repro.workloads import CallTrace, HardwareTask

DUAL_BYTES = PUBLISHED_TABLE2["dual_prr"].bitstream_bytes


def cyclic_trace(task_time: float, n: int, k: int = 3) -> CallTrace:
    names = [f"m{i % k}" for i in range(n)]
    lib = {n_: HardwareTask(n_, task_time) for n_ in set(names)}
    return CallTrace([lib[n_] for n_ in names], name="cyc")


def alternating_trace(task_time: float, n: int) -> CallTrace:
    return cyclic_trace(task_time, n, k=2)


class TestPipelineExactness:
    @pytest.mark.parametrize("task_time", [0.001, 0.0198, 0.5, 3.0])
    @pytest.mark.parametrize("estimated", [True, False])
    def test_matches_pipeline_formula(self, task_time, estimated):
        """The DES total equals the closed-form pipeline expectation."""
        node = make_node()
        executor = PrtrExecutor(
            node,
            estimated=estimated,
            control_time=1e-5,
            force_miss=True,
            bitstream_bytes=DUAL_BYTES,
        )
        trace = cyclic_trace(task_time, 30)
        result = executor.run(trace)
        rep = validate_prtr(
            result,
            t_frtr=result.notes["t_config_full"],
            t_prtr=result.notes["t_config_partial"],
            t_control=1e-5,
        )
        assert rep.pipeline_rel_error < 1e-9

    def test_hits_skip_configuration(self):
        """Two alternating modules on two PRRs: everything hits after
        warm-up and total == startup + n*(control + task)."""
        node = make_node()
        executor = PrtrExecutor(
            node, control_time=0.0, bitstream_bytes=DUAL_BYTES
        )
        n = 20
        trace = alternating_trace(0.05, n)
        result = executor.run(trace)
        # Exactly one partial configuration (module 1's first load).
        assert result.n_configs == 1
        t_partial = result.notes["t_config_partial"]
        t_full = result.notes["t_config_full"]
        # Stage 0 overlaps the one partial config with task 0.
        expected = t_full + max(0.05, t_partial) + (n - 1) * 0.05
        assert result.total_time == pytest.approx(expected, rel=1e-12)

    def test_force_miss_reconfigures_every_call(self):
        node = make_node()
        executor = PrtrExecutor(
            node, force_miss=True, bitstream_bytes=DUAL_BYTES
        )
        result = executor.run(alternating_trace(0.05, 10))
        assert result.n_configs == 10
        assert result.hit_ratio == 0.0


class TestResidencyHits:
    def test_three_modules_two_prrs_thrash(self):
        """Cyclic 3-module trace on 2 PRRs with LRU: all misses."""
        node = make_node()
        result = PrtrExecutor(
            node, bitstream_bytes=DUAL_BYTES
        ).run(cyclic_trace(0.05, 30, k=3))
        # Call 0 rides the initial full configuration (a hit by
        # convention); every later call misses.
        assert result.n_configs == 29

    def test_repeated_module_always_hits(self):
        node = make_node()
        result = PrtrExecutor(
            node, bitstream_bytes=DUAL_BYTES
        ).run(cyclic_trace(0.05, 10, k=1))
        assert result.n_configs == 0
        assert result.hit_ratio == 1.0

    def test_hit_sequence_recorded(self):
        node = make_node()
        result = PrtrExecutor(
            node, bitstream_bytes=DUAL_BYTES
        ).run(alternating_trace(0.05, 6))
        hits = [r.hit for r in result.records]
        assert hits == [True, False, True, True, True, True]


class TestSinglePrr:
    def test_serial_configuration(self):
        """One PRR: misses cannot overlap; config is paid serially."""
        node = make_node(floorplan=single_prr_floorplan())
        executor = PrtrExecutor(
            node,
            control_time=0.0,
            bitstream_bytes=PUBLISHED_TABLE2["single_prr"].bitstream_bytes,
        )
        n = 9
        trace = cyclic_trace(0.05, n, k=3)
        result = executor.run(trace)
        t_partial = result.notes["t_config_partial"]
        t_full = result.notes["t_config_full"]
        # n-1 serial partial configs (call 0 ships with the full config).
        expected = t_full + n * 0.05 + (n - 1) * t_partial
        assert result.total_time == pytest.approx(expected, rel=1e-12)
        assert result.n_configs == n - 1

    def test_single_prr_repeat_hits(self):
        node = make_node(floorplan=single_prr_floorplan())
        result = PrtrExecutor(
            node,
            bitstream_bytes=PUBLISHED_TABLE2["single_prr"].bitstream_bytes,
        ).run(cyclic_trace(0.05, 10, k=1))
        assert result.n_configs == 0


class TestConfigValidation:
    def test_no_prr_floorplan_rejected(self):
        from repro.hardware import XC2VP50, Floorplan

        plan = Floorplan(
            name="static_only",
            device=XC2VP50,
            static_columns=XC2VP50.clb_columns,
            prr_columns=[],
        )
        node = make_node(floorplan=plan)
        with pytest.raises(ValueError, match="at least one PRR"):
            PrtrExecutor(node)

    def test_cache_slot_mismatch_rejected(self):
        node = make_node()
        with pytest.raises(ValueError, match="slots"):
            PrtrExecutor(
                node, cache=ConfigCache(slots=5, policy=LruPolicy())
            )

    def test_negative_overheads_rejected(self):
        node = make_node()
        with pytest.raises(ValueError):
            PrtrExecutor(node, control_time=-1.0)
        with pytest.raises(ValueError):
            PrtrExecutor(node, decision_time=-1.0)


class TestTimelineStructure:
    def test_config_overlaps_task_on_miss(self):
        node = make_node()
        result = PrtrExecutor(
            node, force_miss=True, bitstream_bytes=DUAL_BYTES,
            estimated=True,
        ).run(cyclic_trace(0.05, 6))
        partials = [
            s for s in result.timeline.by_lane("icap")
            if s.note == "partial"
        ]
        tasks = result.timeline.by_phase(Phase.TASK)
        assert partials
        assert any(
            c.overlaps(t) for c in partials for t in tasks
        ), "no partial configuration overlapped any task"

    def test_startup_full_config_first(self):
        node = make_node()
        result = PrtrExecutor(
            node, bitstream_bytes=DUAL_BYTES
        ).run(cyclic_trace(0.05, 3))
        initial = [
            s for s in result.timeline.by_phase(Phase.CONFIG)
            if s.note == "initial full"
        ]
        assert len(initial) == 1
        assert initial[0].start == pytest.approx(
            0.0
        )
        assert result.startup_time == pytest.approx(initial[0].duration)

    def test_decision_spans_emitted(self):
        node = make_node()
        result = PrtrExecutor(
            node, decision_time=1e-4, bitstream_bytes=DUAL_BYTES
        ).run(cyclic_trace(0.05, 4))
        setups = result.timeline.by_phase(Phase.SETUP)
        # initial decision + one per call
        assert len(setups) == 1 + 4


class TestDetailedIo:
    def test_io_phases_appear(self):
        node = make_node()
        task = HardwareTask(
            "m0", time=0.05, data_in_bytes=14_000_000,
            data_out_bytes=14_000_000, compute_time=0.03,
        )
        trace = CallTrace([task, task.with_time(0.05)], name="io")
        result = PrtrExecutor(
            node, detailed_io=True, bitstream_bytes=DUAL_BYTES
        ).run(trace)
        assert result.timeline.by_phase(Phase.DATA_IN)
        assert result.timeline.by_phase(Phase.COMPUTE)
        assert result.timeline.by_phase(Phase.DATA_OUT)

    def test_config_waits_for_data_in(self):
        """Section 4.1: partial reconfiguration shares the inbound link,
        so it cannot start until the running task's data-in finishes."""
        node = make_node()
        lib = {
            n: HardwareTask(
                n, time=0.2, data_in_bytes=0.1 * 1400e6,
                data_out_bytes=0.0, compute_time=0.1,
            )
            for n in ("m0", "m1", "m2")
        }
        trace = CallTrace([lib[f"m{i % 3}"] for i in range(4)], name="io")
        executor = PrtrExecutor(
            node, detailed_io=True, force_miss=True,
            bitstream_bytes=DUAL_BYTES,
        )
        result = executor.run(trace)
        partials = [
            s for s in result.timeline.by_lane("icap")
            if s.note == "partial"
        ]
        assert partials
        # The wire-level invariant: the inbound channel never carries two
        # transfers at once (config chunks and data-in serialize).
        node.link.inbound.assert_no_overlap()
        # And the contention is visible: with data-in competing for the
        # link, at least one configuration takes longer than its
        # unloaded time (chunk transfers queue behind data bursts).
        unloaded = executor.partial_config_time("m0")
        assert max(s.duration for s in partials) >= unloaded
