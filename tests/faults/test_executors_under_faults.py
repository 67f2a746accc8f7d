"""Executor-level recovery: each policy exercised end-to-end on the DES."""

from __future__ import annotations

import pytest

from repro.analysis.reliability import (
    DEFAULT_FAULT_RATES,
    availability,
    fault_cell_spec,
    trace_with_hit_ratio,
)
from repro.faults import (
    CrcChecker,
    FallbackPolicy,
    FaultConfig,
    FaultInjector,
    RecoveryPolicy,
    WriteAbort,
)
from repro.hardware import IcapController
from repro.obs import metrics as obsm
from repro.rtr.frtr import FrtrExecutor
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import make_node, simulate
from repro.sim import Simulator
from repro.sim.resources import BandwidthChannel
from repro.workloads import CallTrace, HardwareTask


def make_trace(n_calls: int = 12, task_time: float = 0.05) -> CallTrace:
    lib = {n: HardwareTask(n, task_time) for n in ("a", "b", "c")}
    return CallTrace(
        [lib[n] for n in ("a", "b", "c") * (n_calls // 3)], name="faulty"
    )


def run_prtr(config=None, recovery=None, **kwargs):
    injector = FaultInjector(config) if config is not None else None
    node = make_node(fault_injector=injector)
    executor = PrtrExecutor(
        node, force_miss=True, recovery=recovery, **kwargs
    )
    return executor.run(make_trace()), node


class TestZeroRateBitIdentical:
    def test_prtr_records_identical_to_baseline(self):
        baseline, _ = run_prtr()
        with_inert, node = run_prtr(
            FaultConfig(), recovery=RecoveryPolicy(backoff=1e-3, cap=0.1)
        )
        assert with_inert.total_time == baseline.total_time
        assert with_inert.records == baseline.records
        assert with_inert.summary() == baseline.summary()
        assert node.icap.write_aborts == 0
        assert node.fault_injector.stats.total == 0

    def test_frtr_identical_to_baseline(self):
        trace = make_trace()
        base = FrtrExecutor(make_node()).run(trace)
        inert = FrtrExecutor(
            make_node(fault_injector=FaultInjector(FaultConfig())),
            recovery=RecoveryPolicy(backoff=1e-3, cap=0.1),
        ).run(trace)
        assert inert.total_time == base.total_time
        assert inert.records == base.records


class TestSameSeedSameRun:
    def test_faulty_prtr_run_reproduces_exactly(self):
        config = FaultConfig(chunk_abort_rate=0.01, seed=9)
        retry = RecoveryPolicy(8, backoff=1e-3, cap=0.1)
        first, _ = run_prtr(config, recovery=retry)
        second, _ = run_prtr(config, recovery=retry)
        assert first.total_time == second.total_time
        assert first.records == second.records

    def test_different_seed_different_realization(self):
        a, na = run_prtr(
            FaultConfig(chunk_abort_rate=0.02, seed=1),
            recovery=RecoveryPolicy(max_attempts=10, backoff=1e-3, cap=0.1),
        )
        b, nb = run_prtr(
            FaultConfig(chunk_abort_rate=0.02, seed=2),
            recovery=RecoveryPolicy(max_attempts=10, backoff=1e-3, cap=0.1),
        )
        assert (
            na.fault_injector.stats.as_dict()
            != nb.fault_injector.stats.as_dict()
            or a.records != b.records
        )


class TestRetryPolicy:
    def test_chunk_aborts_recovered_by_retry(self):
        result, node = run_prtr(
            FaultConfig(chunk_abort_rate=0.01, seed=7),
            recovery=RecoveryPolicy(max_attempts=8, backoff=1e-3, cap=0.1),
        )
        assert node.fault_injector.stats.chunk_aborts > 0
        assert node.icap.write_aborts > 0
        assert result.n_retries > 0
        assert result.n_failed == 0 and not result.degraded
        assert result.recovery_time > 0.0

    def test_no_policy_is_fail_fast(self):
        with pytest.raises(WriteAbort):
            run_prtr(FaultConfig(chunk_abort_rate=0.9, seed=0))


class TestRefetchPolicy:
    def test_corrupted_server_fetch_refetches(self):
        sim = Simulator()
        from repro.hardware.node import XD1Node

        node = XD1Node(sim)
        server = BandwidthChannel(
            sim, name="server", rate=2e9,
            injector=FaultInjector(FaultConfig(transfer_ber=1e-6, seed=5)),
        )
        result = PrtrExecutor(
            node, force_miss=True, bitstream_source=server,
            recovery=RecoveryPolicy(
                10, backoff=1e-3, cap=0.1, refetch=True
            ),
        ).run(make_trace())
        assert server.corrupted_count > 0
        assert result.n_refetches > 0
        assert result.n_failed == 0


class TestFallbackPolicy:
    def test_partial_falls_back_to_full(self):
        result, node = run_prtr(
            FaultConfig(chunk_abort_rate=0.9, seed=7),
            recovery=FallbackPolicy(max_attempts=2),
        )
        assert result.n_fallbacks > 0
        assert result.n_failed == 0 and not result.degraded
        fallbacks = [r for r in result.records if r.fallback_full]
        # A fallback call paid (roughly) the full configuration time.
        t_full = node.full_config_time()
        assert all(r.config_time >= t_full for r in fallbacks)
        # The pipeline stalls: fallback runs give up PRTR's advantage.
        fault_free, _ = run_prtr()
        assert result.total_time > fault_free.total_time

    def test_fallback_wipes_other_prrs(self):
        # After a fallback-full, only the configured module is resident,
        # so the *next* distinct call must miss again.
        result, _ = run_prtr(
            FaultConfig(chunk_abort_rate=0.9, seed=7),
            recovery=FallbackPolicy(max_attempts=2),
        )
        for r in result.records:
            assert not r.hit  # force_miss trace: nothing may hit


class TestDegradePolicy:
    def test_degrade_abandons_remaining_trace(self):
        result, _ = run_prtr(
            FaultConfig(chunk_abort_rate=0.95, seed=7),
            recovery=RecoveryPolicy(
                2, backoff=1e-3, cap=0.1, exhausted="degrade"
            ),
        )
        assert result.degraded
        assert result.n_failed == 1
        assert result.records[-1].failed
        assert result.degraded_at == result.records[-1].index
        assert len(result.records) < len(make_trace())

    def test_mid_run_degrade_passes_strict_audit(self, strict):
        # The failed record carries the seconds its configuration took,
        # so its recovery is contained in them.
        result, _ = run_prtr(
            FaultConfig(chunk_abort_rate=0.95, seed=7),
            recovery=RecoveryPolicy(
                2, backoff=1e-3, cap=0.1, exhausted="degrade"
            ),
        )
        failed = result.records[-1]
        assert result.degraded and result.degraded_at > 0
        assert failed.recovery_time > 0.0
        assert failed.config_time >= failed.recovery_time
        assert result.notes["invariant_violations"] == 0.0

    def test_startup_degrade_counts_recovery_once(self):
        # At seed 0 both startup attempts abort, so the run degrades
        # at call 0; only the startup notes carry its retries and
        # recovery.
        result, _ = run_prtr(
            FaultConfig(port_abort_rate=0.9, seed=0),
            recovery=RecoveryPolicy(
                2, backoff=1e-3, cap=0.1, exhausted="degrade"
            ),
        )
        assert result.degraded_at == 0 and result.n_failed == 1
        startup = result.notes["startup_recovery_time"]
        assert startup > 0.0
        assert result.recovery_time == startup
        assert result.n_retries == 0
        assert result.notes["startup_retries"] == 2.0
        assert 0.0 <= availability(result) <= 1.0
        assert result.notes["invariant_violations"] == 0.0

    def test_frtr_degrade(self):
        trace = make_trace()
        node = make_node(
            fault_injector=FaultInjector(
                FaultConfig(port_abort_rate=0.6, seed=1)
            )
        )
        result = FrtrExecutor(
            node,
            recovery=RecoveryPolicy(
                2, backoff=1e-3, cap=0.1, exhausted="degrade"
            ),
        ).run(trace)
        assert result.degraded
        assert result.records[-1].failed


class TestFrtrRecovery:
    def test_port_aborts_recovered(self):
        trace = make_trace()
        node = make_node(
            fault_injector=FaultInjector(
                FaultConfig(port_abort_rate=0.3, seed=3)
            )
        )
        result = FrtrExecutor(
            node, recovery=RecoveryPolicy(10, backoff=1e-3, cap=0.1)
        ).run(trace)
        assert node.selectmap.write_aborts > 0
        assert result.n_retries > 0
        assert not result.degraded
        # Recovery costs real time against the fault-free baseline.
        base = FrtrExecutor(make_node()).run(trace)
        assert result.total_time > base.total_time


class TestIcapCrcPath:
    def test_corrupted_chunks_are_retransmitted(self):
        result, node = run_prtr(
            FaultConfig(transfer_ber=3e-6, seed=4),
            recovery=RecoveryPolicy(max_attempts=6, backoff=1e-3, cap=0.1),
        )
        assert node.fault_injector.stats.transfers_corrupted > 0
        assert node.icap.chunk_retransmits > 0
        assert node.icap.silent_corruptions == 0
        assert result.n_failed == 0

    def test_zero_coverage_means_silent_corruption(self):
        injector = FaultInjector(FaultConfig(transfer_ber=3e-6, seed=4))
        node = make_node(
            fault_injector=injector, crc=CrcChecker(coverage=0.0)
        )
        result = PrtrExecutor(node, force_miss=True).run(make_trace())
        assert node.icap.silent_corruptions > 0
        assert node.icap.chunk_retransmits == 0
        assert result.n_retries == 0  # nothing detected, nothing recovered


class TestFoldedFaultyCells:
    """Fault-grid cells: the folded ICAP stream against the per-chunk one."""

    @staticmethod
    def _runs(spec, trace):
        """Both runs, and every metric but the kernel event count."""
        with obsm.observed() as registry:
            frtr, prtr = simulate(spec, trace)
            metrics = registry.snapshot()
        del metrics["repro_run_events"]
        return metrics, [
            (r.total_time, r.records, r.notes, r.timeline.spans)
            for r in (frtr, prtr)
        ]

    def test_every_default_cell_matches_per_chunk(self, monkeypatch):
        cells = [
            (fault_cell_spec(rate), trace_with_hit_ratio(h, 30, 0.1))
            for rate in DEFAULT_FAULT_RATES
            for h in (0.0, 0.5, 0.9)
        ]
        folded = [self._runs(spec, trace) for spec, trace in cells]
        monkeypatch.setattr(IcapController, "_can_fold", lambda self: False)
        reference = [self._runs(spec, trace) for spec, trace in cells]
        assert len(folded) == 24
        assert folded == reference


class TestWriteAbortMetric:
    """``repro_icap_write_aborts_total`` counts every ICAP write abort."""

    @pytest.mark.parametrize("estimated", [False, True])
    def test_metric_equals_controller_count(self, estimated):
        spec = fault_cell_spec(0.1)
        node = make_node(fault_injector=FaultInjector(spec.faults))
        with obsm.observed() as registry:
            PrtrExecutor(
                node, estimated=estimated, recovery=spec.recovery
            ).run(trace_with_hit_ratio(0.0, 30, 0.1))
            counted = registry.counter("repro_icap_write_aborts_total")
        assert node.icap.write_aborts > 0
        assert counted.value() == node.icap.write_aborts
