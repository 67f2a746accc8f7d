"""Cluster under faults: storm survival and graceful degradation."""

from __future__ import annotations

import pytest

from repro.faults import FaultConfig, RecoveryPolicy
from repro.rtr.cluster import run_cluster
from repro.workloads import CallTrace, HardwareTask


def blade_traces(n_blades: int = 4, n_calls: int = 12) -> list[CallTrace]:
    lib = {n: HardwareTask(n, 0.05) for n in ("a", "b", "c")}
    names = ("a", "b", "c") * (n_calls // 3)
    return [
        CallTrace([lib[n] for n in names], name=f"blade{i}")
        for i in range(n_blades)
    ]


class TestZeroRateCluster:
    @pytest.mark.parametrize("mode", ["frtr", "prtr"])
    def test_inert_config_matches_no_config(self, mode):
        base = run_cluster(blade_traces(), mode=mode)
        inert = run_cluster(
            blade_traces(), mode=mode,
            fault_config=FaultConfig(seed=5),
            recovery=RecoveryPolicy(backoff=1e-3, cap=0.1),
        )
        assert inert.makespan == base.makespan
        assert inert.server_bytes == base.server_bytes
        assert inert.server_busy_time == base.server_busy_time
        for b_inert, b_base in zip(inert.blades, base.blades):
            assert b_inert.records == b_base.records
        assert not inert.degraded and not inert.redistributed


class TestClusterUnderFaults:
    def test_e2e_prtr_storm_with_retries(self):
        result = run_cluster(
            blade_traces(), mode="prtr", force_miss=True,
            fault_config=FaultConfig(chunk_abort_rate=0.005, seed=0),
            recovery=RecoveryPolicy(max_attempts=8, backoff=1e-3, cap=0.1),
        )
        assert sum(b.n_retries for b in result.blades) > 0
        assert not result.degraded
        assert result.completed_calls == result.total_calls
        assert all(b.n_failed == 0 for b in result.blades)

    def test_same_seed_reproduces_cluster_run(self):
        def go():
            return run_cluster(
                blade_traces(), mode="prtr", force_miss=True,
                fault_config=FaultConfig(chunk_abort_rate=0.005, seed=0),
                recovery=RecoveryPolicy(max_attempts=8, backoff=1e-3, cap=0.1),
            )

        a, b = go(), go()
        assert a.makespan == b.makespan
        for x, y in zip(a.blades, b.blades):
            assert x.records == y.records


class TestGracefulDegradation:
    CONFIG = FaultConfig(port_abort_rate=0.12, seed=0)

    def test_degraded_blade_work_is_redistributed(self):
        result = run_cluster(
            blade_traces(), mode="frtr",
            fault_config=self.CONFIG,
            recovery=RecoveryPolicy(
                2, backoff=1e-3, cap=0.1, exhausted="degrade"
            ),
        )
        assert result.degraded  # at least one blade went down
        assert result.redistributed  # ...and its tail found a new home
        survivors = set(range(result.n_blades)) - set(result.degraded)
        assert survivors  # someone was left to absorb the work
        # Every workload call still ran somewhere.  (total_calls only
        # counts recorded calls — degraded blades stop recording — so
        # compare against the submitted workload size.)
        workload = sum(len(t) for t in blade_traces())
        assert result.completed_calls == workload
        assert result.notes["n_degraded"] == len(result.degraded)
        assert result.notes["redistributed_calls"] == sum(
            w.n_calls for w in result.redistributed
        )

    def test_without_redistribution_work_is_lost(self):
        result = run_cluster(
            blade_traces(), mode="frtr",
            fault_config=self.CONFIG,
            recovery=RecoveryPolicy(
                2, backoff=1e-3, cap=0.1, exhausted="degrade"
            ),
            redistribute=False,
        )
        assert result.degraded
        assert not result.redistributed
        assert result.completed_calls < sum(len(t) for t in blade_traces())
        assert result.notes["abandoned_calls"] > 0
