"""Scheduler tests: node cell, tenant start, determinism, overload, faults."""

from __future__ import annotations

import pytest

from repro.chaos import build_scenario
from repro.faults import FallbackPolicy
from repro.faults.injector import FaultConfig
from repro.hardware import uniform_prr_floorplan
from repro.obs import metrics as obsm
from repro.rtr.runner import CellSpec
from repro.runtime.invariants import audit_service
from repro.service import (
    ServiceConfig,
    ServiceExecutor,
    TaskMix,
    TenantSpec,
    default_tenants,
    run_service,
)
from repro.service.fabric import PrrFabric
from repro.service.slo import report_json, slo_report
from repro.service.tenants import tenant_from_dict
from repro.sim.trace import Phase
from repro.workloads.task import CallTrace, HardwareTask

LIB = {
    "median": HardwareTask("median", 0.05),
    "sobel": HardwareTask("sobel", 0.08),
    "smoothing": HardwareTask("smoothing", 0.03),
}
SEQ = [
    "median", "sobel", "smoothing", "median", "smoothing", "sobel",
    "median", "median", "sobel", "smoothing", "smoothing", "median",
]
MIX = (
    TaskMix("median", 0.05, 2.0),
    TaskMix("sobel", 0.05, 1.0),
    TaskMix("smoothing", 0.05, 1.0),
)


#: chunk aborts under ``icap-flap``: configurations retry, and the
#: ``icap0`` breaker refuses some attempts
BREAKER_RUN = ServiceConfig(
    horizon=5.0,
    prrs=4,
    fault=FaultConfig(chunk_abort_rate=0.1, seed=3),
    chaos=build_scenario("icap-flap", seed=1, horizon=5.0, prrs=4, blades=2),
)


def closed_tenant(name="app", **kw):
    return TenantSpec(
        name=name, arrival="closed",
        trace=CallTrace([LIB[n] for n in SEQ], name=name), **kw,
    )


def closed_loop_config(**kw):
    return ServiceConfig(
        horizon=10.0, admission=False, preemption=False, **kw
    )


class TestServiceCell:
    """An optional :class:`CellSpec` sets the node; nothing is ignored."""

    @pytest.mark.parametrize(
        "cell,config",
        [
            (CellSpec(faults=FaultConfig(chunk_abort_rate=0.1)),
             ServiceConfig()),
            (CellSpec(recovery=FallbackPolicy()), ServiceConfig()),
            (CellSpec(force_miss=True), ServiceConfig()),
            (CellSpec(), ServiceConfig(prrs=3)),
        ],
        ids=["faults", "recovery", "force_miss", "prrs"],
    )
    def test_unused_fields_rejected(self, cell, config):
        with pytest.raises(ValueError, match="service cell"):
            ServiceExecutor([closed_tenant()], config, cell=cell)

    def test_cell_sets_node_and_timing(self):
        cell = CellSpec(
            floorplan=uniform_prr_floorplan(3, 12), estimated=True,
            control_time=0.0, bitstream_bytes=1 << 16,
        )
        ex = ServiceExecutor(
            [closed_tenant()], closed_loop_config(), cell=cell
        )
        assert ex.node.floorplan.n_prrs == 3
        assert ex.control_time == 0.0
        result = ex.run()
        assert result.notes["t_config_full"] == (
            ex.node.full_config_time(estimated=True)
        )
        assert ex.node.icap.configurations == 0  # wire-only partials
        assert result.fills == 3


class TestTenantStart:
    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start must be >= 0"):
            closed_tenant(start=-1.0)

    def test_open_tenant_start_rejected(self):
        with pytest.raises(ValueError, match="starts at boot"):
            TenantSpec(name="t", tasks=MIX, start=1.0)
        assert TenantSpec(name="t", tasks=MIX, start=0.0).start == 0.0

    def test_from_dict_and_as_dict(self):
        tenant = tenant_from_dict(
            {"name": "late", "arrival": "closed",
             "trace": [["median", 0.05]], "start": 2.5}
        )
        assert tenant.start == 2.5
        assert tenant.as_dict()["start"] == 2.5
        # At 0 the key is omitted, so journal meta keeps its bytes.
        assert "start" not in closed_tenant().as_dict()

    def test_closed_tenant_waits_for_start(self):
        on_time = run_service([closed_tenant()], closed_loop_config())
        late = run_service([closed_tenant(start=3.0)], closed_loop_config())
        assert late.makespan == pytest.approx(on_time.makespan + 3.0)
        first = min(
            s.start for s in late.timeline if s.phase == Phase.TASK
        )
        assert first >= late.notes["t_config_full"] + 3.0


class TestHorizon:
    """The horizon stops open arrivals; admitted work drains past it."""

    def test_open_tenant_drains_past_the_horizon(self):
        tenant = TenantSpec(
            name="open", rate=200.0, tasks=(TaskMix("median", 0.01),)
        )
        result = run_service([tenant], ServiceConfig(horizon=1.0), seed=1)
        stats = result.tenants[0]
        boot = result.notes["t_config_full"]
        assert result.interrupted is None
        assert result.makespan == pytest.approx(3.3257067850018047)
        assert stats.in_flight == 0
        assert stats.completed + stats.shed_total == stats.arrived
        # Grants go on after the horizon: a task starts past it.
        last_start = max(
            s.start for s in result.timeline if s.phase == Phase.TASK
        )
        assert last_start > boot + 1.0

    def test_closed_tenant_ignores_the_horizon(self):
        tenant = TenantSpec(
            name="closed", arrival="closed",
            trace=CallTrace([HardwareTask("median", 0.5)] * 10, name="c"),
        )
        result = run_service([tenant], ServiceConfig(horizon=1.0), seed=1)
        stats = result.tenants[0]
        assert result.interrupted is None
        assert stats.completed == 10 and stats.in_flight == 0
        assert result.makespan == pytest.approx(6.697999333435635)


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        def report(seed):
            from repro.service import default_tenants

            return report_json(slo_report(run_service(
                default_tenants(), ServiceConfig(horizon=4.0), seed=seed
            )))

        assert report(3) == report(3)
        assert report(3) != report(4)


class TestOverloadDegradation:
    """The acceptance scenario: 2x offered load, one blade degraded."""

    @pytest.fixture(scope="class")
    def result(self):
        tenants = [
            TenantSpec(name="gold", priority=2, arrival="poisson",
                       rate=15.0, tasks=MIX, slo_latency=0.5),
            TenantSpec(name="silver", priority=1, arrival="poisson",
                       rate=25.0, tasks=MIX, slo_latency=1.0,
                       queue_capacity=48),
            TenantSpec(name="bronze", priority=0, arrival="poisson",
                       rate=40.0, tasks=MIX, slo_latency=2.0,
                       queue_capacity=32),
        ]
        # Dual-PRR capacity ~ 2/0.05 = 40 req/s; offered 80 req/s = 2x.
        # One blade degrades 5 s in, halving capacity again.
        return run_service(
            tenants,
            ServiceConfig(horizon=20.0, degrade_at=((5.0, 1),),
                          overload_backlog=32),
            seed=7,
        )

    def test_terminates_without_deadlock(self, result):
        assert result.interrupted is None
        assert result.retired == [1]

    def test_accounting_invariant_holds(self, result):
        assert audit_service(result).ok

    def test_sheds_lowest_priority_first(self, result):
        gold, silver, bronze = result.tenants
        assert gold.shed_total <= silver.shed_total <= bronze.shed_total
        assert bronze.shed_total > 0
        # The highest priority tenant keeps (nearly) full service.
        assert gold.completed >= 0.95 * gold.arrived

    def test_degraded_capacity_still_serves(self, result):
        assert result.total_completed > 0
        assert all(t.in_flight == 0 for t in result.tenants)


class TestPreemption:
    def test_high_priority_preempts_long_low_task(self):
        long_trace = CallTrace(
            [HardwareTask("bulk", 2.0)] * 2, name="bulk"
        )
        tenants = [
            TenantSpec(name="batch", priority=0, arrival="closed",
                       trace=long_trace),
            TenantSpec(name="urgent", priority=2, arrival="poisson",
                       rate=4.0, tasks=(TaskMix("fast", 0.02),),
                       slo_latency=0.3),
        ]
        config = ServiceConfig(
            horizon=4.0, prrs=1, quantum=0.05,
            checkpoint_cost=0.002, restore_cost=0.002,
        )
        result = run_service(tenants, config, seed=5)
        batch, urgent = result.tenants
        assert batch.preemptions > 0
        assert batch.completed == 2  # preempted work still finishes
        assert urgent.completed > 0
        assert audit_service(result).ok

    def test_preemption_off_runs_to_completion(self):
        tenants = [
            TenantSpec(name="batch", priority=0, arrival="closed",
                       trace=CallTrace([HardwareTask("bulk", 1.0)],
                                       name="bulk")),
            TenantSpec(name="urgent", priority=2, arrival="poisson",
                       rate=3.0, tasks=(TaskMix("fast", 0.02),)),
        ]
        result = run_service(
            tenants,
            ServiceConfig(horizon=2.0, prrs=1, preemption=False),
            seed=5,
        )
        assert result.tenants[0].preemptions == 0
        assert audit_service(result).ok


class TestFaultShedding:
    def test_repeated_config_faults_shed_not_wedge(self):
        tenants = [
            TenantSpec(name="t", priority=0, arrival="poisson",
                       rate=10.0, tasks=MIX),
        ]
        config = ServiceConfig(
            horizon=5.0,
            fault=FaultConfig(chunk_abort_rate=0.4, seed=9),
            max_config_attempts=2,
        )
        result = run_service(tenants, config, seed=9)
        assert result.interrupted is None
        assert audit_service(result).ok
        # With a 40% per-chunk abort rate some request exhausts its
        # attempts and is shed with reason "fault".
        assert result.tenants[0].shed.get("fault", 0) > 0

    def test_recovery_policy_counts_every_give_up(self):
        """Each request shed for ``fault`` is one counted give-up.

        Chunk aborts under ``icap-flap``: the configuration breaker's
        refusals and the real faults both retry under the service's
        recovery policy, so both are counted as its actions.
        """
        with obsm.observed():
            result = run_service(default_tenants(), BREAKER_RUN, seed=1)
            actions = obsm.snapshot()["repro_recovery_actions_total"]
        shed = sum(t.shed.get("fault", 0) for t in result.tenants)
        assert shed > 0
        assert actions["series"]["action=giveup"] == shed
        assert actions["series"]["action=retry"] > 0

    def test_each_slice_counts_one_cache_lookup(self, monkeypatch):
        """A retried configuration does not count its lookup again.

        Each granted slice that reaches the fabric counts one hit or
        miss, however often its configuration is retried.
        """
        slices: dict[str, int] = {}
        reached: set[tuple[str, int]] = set()
        calls = []
        run_granted = ServiceExecutor._run_granted
        ensure_resident = PrrFabric.ensure_resident

        def granted(self, req):
            owner = f"{req.tenant}#{req.seq}"
            slices[owner] = slices.get(owner, 0) + 1
            return run_granted(self, req)

        def resident(self, module, owner):
            calls.append(owner)
            reached.add((owner, slices[owner]))
            return ensure_resident(self, module, owner)

        monkeypatch.setattr(ServiceExecutor, "_run_granted", granted)
        monkeypatch.setattr(PrrFabric, "ensure_resident", resident)
        result = run_service(default_tenants(), BREAKER_RUN, seed=1)
        # The run retries: some slices reach the fabric more than once.
        assert len(calls) > len(reached)
        assert result.cache_hits + result.cache_misses == len(reached)


class TestFullRetirement:
    def test_retiring_every_slot_terminates_and_audits_dirty(self):
        tenants = [
            TenantSpec(name="t", priority=0, arrival="poisson",
                       rate=20.0, tasks=MIX),
        ]
        config = ServiceConfig(
            horizon=5.0, degrade_at=((1.0, 0), (1.0, 1)),
        )
        result = run_service(tenants, config, seed=2)
        # No deadlock: the run drains even with zero capacity left...
        assert result.retired == [0, 1]
        assert result.tenants[0].in_flight > 0
        # ...and the stranded in-flight work is flagged by the audit.
        report = audit_service(result)
        assert not report.ok
        assert any(
            v.invariant == "service-accounting"
            for v in report.violations
        )
