"""Unit tests for :mod:`repro.runtime.invariants`."""

from __future__ import annotations

import pytest

from repro.analysis.reliability import FaultSweepPoint
from repro.rtr import FrtrExecutor, make_node
from repro.rtr.cluster import run_cluster
from repro.rtr.events import CallRecord, RunResult
from repro.rtr.runner import compare
from repro.runtime.invariants import (
    INVARIANTS,
    AuditReport,
    InvariantError,
    Violation,
    audit_and_record,
    audit_comparison,
    audit_run,
    audit_sweep_points,
    set_strict,
    strict_enabled,
)
from repro.sim.trace import Timeline
from repro.workloads import CallTrace, HardwareTask


def trace_of(n: int, task_time: float = 0.1) -> CallTrace:
    lib = [HardwareTask(f"m{i % 3}", task_time) for i in range(3)]
    return CallTrace([lib[i % 3] for i in range(n)], name="inv")


def rec(
    i: int,
    start: float,
    end: float,
    *,
    hit: bool = False,
    config: float | None = None,
    recovery: float = 0.0,
    failed: bool = False,
) -> CallRecord:
    if config is None:
        config = 0.0 if hit else end - start
    return CallRecord(
        index=i, task=f"m{i}", hit=hit, start=start, end=end,
        config_time=config, recovery_time=recovery, failed=failed,
    )


def result_of(
    records: list[CallRecord],
    *,
    total: float | None = None,
    startup: float = 0.0,
    **kwargs,
) -> RunResult:
    if total is None:
        total = startup + (
            records[-1].end - records[0].start if records else 0.0
        )
    return RunResult(
        mode="frtr", trace_name="hand", total_time=total,
        records=records, timeline=Timeline(), startup_time=startup,
        **kwargs,
    )


class TestAuditRun:
    def test_real_run_is_clean(self):
        result = FrtrExecutor(make_node()).run(trace_of(6))
        assert result.notes["invariant_violations"] == 0.0
        report = audit_run(result)
        assert report.ok
        assert "makespan-accounting" in report.checked

    def test_out_of_order_records(self):
        records = [rec(0, 2.0, 3.0), rec(1, 0.0, 1.0)]
        report = audit_run(result_of(records, total=3.0))
        assert any(
            v.invariant == "clock-monotonic" for v in report.violations
        )

    def test_makespan_mismatch(self):
        records = [rec(0, 0.0, 1.0), rec(1, 1.0, 2.0)]
        report = audit_run(result_of(records, total=5.0))
        assert [v.invariant for v in report.violations] == [
            "makespan-accounting"
        ]

    def test_startup_included_in_makespan(self):
        records = [rec(0, 0.5, 1.5)]
        report = audit_run(result_of(records, total=1.5, startup=0.5))
        assert report.ok

    def test_hit_with_config_time_breaks_accounting(self):
        records = [rec(0, 0.0, 1.0), rec(1, 1.0, 2.0, hit=True, config=0.3)]
        report = audit_run(result_of(records))
        assert any(
            v.invariant == "call-accounting" for v in report.violations
        )

    def test_duplicate_indices_break_accounting(self):
        records = [rec(0, 0.0, 1.0), rec(0, 1.0, 2.0)]
        report = audit_run(result_of(records))
        assert any(
            v.invariant == "call-accounting" for v in report.violations
        )

    def test_recovery_must_fit_inside_config(self):
        records = [rec(0, 0.0, 1.0, config=0.2, recovery=0.9)]
        report = audit_run(result_of(records))
        assert any(
            v.invariant == "recovery-containment" for v in report.violations
        )

    def test_interrupted_run_skips_makespan(self):
        partial = result_of(
            [rec(0, 0.0, 1.0)],
            total=0.0,  # wrong on purpose: partial results may not add up
            interrupted=True,
            interrupt_reason="deadline",
        )
        report = audit_run(partial)
        assert report.ok
        assert "makespan-accounting" not in report.checked

    def test_empty_interrupted_run_is_fine(self):
        report = audit_run(result_of([], total=0.0, interrupted=True))
        assert report.ok

    def test_degraded_run_must_end_failed(self):
        records = [rec(0, 0.0, 1.0), rec(1, 1.0, 2.0)]
        broken = result_of(records)
        broken.notes["degraded"] = 1.0
        broken.notes["degraded_at"] = 1.0
        report = audit_run(broken)
        assert any(
            v.invariant == "degradation-consistency"
            for v in report.violations
        )


class TestStrictMode:
    def test_set_strict_round_trips(self):
        assert not strict_enabled()
        previous = set_strict(True)
        try:
            assert previous is False
            assert strict_enabled()
        finally:
            set_strict(previous)
        assert not strict_enabled()

    def test_audit_and_record_default_records(self):
        broken = result_of([rec(0, 0.0, 1.0)], total=9.0)
        report = audit_and_record(broken)
        assert not report.ok
        assert broken.notes["invariant_violations"] == 1.0

    def test_audit_and_record_strict_raises(self):
        broken = result_of([rec(0, 0.0, 1.0)], total=9.0)
        with pytest.raises(InvariantError, match="makespan"):
            audit_and_record(broken, strict=True)

    def test_global_strict_arms_executor_audits(self):
        previous = set_strict(True)
        try:
            # A healthy run must not raise even in strict mode.
            result = FrtrExecutor(make_node()).run(trace_of(4))
        finally:
            set_strict(previous)
        assert result.notes["invariant_violations"] == 0.0

    def test_error_message_truncates_after_three(self):
        violations = [Violation(f"inv-{i}", f"v{i}") for i in range(5)]
        err = InvariantError(violations)
        assert "+2 more" in str(err)
        assert "5 invariant violation(s)" in str(err)


class TestAuditReport:
    def test_merge_dedupes_checked_names(self):
        a = AuditReport(checked=["x"], violations=[Violation("x", "bad")])
        b = AuditReport(checked=["x", "y"])
        a.merge(b)
        assert a.checked == ["x", "y"]
        assert len(a.violations) == 1

    def test_as_dict_and_summary(self):
        report = AuditReport(checked=["x"], violations=[])
        d = report.as_dict()
        assert d == {"checked": ["x"], "ok": True, "violations": []}
        assert "1 checked" in report.summary_line()
        assert "OK" in report.summary_line()

    def test_catalog_covers_emitted_names(self):
        # Every invariant name the auditors can emit is documented.
        for name in (
            "clock-monotonic", "makespan-accounting", "call-accounting",
            "recovery-containment", "degradation-consistency",
            "speedup-bound-supremum", "speedup-bound-2x",
            "sweep-consistency", "call-conservation", "server-accounting",
            "metrics-conservation",
        ):
            assert name in INVARIANTS
            assert INVARIANTS[name]


def sweep_point(**overrides) -> FaultSweepPoint:
    base = dict(
        fault_rate=0.0, target_hit_ratio=0.0, hit_ratio=0.0,
        frtr_time=10.0, prtr_time=2.0, speedup=5.0,
        prtr_retries=0, prtr_fallbacks=0, prtr_degraded=False,
        mttr=0.0, availability=1.0,
    )
    base.update(overrides)
    return FaultSweepPoint(**base)


class TestSweepAndBounds:
    def test_consistent_points_pass(self):
        report = audit_sweep_points([sweep_point()])
        assert report.ok

    def test_speedup_inconsistency_flagged(self):
        report = audit_sweep_points([sweep_point(speedup=9.0)])
        assert any(
            v.invariant == "sweep-consistency" for v in report.violations
        )

    def test_supremum_bound_violation(self):
        # (1+X)/X with X=0.1 caps the H=0 speedup at 11.
        p = sweep_point(
            frtr_time=40.0, prtr_time=2.0, speedup=20.0, x_prtr=0.1,
        )
        report = audit_sweep_points([p])
        assert any(
            v.invariant == "speedup-bound-supremum"
            for v in report.violations
        )

    def test_large_task_bound_violation(self):
        # X_task >= 1 caps the speedup at 1 + 1/X_task <= 2.
        p = sweep_point(
            frtr_time=5.0, prtr_time=2.0, speedup=2.5,
            x_prtr=0.1, x_task=2.0,
        )
        report = audit_sweep_points([p])
        assert any(
            v.invariant == "speedup-bound-2x" for v in report.violations
        )

    def test_nan_ratios_skip_bound_checks(self):
        report = audit_sweep_points([sweep_point(speedup=5.0)])
        assert "speedup-bound-supremum" not in report.checked

    def test_real_comparison_respects_bounds(self):
        pair = compare(trace_of(12))
        report = audit_comparison(pair.frtr, pair.prtr)
        assert report.ok
        assert "speedup-bound-supremum" in report.checked
        assert pair.prtr.notes["pair_invariant_violations"] == 0.0


class TestClusterAudit:
    def test_cluster_run_is_audited(self):
        result = run_cluster([trace_of(4), trace_of(4)], mode="prtr")
        assert result.notes["invariant_violations"] == 0.0
