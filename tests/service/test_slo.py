"""SLO arithmetic tests: percentiles, fairness, canonical reports."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import ServiceConfig, default_tenants, run_service
from repro.service.scheduler import ServiceResult, TenantOutcome
from repro.service.slo import (
    jain_fairness,
    percentile,
    render_report,
    report_json,
    slo_report,
)
from repro.sim import Timeline, left_sum

floats = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestPercentile:
    def test_nearest_rank_basics(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(data, 50.0) == 3.0
        assert percentile(data, 100.0) == 5.0
        assert percentile(data, 0.0) == 1.0

    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 99.0))

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    @given(st.lists(floats, min_size=1, max_size=50),
           st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    def test_result_is_an_observed_value(self, values, q):
        assert percentile(values, q) in values

    @given(st.lists(floats, min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_q(self, values):
        assert (
            percentile(values, 50.0)
            <= percentile(values, 99.0)
            <= percentile(values, 99.9)
        )


class TestJainFairness:
    def test_even_allocation_is_one(self):
        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_empty_and_zero_are_fair(self):
        assert jain_fairness([]) == 1.0
        assert jain_fairness([0.0, 0.0]) == 1.0

    def test_maximally_skewed_is_one_over_n(self):
        assert jain_fairness([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    @given(st.lists(floats, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, values):
        j = jain_fairness(values)
        assert 1.0 / len(values) - 1e-9 <= j <= 1.0 + 1e-9

    @given(st.lists(floats, min_size=1, max_size=20),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=60, deadline=None)
    @example(values=[0.0, 4.124442888899144e-162], scale=0.25)
    def test_scale_invariant(self, values, scale):
        assert jain_fairness(values) == pytest.approx(
            jain_fairness([v * scale for v in values]), abs=1e-9
        )


class TestInterpreterStableSums:
    """Report floats are left folds: the same bits on Python 3.10-3.12."""

    def test_mean_latency_is_a_left_fold(self):
        tenant = TenantOutcome(
            "gold", priority=3, slo_latency=1.0, arrived=10, completed=10,
            latencies=[0.1] * 10,
        )
        result = ServiceResult(
            tenants=[tenant], makespan=1.0, horizon=1.0,
            timeline=Timeline(), fills=0, cache_hits=0, cache_misses=0,
            retired=[], decision_epochs={},
        )
        mean = slo_report(result)["tenants"]["gold"]["latency"]["mean"]
        # 3.12's compensated builtin sum would give 1.0 / 10.
        assert mean == float.fromhex("0x1.fffffffffffffp-1") / 10
        assert mean != 1.0 / 10

    def test_fairness_sums_are_left_folds(self):
        shares = [0.1] * 10
        total = float.fromhex("0x1.fffffffffffffp-1")
        squares = left_sum(v * v for v in shares)
        assert jain_fairness(shares) == total * total / (10 * squares)


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return slo_report(run_service(
            default_tenants(), ServiceConfig(horizon=3.0), seed=1
        ))

    def test_canonical_json_round_trips(self, report):
        text = report_json(report)
        again = json.loads(text)
        assert report_json(again) == text

    def test_violations_count_late_and_shed(self, report):
        for t in report["tenants"].values():
            late = t["slo_violations"] - t["shed_total"]
            assert 0 <= late <= t["completed"]
            if t["arrived"]:
                assert t["slo_violation_rate"] == pytest.approx(
                    t["slo_violations"] / t["arrived"]
                )

    def test_render_mentions_every_tenant(self, report):
        text = render_report(report)
        for name in report["tenants"]:
            assert name in text

    def test_empty_tenant_renders_dash(self):
        # A tenant whose every request is shed has no latency sample.
        report = {
            "makespan": 0.0, "horizon": 1.0, "interrupted": None,
            "fills": 0, "fairness_jain": 1.0, "retired_slots": [],
            "totals": {"arrived": 0, "completed": 0, "shed": 0,
                       "in_flight": 0},
            "tenants": {"ghost": {
                "priority": 0, "arrived": 0, "completed": 0,
                "shed": {}, "shed_total": 0, "in_flight": 0,
                "decisions": {}, "preemptions": 0, "configs": 0,
                "backlog_peak": 0,
                "latency": {"p50": math.nan, "p99": math.nan,
                            "p999": math.nan, "mean": math.nan,
                            "max": math.nan},
                "slo_latency": 1.0, "slo_violations": 0,
                "slo_violation_rate": 0.0, "shed_rate": 0.0,
            }},
        }
        assert "-" in render_report(report)


class TestZeroCompletionTenant:
    """A tenant that completes nothing must still yield strict JSON.

    Regression pins: empty-sample latency statistics used to serialize
    as the bare token ``NaN`` — not valid RFC 8259, so any strict JSON
    consumer choked on a report with a fully-shed tenant.
    """

    @pytest.fixture(scope="class")
    def report(self):
        # A power cap below one task's projected draw sheds every
        # arrival, so every tenant ends the run with zero completions.
        return slo_report(run_service(
            default_tenants(),
            ServiceConfig(horizon=3.0, power_cap_w=2.0),
            seed=1,
        ))

    def test_every_tenant_completed_nothing(self, report):
        assert all(
            t["completed"] == 0 for t in report["tenants"].values()
        )
        assert report["totals"]["shed"] == report["totals"]["arrived"] > 0
        assert all(
            t["shed"].get("power_cap") == t["arrived"]
            for t in report["tenants"].values()
        )

    def test_empty_samples_serialize_as_null(self, report):
        for t in report["tenants"].values():
            assert all(v is None for v in t["latency"].values())
        text = report_json(report)

        def _reject(token: str) -> None:
            raise AssertionError(f"non-RFC-8259 token in report: {token}")

        # Strict parse: NaN/Infinity tokens fail, null round-trips.
        again = json.loads(text, parse_constant=_reject)
        assert report_json(again) == text

    def test_nan_can_never_reach_the_wire(self):
        with pytest.raises(ValueError):
            report_json({"latency": math.nan})

    def test_none_renders_as_dash(self, report):
        text = render_report(report)
        for line in text.splitlines():
            if line.startswith(("gold", "silver", "bronze")):
                assert line.count("-") >= 3
