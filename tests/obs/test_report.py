"""Tests for the utilization rollups in :mod:`repro.obs.report`."""

from __future__ import annotations

import pytest

from repro.hardware.catalog import PUBLISHED_TABLE2
from repro.obs.report import (
    config_bandwidth_rows,
    hit_ratio_timeline,
    icap_occupancy,
    lane_utilization,
    published_bandwidth_rows,
    render_utilization,
)
from repro.rtr.frtr import FrtrExecutor
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import make_node
from repro.workloads.task import CallTrace, HardwareTask


def small_trace(n: int = 9) -> CallTrace:
    lib = [HardwareTask(name, 0.05) for name in ("a", "b", "c")]
    return CallTrace([lib[i % 3] for i in range(n)], name="small")


@pytest.fixture(scope="module")
def prtr_run():
    return PrtrExecutor(make_node()).run(small_trace())


class TestUtilization:
    def test_lane_fractions_bounded(self, prtr_run):
        util = lane_utilization(prtr_run)
        assert util
        for fraction in util.values():
            assert 0.0 <= fraction <= 1.0

    def test_icap_occupancy_positive_for_prtr(self, prtr_run):
        occupancy = icap_occupancy(prtr_run)
        assert 0.0 < occupancy < 1.0

    def test_icap_occupancy_zero_for_frtr(self):
        frtr = FrtrExecutor(make_node()).run(small_trace(3))
        assert icap_occupancy(frtr) == 0.0

    def test_empty_timeline(self):
        class Empty:
            from repro.sim.trace import Timeline
            timeline = Timeline()
            records: list = []

        assert lane_utilization(Empty()) == {}


class TestHitRatioTimeline:
    def test_final_point_matches_hit_ratio(self, prtr_run):
        points = hit_ratio_timeline(prtr_run)
        assert len(points) == prtr_run.n_calls
        assert points[-1][1] == pytest.approx(prtr_run.hit_ratio)
        times = [t for t, _h in points]
        assert times == sorted(times)

    def test_cumulative_values_bounded(self, prtr_run):
        for _t, h in hit_ratio_timeline(prtr_run):
            assert 0.0 <= h <= 1.0


class TestBandwidthRows:
    def test_rows_cover_config_spans(self, prtr_run):
        rows = config_bandwidth_rows(prtr_run)
        kinds = {r["kind"] for r in rows}
        assert kinds == {"full", "partial"}
        for row in rows:
            assert row["mb_per_s"] > 0
            assert row["seconds"] > 0

    def test_default_bytes_are_published(self, prtr_run):
        rows = config_bandwidth_rows(prtr_run)
        partial = next(r for r in rows if r["kind"] == "partial")
        assert partial["bytes"] == PUBLISHED_TABLE2[
            "dual_prr"
        ].bitstream_bytes

    def test_explicit_bytes_override(self, prtr_run):
        rows = config_bandwidth_rows(
            prtr_run, partial_bytes=1000, full_bytes=2000
        )
        assert {r["bytes"] for r in rows} == {1000, 2000}

    def test_published_reference_rows(self):
        rows = published_bandwidth_rows()
        assert len(rows) == len(PUBLISHED_TABLE2)
        dual = next(r for r in rows if r["key"] == "dual_prr")
        # 404,168 bytes in 19.77 ms is ~20.4 MB/s
        assert dual["measured_mb_per_s"] == pytest.approx(20.44, abs=0.05)


class TestRenderUtilization:
    def test_mentions_the_headline_numbers(self, prtr_run):
        text = render_utilization(prtr_run)
        assert "ICAP occupancy" in text
        assert "hit-ratio timeline" in text
        assert "bandwidth histogram" in text
        assert "Dual PRR" in text

    def test_frtr_renders_without_icap(self):
        frtr = FrtrExecutor(make_node()).run(small_trace(3))
        text = render_utilization(frtr)
        assert "ICAP occupancy      : 0.0%" in text
