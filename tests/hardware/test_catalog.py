"""Unit tests for :mod:`repro.hardware.catalog`."""

from __future__ import annotations

import dataclasses

import pytest

from repro.hardware import (
    MB,
    MS,
    PUBLISHED_TABLE2,
    FpgaDevice,
    NodeParameters,
    XC2VP50,
    XD1_NODE,
)


class TestXC2VP50:
    def test_published_resource_totals(self):
        """The totals that make Table 1's floor-percentages come out."""
        assert XC2VP50.luts == 47_232
        assert XC2VP50.ffs == 47_232
        assert XC2VP50.brams == 232
        assert XC2VP50.slices == 23_616
        assert XC2VP50.ppc_cores == 2

    def test_full_bitstream_is_published_size(self):
        assert XC2VP50.full_bitstream_bytes == 2_381_764

    def test_column_bytes_consistency(self):
        total = (
            XC2VP50.bitstream_overhead_bytes
            + XC2VP50.clb_columns * XC2VP50.column_bytes
        )
        assert total == pytest.approx(XC2VP50.full_bitstream_bytes)

    def test_partial_bitstream_monotone_in_columns(self):
        sizes = [
            XC2VP50.partial_bitstream_bytes(c)
            for c in range(1, XC2VP50.clb_columns + 1)
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] == pytest.approx(
            XC2VP50.full_bitstream_bytes, rel=1e-6
        )

    def test_partial_bitstream_bounds(self):
        with pytest.raises(ValueError):
            XC2VP50.partial_bitstream_bytes(0)
        with pytest.raises(ValueError):
            XC2VP50.partial_bitstream_bytes(XC2VP50.clb_columns + 1)

    def test_utilization_pct_floor_semantics(self):
        # 5503/47232 = 11.65% -> the paper prints 11.
        assert XC2VP50.utilization_pct(5503, 47232) == 11
        assert XC2VP50.utilization_pct(418, 47232) == 0
        assert XC2VP50.utilization_pct(25, 232) == 10

    def test_utilization_pct_validation(self):
        with pytest.raises(ValueError):
            XC2VP50.utilization_pct(1, 0)
        with pytest.raises(ValueError):
            XC2VP50.utilization_pct(-1, 10)

    def test_invalid_device_construction(self):
        base = dataclasses.asdict(XC2VP50)
        bad = dict(base, luts=0)
        with pytest.raises(ValueError):
            FpgaDevice(**bad)
        bad = dict(base, bitstream_overhead_bytes=base["full_bitstream_bytes"])
        with pytest.raises(ValueError):
            FpgaDevice(**bad)
        bad = dict(base, clb_columns=0)
        with pytest.raises(ValueError):
            FpgaDevice(**bad)


class TestXD1Node:
    def test_published_bandwidths(self):
        assert XD1_NODE.io_bandwidth == pytest.approx(1400 * MB)
        assert XD1_NODE.link_raw_bandwidth == pytest.approx(1600 * MB)
        assert XD1_NODE.selectmap_bandwidth == pytest.approx(66 * MB)
        assert XD1_NODE.icap_bandwidth == pytest.approx(66 * MB)

    def test_control_time_is_10us(self):
        assert XD1_NODE.control_time == pytest.approx(10e-6)

    def test_invalid_parameters(self):
        base = dataclasses.asdict(XD1_NODE)
        with pytest.raises(ValueError):
            NodeParameters(**dict(base, io_bandwidth=0.0))
        with pytest.raises(ValueError):
            NodeParameters(**dict(base, link_raw_bandwidth=0.0))


class TestPublishedTable2:
    def test_all_layouts_present(self):
        assert set(PUBLISHED_TABLE2) == {"full", "single_prr", "dual_prr"}

    def test_published_values(self):
        full = PUBLISHED_TABLE2["full"]
        assert full.bitstream_bytes == 2_381_764
        assert full.estimated_time_s == pytest.approx(36.09 * MS)
        assert full.measured_time_s == pytest.approx(1678.04 * MS)
        dual = PUBLISHED_TABLE2["dual_prr"]
        assert dual.bitstream_bytes == 404_168
        assert dual.measured_x_prtr == pytest.approx(0.012)

    def test_estimated_times_match_66mbps(self):
        """The paper's estimated column is literally bytes / 66 MB/s."""
        for row in PUBLISHED_TABLE2.values():
            wire = row.bitstream_bytes / (66 * MB)
            assert wire == pytest.approx(row.estimated_time_s, rel=2e-3)

    def test_normalized_columns_consistent(self):
        """Published X_PRTR columns equal the time ratios (2 decimals)."""
        full = PUBLISHED_TABLE2["full"]
        for key in ("single_prr", "dual_prr"):
            row = PUBLISHED_TABLE2[key]
            est_ratio = row.estimated_time_s / full.estimated_time_s
            meas_ratio = row.measured_time_s / full.measured_time_s
            assert est_ratio == pytest.approx(row.estimated_x_prtr, abs=5e-3)
            assert meas_ratio == pytest.approx(row.measured_x_prtr, abs=5e-4)
