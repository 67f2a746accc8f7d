"""Unit tests for the Table 2 calibration (:mod:`repro.analysis.calibration`)."""

from __future__ import annotations

import pytest

from repro.analysis import (
    cross_validate,
    fit_icap_handshake,
    fit_vendor_api,
)
from repro.hardware import MB, MS, PUBLISHED_TABLE2, Table2Row
from repro.hardware.icap_controller import DEFAULT_ICAP_TIMINGS


class TestFitVendorApi:
    def test_closes_on_full_row(self):
        api = fit_vendor_api()
        row = PUBLISHED_TABLE2["full"]
        wire = row.bitstream_bytes / (66 * MB)
        assert wire + api.time(row.bitstream_bytes) == pytest.approx(
            row.measured_time_s, rel=1e-12
        )

    def test_rejects_impossible_measurement(self):
        fake = Table2Row(
            layout="fake", bitstream_bytes=1_000_000,
            estimated_time_s=0.015, measured_time_s=0.001,
            estimated_x_prtr=1.0, measured_x_prtr=1.0,
        )
        with pytest.raises(ValueError, match="below the wire time"):
            fit_vendor_api(fake)

    def test_overhead_dominates_wire(self):
        """The Cray API overhead is ~45x the raw transfer: the paper's
        central observation about why FRTR is so expensive in practice."""
        api = fit_vendor_api()
        row = PUBLISHED_TABLE2["full"]
        wire = row.bitstream_bytes / (66 * MB)
        assert api.time(row.bitstream_bytes) > 40 * wire


class TestFitIcapHandshake:
    def test_node_and_fit_share_one_solve(self):
        # The node's controller and the fit solve the single-PRR row
        # once, in hardware, from XD1_NODE's ICAP constants.
        handshake = DEFAULT_ICAP_TIMINGS.chunk_handshake
        assert handshake.hex() == "0x1.1e26c8e3945e4p-11"
        assert fit_icap_handshake().chunk_handshake.hex() == handshake.hex()

    def test_closes_on_single_prr_row(self):
        t = fit_icap_handshake()
        row = PUBLISHED_TABLE2["single_prr"]
        first = t.chunk_bytes / (1600 * MB)
        assert first + t.drain_time(row.bitstream_bytes) == pytest.approx(
            row.measured_time_s, rel=1e-12
        )

    def test_measured_time_is_the_fill_plus_drain(self):
        # One forward model for table2, the ablations, scaling and the
        # cross-check: the first chunk at the raw 1.6 GB/s link, then the
        # drain, bit for bit.
        t = fit_icap_handshake()
        for row in PUBLISHED_TABLE2.values():
            n = row.bitstream_bytes
            inline = min(t.chunk_bytes, n) / (1600 * MB) + t.drain_time(n)
            assert t.measured_time(n).hex() == inline.hex()

    def test_handshake_positive_and_sub_millisecond(self):
        t = fit_icap_handshake()
        assert 0.0 < t.chunk_handshake < 1 * MS

    def test_rejects_impossible_measurement(self):
        fake = Table2Row(
            layout="fake", bitstream_bytes=660_000,
            estimated_time_s=0.01, measured_time_s=0.005,
            estimated_x_prtr=0.1, measured_x_prtr=0.1,
        )
        with pytest.raises(ValueError, match="cannot explain"):
            fit_icap_handshake(fake)


class TestCrossValidation:
    def test_dual_prr_predicted_within_tenth_percent(self):
        """The headline calibration result: the dual-PRR measured time is
        an out-of-sample *prediction* accurate to ~0.05%."""
        checks = cross_validate()
        assert len(checks) == 1
        check = checks[0]
        assert check.layout == "Dual PRR"
        assert check.rel_error < 1e-3

    def test_prediction_direction(self):
        check = cross_validate()[0]
        assert check.predicted_s == pytest.approx(
            check.published_s, rel=1e-3
        )
