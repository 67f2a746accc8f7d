"""Unit tests for :mod:`repro.hardware.config_port`."""

from __future__ import annotations

import pytest

from repro.hardware import (
    Bitstream,
    CRAY_API_OVERHEAD,
    ConfigPort,
    MB,
    MS,
    VendorApiOverhead,
    XC2VP50,
    full_bitstream,
    icap_raw_port,
    jtag_port,
    selectmap_port,
)


def partial(nbytes: int = 404_168) -> Bitstream:
    return Bitstream("p", nbytes, region="prr0", kind="module")


class TestVendorApiOverhead:
    def test_time_model(self):
        oh = VendorApiOverhead(fixed=0.1, per_byte=1e-6)
        assert oh.time(1000) == pytest.approx(0.1 + 1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            VendorApiOverhead(fixed=-1.0)
        with pytest.raises(ValueError):
            VendorApiOverhead(per_byte=-1e-9)

    def test_calibrated_cray_overhead_reproduces_table2(self):
        """wire + API time for the full bitstream = 1678.04 ms."""
        wire = 2_381_764 / (66 * MB)
        total = wire + CRAY_API_OVERHEAD.time(2_381_764)
        assert total == pytest.approx(1678.04 * MS, rel=1e-9)


class TestConfigPortChecks:
    def test_vendor_selectmap_rejects_partials(self):
        """The exact blocker Section 4.1 describes: size/DONE checks."""
        port = selectmap_port(66 * MB, vendor_api=True)
        with pytest.raises(ValueError, match="rejects partial"):
            port.configure_time(partial())

    def test_vendor_selectmap_accepts_full(self):
        port = selectmap_port(66 * MB, vendor_api=True)
        t = port.configure_time(full_bitstream(XC2VP50))
        assert t == pytest.approx(1678.04 * MS, rel=1e-9)

    def test_raw_selectmap_accepts_partials(self):
        port = selectmap_port(66 * MB, vendor_api=False)
        t = port.configure_time(partial())
        assert t == pytest.approx(404_168 / (66 * MB))

    def test_jtag_and_icap_accept_partials(self):
        for port in (jtag_port(33e6 / 8), icap_raw_port(66 * MB)):
            assert port.configure_time(partial()) > 0

    def test_jtag_much_slower_than_selectmap(self):
        jtag = jtag_port(33e6 / 8)
        sm = selectmap_port(66 * MB, vendor_api=False)
        bs = full_bitstream(XC2VP50)
        assert jtag.configure_time(bs) > 10 * sm.configure_time(bs)

    def test_wire_time_validation(self):
        port = icap_raw_port(66 * MB)
        with pytest.raises(ValueError):
            port.wire_time(-1.0)
        with pytest.raises(ValueError):
            ConfigPort("x", 0.0)

