"""Unit tests for :mod:`repro.hardware.fpga`."""

from __future__ import annotations

import pytest

from repro.hardware import Region, Resources, XC2VP50, dual_prr_floorplan


class TestResources:
    def test_arithmetic(self):
        a = Resources(10, 20, 2)
        b = Resources(5, 5, 1)
        assert a + b == Resources(15, 25, 3)
        assert a - b == Resources(5, 15, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Resources(-1, 0, 0)
        with pytest.raises(ValueError):
            Resources(1, 1, 1) - Resources(2, 0, 0)

    def test_fits_in(self):
        small = Resources(10, 10, 1)
        big = Resources(100, 100, 10)
        assert small.fits_in(big)
        assert not big.fits_in(small)
        assert small.fits_in(small)

    def test_scale(self):
        r = Resources(100, 200, 10).scale(0.5)
        assert r == Resources(50, 100, 5)
        with pytest.raises(ValueError):
            Resources(1, 1, 1).scale(-1.0)

    def test_is_zero(self):
        assert Resources().is_zero
        assert not Resources(luts=1).is_zero


class TestRegion:
    def test_columns(self):
        r = Region("prr0", 10, 22, reconfigurable=True)
        assert r.columns == 12

    def test_invalid_span(self):
        with pytest.raises(ValueError):
            Region("bad", 5, 5, reconfigurable=True)
        with pytest.raises(ValueError):
            Region("bad", -1, 5, reconfigurable=True)


class TestFpga:
    def test_table1_cores_fit_their_prrs(self):
        """Each Table 1 core fits a 12-column dual-layout PRR.

        A PRR's capacity is its column share of the device totals (the
        two PPC hard cores take fabric area but no LUT/FF/BRAM counts).
        """
        plan = dual_prr_floorplan()
        assert plan.prr_columns[0] == 12
        device = Resources(XC2VP50.luts, XC2VP50.ffs, XC2VP50.brams)
        capacity = device.scale(plan.prr_columns[0] / XC2VP50.clb_columns)
        assert capacity == Resources(8096, 8096, 39)
        for name, (luts, ffs) in {
            "median": (3141, 3270),
            "sobel": (1159, 1060),
            "smoothing": (2053, 1601),
        }.items():
            demand = Resources(luts, ffs, 0)
            assert demand.fits_in(capacity), name
