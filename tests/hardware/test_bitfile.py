"""Unit tests for the byte-level partial bitstream images."""

from __future__ import annotations

import pytest

from repro.hardware import XC2VP50
from repro.hardware.bitfile import (
    SYNC_WORD,
    BitfileError,
    build_partial_bitfile,
)


class TestBuild:
    def test_partial_image_near_catalog_model(self):
        image = build_partial_bitfile(XC2VP50, "median", 46, 12)
        model = XC2VP50.partial_bitstream_bytes(12)
        assert abs(len(image) - model) / model < 0.01

    def test_partial_scales_with_columns(self):
        small = build_partial_bitfile(XC2VP50, "m", 0, 6)
        large = build_partial_bitfile(XC2VP50, "m", 0, 24)
        assert len(large) > 3 * len(small)

    def test_sync_word_present(self):
        image = build_partial_bitfile(XC2VP50, "m", 0, 2)
        assert SYNC_WORD in image

    def test_deterministic(self):
        a = build_partial_bitfile(XC2VP50, "median", 46, 12)
        b = build_partial_bitfile(XC2VP50, "median", 46, 12)
        assert a == b

    def test_different_designs_differ(self):
        a = build_partial_bitfile(XC2VP50, "median", 46, 12)
        b = build_partial_bitfile(XC2VP50, "sobel", 46, 12)
        assert a != b
        # Module-based flow: identical frame payload size regardless of
        # the module inside; only the header's design name differs.
        assert len(a) - len(b) == len("median") - len("sobel")

    def test_bad_geometry(self):
        with pytest.raises(BitfileError):
            build_partial_bitfile(XC2VP50, "m", 70, 1)
        with pytest.raises(BitfileError):
            build_partial_bitfile(XC2VP50, "m", 0, 0)
        with pytest.raises(BitfileError):
            build_partial_bitfile(XC2VP50, "m", 65, 10)
