"""Detection layer: bitstream CRCs and the checker model."""

from __future__ import annotations

import pytest

from repro.faults import CrcChecker, FaultConfig, FaultInjector
from repro.hardware.bitstream import Bitstream


def make_bitstream(nbytes: int = 100_000, name: str = "bs") -> Bitstream:
    return Bitstream(
        name=name, nbytes=nbytes, region="prr0", module="m", kind="module"
    )


class TestBitstreamCrc:
    def test_crc32_is_deterministic(self):
        assert make_bitstream().crc32 == make_bitstream().crc32

    def test_crc32_distinguishes_bitstreams(self):
        assert make_bitstream().crc32 != make_bitstream(name="other").crc32
        assert make_bitstream(1000).crc32 != make_bitstream(1001).crc32

    def test_chunk_crcs_cover_all_chunks(self):
        bs = make_bitstream(100_000)
        chunk = 16 * 1024
        crcs = bs.chunk_crcs(chunk)
        assert len(crcs) == bs.n_chunks(chunk) == 7
        assert len(set(crcs)) == len(crcs)  # all distinct
        assert crcs[3] == bs.chunk_crc(3, chunk)

    def test_chunk_index_bounds(self):
        bs = make_bitstream(100_000)
        with pytest.raises(IndexError):
            bs.chunk_crc(99, 16 * 1024)


class TestCrcChecker:
    def test_default_is_free_and_exhaustive(self):
        crc = CrcChecker()
        assert crc.check_time(1 << 30) == 0.0
        assert crc.detects(None)
        assert crc.detects(FaultInjector(FaultConfig()))

    def test_check_time_scales_with_bandwidth(self):
        crc = CrcChecker(bandwidth=1e6)
        assert crc.check_time(2e6) == pytest.approx(2.0)

    def test_partial_coverage_draws_from_injector(self):
        crc = CrcChecker(coverage=0.5)
        inj = FaultInjector(FaultConfig(seed=0))
        hits = sum(crc.detects(inj) for _ in range(2000))
        assert 800 < hits < 1200

    def test_partial_coverage_without_injector_is_certain(self):
        # Deterministic fallback: no stream available -> always detect.
        assert CrcChecker(coverage=0.1).detects(None)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrcChecker(bandwidth=-1)
        with pytest.raises(ValueError):
            CrcChecker(coverage=1.5)
        with pytest.raises(ValueError):
            CrcChecker().check_time(-1)
