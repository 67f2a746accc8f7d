"""Unit tests for :mod:`repro.hardware.memory` and ``interconnect``."""

from __future__ import annotations

import pytest

from repro.hardware import DualChannelLink, Fifo, MB, MemorySystem, SramBank
from repro.sim import Simulator


class TestSramBank:
    def test_allocate_free_cycle(self):
        bank = SramBank("b0", 1000)
        bank.allocate(600)
        assert bank.free_bytes == 400
        bank.free(100)
        assert bank.used_bytes == 500

    def test_over_allocation(self):
        bank = SramBank("b0", 100)
        with pytest.raises(MemoryError):
            bank.allocate(101)

    def test_over_free(self):
        bank = SramBank("b0", 100)
        bank.allocate(50)
        with pytest.raises(ValueError):
            bank.free(51)

    def test_validation(self):
        with pytest.raises(ValueError):
            SramBank("b", 0)
        with pytest.raises(ValueError):
            SramBank("b", 100, used_bytes=200)
        with pytest.raises(ValueError):
            SramBank("b", 100).allocate(-1)


class TestFifo:
    def test_push_pop(self):
        f = Fifo("f", depth_words=4)
        f.push(3)
        assert f.occupancy == 3 and not f.full
        f.push(1)
        assert f.full
        f.pop(4)
        assert f.empty
        assert f.max_occupancy_seen == 4

    def test_overflow(self):
        f = Fifo("f", depth_words=2)
        f.push(2)
        with pytest.raises(OverflowError):
            f.push(1)

    def test_underflow(self):
        f = Fifo("f", depth_words=2)
        with pytest.raises(BufferError):
            f.pop(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Fifo("f", 0)
        f = Fifo("f", 2)
        with pytest.raises(ValueError):
            f.push(-1)
        with pytest.raises(ValueError):
            f.pop(-1)


class TestMemorySystem:
    def make(self) -> MemorySystem:
        return MemorySystem(Simulator(), n_banks=4, bank_bytes=4 * 1024**2)

    def test_dual_prr_assignment(self):
        """Section 4.2: two banks per PRR in the dual layout."""
        mem = self.make()
        mem.assign("prr0", [0, 2])
        mem.assign("prr1", [1, 3])
        assert len(mem.banks_of("prr0")) == 2
        assert mem.region_capacity("prr0") == 8 * 1024**2

    def test_bank_cannot_serve_two_regions(self):
        mem = self.make()
        mem.assign("prr0", [0, 1])
        with pytest.raises(ValueError, match="already assigned"):
            mem.assign("prr1", [1, 2])

    def test_reassign_same_region_ok(self):
        mem = self.make()
        mem.assign("prr0", [0])
        mem.assign("prr0", [0, 1])
        assert len(mem.banks_of("prr0")) == 2

    def test_unknown_region(self):
        with pytest.raises(KeyError):
            self.make().banks_of("nope")

    def test_bad_bank_index(self):
        with pytest.raises(IndexError):
            self.make().assign("prr0", [7])

    def test_validation(self):
        with pytest.raises(ValueError):
            MemorySystem(Simulator(), n_banks=0, bank_bytes=1)


class TestDualChannelLink:
    def test_directions_independent(self):
        sim = Simulator()
        link = DualChannelLink(sim, io_bandwidth=1400 * MB,
                               raw_bandwidth=1600 * MB)
        done = []

        def mover(ch, tag):
            yield from ch.transfer(1400 * MB, tag)  # exactly 1 s
            done.append((tag, sim.now))

        sim.spawn(mover(link.inbound, "in"))
        sim.spawn(mover(link.outbound, "out"))
        sim.run()
        assert done == [("in", 1.0), ("out", 1.0)]

    def test_config_stream_shares_inbound(self):
        link = DualChannelLink(Simulator(), io_bandwidth=1400 * MB,
                               raw_bandwidth=1600 * MB)
        assert link.config_stream is link.inbound

    def test_validation(self):
        with pytest.raises(ValueError):
            DualChannelLink(Simulator(), io_bandwidth=0, raw_bandwidth=1)
        with pytest.raises(ValueError, match="cannot exceed"):
            DualChannelLink(Simulator(), io_bandwidth=2.0, raw_bandwidth=1.0)
