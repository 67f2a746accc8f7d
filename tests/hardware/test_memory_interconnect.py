"""Unit tests for :mod:`repro.hardware.interconnect`."""

from __future__ import annotations

import pytest

from repro.hardware import DualChannelLink, MB
from repro.sim import Simulator


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
