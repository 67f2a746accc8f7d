"""Host<->FPGA interconnect: the dual-channel RapidArray/HyperTransport link.

The Cray XD1 exposes two independent channels (one per direction), which is
why the paper can overlap partial reconfiguration (carried over the *input*
channel) with either task computation or the *output* data transfer — but
never with the input data transfer of the same task.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.engine import Simulator
from ..sim.resources import BandwidthChannel

__all__ = ["DualChannelLink"]


@dataclass
class DualChannelLink:
    """Two independent byte channels: ``inbound`` (host->FPGA), ``outbound``.

    Parameters
    ----------
    io_bandwidth:
        Usable payload bandwidth per direction (the paper's 1400 MB/s).
    raw_bandwidth:
        Raw channel rate used for configuration streaming into the BRAM
        buffer (the paper's 1.6 GB/s HyperTransport figure).  Exposed as
        ``config_rate`` on the inbound channel model; payload transfers use
        ``io_bandwidth``.
    """

    sim: Simulator
    io_bandwidth: float
    raw_bandwidth: float

    def __post_init__(self) -> None:
        if self.io_bandwidth <= 0 or self.raw_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.io_bandwidth > self.raw_bandwidth:
            raise ValueError(
                "usable I/O bandwidth cannot exceed the raw channel rate"
            )
        self.inbound = BandwidthChannel(
            self.sim, name="link.in", rate=self.io_bandwidth
        )
        self.outbound = BandwidthChannel(
            self.sim, name="link.out", rate=self.io_bandwidth
        )
        #: configuration streaming shares the *inbound* wire; we model it on
        #: the same serializing channel so contention with data-in emerges,
        #: but at the raw rate (config writes bypass the payload protocol).
        self.config_stream = self.inbound

    def data_in_time(self, nbytes: float) -> float:
        return self.inbound.transfer_time(nbytes)

    def data_out_time(self, nbytes: float) -> float:
        return self.outbound.transfer_time(nbytes)
