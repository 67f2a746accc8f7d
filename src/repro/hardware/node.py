"""The assembled HPRC node: one Cray XD1 blade's acceleration subsystem.

:class:`XD1Node` wires together the parts of Section 4's platform that
configuration times depend on — the FPGA's floorplan, the dual-channel
link, the vendor (SelectMap) configuration path for full bitstreams, and
the ICAP controller path for partial bitstreams — on top of one shared
:class:`repro.sim.Simulator`.  The Section 4.2 SRAM banks, their FIFOs
and the bus macros are not modeled: the paper's Eqs. (1)-(7) depend only
on configuration and task times and their overlap.

The node is also the only code that performs a configuration attempt.
:meth:`XD1Node.configure_full` and :meth:`XD1Node.configure_partial` own
the optional bitstream-server fetch, the fault draws, the abort counters,
the port delay and the ICAP stream; executors decide only *when* to
configure and how to recover (:func:`repro.rtr.resilience.resilient`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..faults.detection import CrcChecker
from ..faults.errors import TransferCorruption, WriteAbort
from ..faults.injector import FaultInjector
from ..sim.engine import Delay, Simulator
from ..sim.resources import BandwidthChannel
from .bitstream import Bitstream, full_bitstream
from .catalog import XD1_NODE, FpgaDevice, NodeParameters
from .config_port import (
    ConfigPort,
    VendorApiOverhead,
    icap_raw_port,
    jtag_port,
    selectmap_port,
)
from .icap_controller import DEFAULT_ICAP_TIMINGS, IcapController, IcapTimings
from .interconnect import DualChannelLink
from .prr import Floorplan, dual_prr_floorplan

__all__ = ["XD1Node"]


@dataclass
class XD1Node:
    """One blade's acceleration subsystem, ready for executor use.

    Parameters
    ----------
    sim:
        The simulator that owns all the node's resources.
    floorplan:
        Any :class:`repro.hardware.prr.Floorplan`; defaults to the paper's
        dual-PRR layout.
    params:
        Bandwidth/latency parameters; defaults to the published XD1 values.
    vendor_api:
        When true (default), full configuration goes through the Cray API
        with its calibrated software overhead and partial bitstreams are
        rejected on the external port — forcing the ICAP path, exactly as
        on the real machine.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector` armed on the whole
        configuration datapath: link transfers into the BRAM buffer, the
        ICAP controller's chunk drains, wire-only partial writes and
        full-device writes.  ``None`` (default) keeps every path
        fault-free and the node bit-identical to the pre-fault baseline.
    crc:
        Per-chunk CRC checker for the ICAP controller (cost/coverage);
        defaults to a free, full-coverage check.
    """

    sim: Simulator
    floorplan: Floorplan | None = None
    params: NodeParameters = XD1_NODE
    vendor_api: bool = True
    icap_timings: IcapTimings = DEFAULT_ICAP_TIMINGS
    api_overhead: VendorApiOverhead | None = None
    fault_injector: FaultInjector | None = None
    crc: CrcChecker | None = None

    def __post_init__(self) -> None:
        if self.floorplan is None:
            self.floorplan = dual_prr_floorplan()
        self.device: FpgaDevice = self.floorplan.device
        self.link = DualChannelLink(
            self.sim,
            io_bandwidth=self.params.io_bandwidth,
            raw_bandwidth=self.params.link_raw_bandwidth,
        )
        # Arm the inbound (configuration-carrying) channel: bitstream
        # transfers consult the injector via transfer_ok; plain data
        # transfers are unaffected.
        self.link.config_stream.injector = self.fault_injector
        self.selectmap: ConfigPort = selectmap_port(
            self.params.selectmap_bandwidth,
            vendor_api=self.vendor_api,
            api_overhead=self.api_overhead,
        )
        self.jtag: ConfigPort = jtag_port(self.params.jtag_bandwidth)
        self.icap_raw: ConfigPort = icap_raw_port(self.params.icap_bandwidth)
        self.icap = IcapController(
            self.sim,
            in_link=self.link.config_stream,
            timings=self.icap_timings,
            injector=self.fault_injector,
            crc=self.crc,
        )
        self.full_image: Bitstream = full_bitstream(self.device)
        self._bitstreams: dict[tuple[int, str, int | None], Bitstream] = {}
        #: ``T_FRTR``, measured and wire-only (:meth:`full_config_time`)
        self._t_full = self.selectmap.configure_time(self.full_image)
        self._t_full_wire = self.selectmap.wire_time(self.full_image.nbytes)

    # -- configuration time models ------------------------------------------

    def full_config_time(self, estimated: bool = False) -> float:
        """Full-device configuration time (the model's ``T_FRTR``).

        ``estimated=True`` gives the wire-only lower bound (Table 2
        "estimated"); otherwise the vendor-API model (Table 2 "measured").
        """
        return self._t_full_wire if estimated else self._t_full

    def partial_config_time(
        self, bitstream: Bitstream, estimated: bool = False
    ) -> float:
        """Partial configuration time (the model's ``T_PRTR``).

        ``estimated=True``: wire-only through the nominal 66 MB/s port.
        Otherwise: the BRAM-buffered ICAP controller model.
        """
        if not bitstream.is_partial:
            raise ValueError("expected a partial bitstream")
        if estimated:
            return self.icap_raw.wire_time(bitstream.nbytes)
        return self.icap.configure_time(bitstream)

    def prr_bitstream(
        self, prr_index: int, module: str, nbytes: int | None = None
    ) -> Bitstream:
        """Module-based partial bitstream for a PRR.

        At the floorplan's geometric size, or at ``nbytes`` when given
        (e.g. the published Table 2 size).  Built once per (PRR, module,
        size) and shared after: a :class:`Bitstream` is immutable.
        """
        key = (prr_index, module, nbytes)
        bs = self._bitstreams.get(key)
        if bs is not None:
            return bs
        if nbytes is not None:
            bs = Bitstream(
                name=f"prr:{module}", nbytes=nbytes,
                region=f"prr{prr_index}", module=module, kind="module",
            )
        else:
            (bs,) = self.floorplan.bitstreams_for(prr_index, [module])
        self._bitstreams[key] = bs
        return bs

    # -- configuration attempts -----------------------------------------------

    def configure_full(
        self,
        owner: str,
        *,
        estimated: bool,
        source: BandwidthChannel | None = None,
    ) -> Generator[Any, Any, None]:
        """DES process: one full-device configuration attempt (Eq. 1).

        ``source`` is the shared channel the full image is fetched over
        first (a cluster's bitstream server); ``None`` means it is local.
        The FPGA is held in reset, so the write is a plain delay of
        :meth:`full_config_time`.  An armed injector may abort it
        (``port_aborted``): ``abort_fraction x T_FRTR`` is paid,
        ``selectmap.write_aborts`` counts it, and
        :class:`~repro.faults.errors.WriteAbort` is raised for the
        caller's recovery policy.
        """
        if source is not None:
            yield from self._fetch(source, self.full_image, owner)
        t_full = self._t_full_wire if estimated else self._t_full
        inj = self.fault_injector
        if inj is not None and inj.port_aborted():
            self.selectmap.write_aborts += 1
            yield Delay(inj.abort_fraction() * t_full)
            raise WriteAbort(f"vendor-port write {owner!r} aborted")
        yield Delay(t_full)

    def configure_partial(
        self,
        bitstream: Bitstream,
        owner: str,
        *,
        estimated: bool,
        source: BandwidthChannel | None = None,
    ) -> Generator[Any, Any, None]:
        """DES process: one partial configuration attempt (Eqs. 3-5).

        Fetches over ``source`` first, as :meth:`configure_full` does.
        Measured, the bitstream streams through the ICAP controller
        (Fig. 7), which draws its own link corruption and chunk aborts.
        ``estimated`` pays the wire-only time through the nominal ICAP
        port instead; its chunk aborts collapse into one
        ``span_aborted`` draw, and an abort pays ``abort_fraction x``
        that time, counts on the controller and raises
        :class:`~repro.faults.errors.WriteAbort`.
        """
        if source is not None:
            yield from self._fetch(source, bitstream, owner)
        if not estimated:
            yield from self.icap.configure(bitstream, owner)
            return
        wire = self.icap_raw.wire_time(bitstream.nbytes)
        inj = self.fault_injector
        if inj is not None and inj.span_aborted(
            self.icap.timings.n_chunks(bitstream.nbytes)
        ):
            self.icap.count_write_abort()
            yield Delay(inj.abort_fraction() * wire)
            raise WriteAbort(f"wire-only write of {bitstream.name!r} aborted")
        yield Delay(wire)

    def _fetch(
        self, source: BandwidthChannel, bitstream: Bitstream, owner: str
    ) -> Generator[Any, Any, None]:
        """Pull ``bitstream`` over ``source``; a corrupted copy raises."""
        _, ok = yield from source.transfer_ok(
            bitstream.nbytes, owner=f"{owner}:fetch"
        )
        if not ok:
            raise TransferCorruption(
                f"server fetch of {bitstream.name!r} failed its CRC check"
            )
