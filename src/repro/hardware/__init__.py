"""Simulated HPRC hardware substrate (Cray XD1 blade model).

The paper's testbed, rebuilt as a parameterized discrete-event model:
device catalog (:mod:`repro.hardware.catalog`), fabric and floorplans
(:mod:`repro.hardware.fpga`, :mod:`repro.hardware.prr`), bitstream sizing
(:mod:`repro.hardware.bitstream`), configuration ports and the ICAP
controller (:mod:`repro.hardware.config_port`,
:mod:`repro.hardware.icap_controller`), the dual-channel link
(:mod:`repro.hardware.interconnect`), on-board memory
(:mod:`repro.hardware.memory`), and the assembled node
(:mod:`repro.hardware.node`).  The ports are pure time models; the node
performs every configuration attempt
(:meth:`~repro.hardware.node.XD1Node.configure_full`,
:meth:`~repro.hardware.node.XD1Node.configure_partial`).
"""

from .bitstream import (
    Bitstream,
    difference_based_bitstreams,
    difference_size,
    full_bitstream,
    module_based_bitstreams,
)
from .catalog import (
    MB,
    MS,
    PUBLISHED_TABLE2,
    US,
    FpgaDevice,
    NodeParameters,
    Table2Row,
    XC2VP50,
    XD1_NODE,
)
from .bitfile import (
    BitfileError,
    ParsedBitfile,
    SYNC_WORD,
    VendorConfigApi,
    build_full_bitfile,
    build_partial_bitfile,
    parse_bitfile,
)
from .devices import (
    DEVICES,
    CatalogEntry,
    DeviceGeneration,
    device_entry,
)
from .domains import DomainTopology, FailureDomain
from .config_port import (
    CRAY_API_OVERHEAD,
    ConfigPort,
    VendorApiOverhead,
    icap_raw_port,
    jtag_port,
    selectmap_port,
)
from .fpga import Fpga, PlacementError, Region, Resources
from .icap_controller import DEFAULT_ICAP_TIMINGS, IcapController, IcapTimings
from .interconnect import DualChannelLink
from .memory import Fifo, MemorySystem, SramBank
from .node import XD1Node
from .prr import (
    BusMacro,
    Floorplan,
    dual_prr_floorplan,
    single_prr_floorplan,
    uniform_prr_floorplan,
)

__all__ = [
    "BitfileError",
    "Bitstream",
    "BusMacro",
    "CRAY_API_OVERHEAD",
    "ConfigPort",
    "CatalogEntry",
    "DEFAULT_ICAP_TIMINGS",
    "DEVICES",
    "DeviceGeneration",
    "DomainTopology",
    "DualChannelLink",
    "FailureDomain",
    "Fifo",
    "Floorplan",
    "Fpga",
    "FpgaDevice",
    "IcapController",
    "IcapTimings",
    "MB",
    "MS",
    "MemorySystem",
    "NodeParameters",
    "PUBLISHED_TABLE2",
    "PlacementError",
    "ParsedBitfile",
    "Region",
    "Resources",
    "SYNC_WORD",
    "SramBank",
    "Table2Row",
    "US",
    "VendorApiOverhead",
    "XC2VP50",
    "VendorConfigApi",
    "XD1Node",
    "XD1_NODE",
    "build_full_bitfile",
    "build_partial_bitfile",
    "device_entry",
    "difference_based_bitstreams",
    "difference_size",
    "dual_prr_floorplan",
    "full_bitstream",
    "icap_raw_port",
    "jtag_port",
    "module_based_bitstreams",
    "parse_bitfile",
    "selectmap_port",
    "single_prr_floorplan",
    "uniform_prr_floorplan",
]
