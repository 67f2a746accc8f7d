"""Simulated HPRC hardware substrate (Cray XD1 blade model).

The paper's testbed, rebuilt as a parameterized discrete-event model:
device catalog (:mod:`repro.hardware.catalog`), fabric resources and
column regions (:mod:`repro.hardware.fpga`), floorplans
(:mod:`repro.hardware.prr`), bitstream sizing
(:mod:`repro.hardware.bitstream`) and the byte-level partial images that
check it (:mod:`repro.hardware.bitfile`), configuration ports and the
ICAP controller (:mod:`repro.hardware.config_port`,
:mod:`repro.hardware.icap_controller`), the dual-channel link
(:mod:`repro.hardware.interconnect`), and the assembled node
(:mod:`repro.hardware.node`).  The ports are pure time models; the node
performs every configuration attempt
(:meth:`~repro.hardware.node.XD1Node.configure_full`,
:meth:`~repro.hardware.node.XD1Node.configure_partial`), and the
SelectMap port's ``supports_partial=False`` is the vendor API's refusal
of partial bitstreams (Section 4.1).
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
from .bitfile import BitfileError, SYNC_WORD, build_partial_bitfile
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
from .fpga import PlacementError, Region, Resources
from .icap_controller import DEFAULT_ICAP_TIMINGS, IcapController, IcapTimings
from .interconnect import DualChannelLink
from .node import XD1Node
from .prr import (
    Floorplan,
    dual_prr_floorplan,
    single_prr_floorplan,
    uniform_prr_floorplan,
)

__all__ = [
    "BitfileError",
    "Bitstream",
    "CRAY_API_OVERHEAD",
    "ConfigPort",
    "CatalogEntry",
    "DEFAULT_ICAP_TIMINGS",
    "DEVICES",
    "DeviceGeneration",
    "DomainTopology",
    "DualChannelLink",
    "FailureDomain",
    "Floorplan",
    "FpgaDevice",
    "IcapController",
    "IcapTimings",
    "MB",
    "MS",
    "NodeParameters",
    "PUBLISHED_TABLE2",
    "PlacementError",
    "Region",
    "Resources",
    "SYNC_WORD",
    "Table2Row",
    "US",
    "VendorApiOverhead",
    "XC2VP50",
    "XD1Node",
    "XD1_NODE",
    "build_partial_bitfile",
    "device_entry",
    "difference_based_bitstreams",
    "difference_size",
    "dual_prr_floorplan",
    "full_bitstream",
    "icap_raw_port",
    "jtag_port",
    "module_based_bitstreams",
    "selectmap_port",
    "single_prr_floorplan",
    "uniform_prr_floorplan",
]
