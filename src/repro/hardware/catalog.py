"""Device and platform catalog.

All published constants of the paper's experimental platform live here, in
one place, so experiments can cite them and tests can pin them:

* the Xilinx Virtex-II Pro **XC2VP50** FPGA that serves as the Cray XD1
  Application Accelerator Processor (AAP);
* the XD1 node parameters (RapidArray/HyperTransport link, configuration
  ports, the ICAP controller's BRAM buffer, I/O bandwidth);
* the published Table 2 measurements, used both as calibration targets and
  as ground truth in EXPERIMENTS.md comparisons.

Resource-percentage note
------------------------
Table 1 of the paper reports utilization percentages that are exactly
``floor(100 * used / total)`` with totals **47,232 LUTs**, **47,232 FFs**
and **232 BRAMs** — the XC2VP50 figures (23,616 slices x 2).  We pin these
in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "FpgaDevice",
    "XC2VP50",
    "XD1_NODE",
    "PUBLISHED_TABLE2",
    "Table2Row",
    "NodeParameters",
    "MB",
    "MS",
    "US",
]

# Unit helpers: the simulation time unit is the second; sizes in bytes.
MB = 1_000_000.0  # the paper's "MB/s" figures are decimal megabytes
MS = 1e-3
US = 1e-6


@dataclass(frozen=True)
class FpgaDevice:
    """Static description of a partially reconfigurable FPGA.

    The configuration-geometry fields follow the Virtex-II column/frame
    architecture: the device is configured by full-height *frames*; frames
    group into *columns*; a partial bitstream must cover whole columns
    (the paper: "a frame includes a whole column of logic resources").
    """

    name: str
    luts: int
    ffs: int
    brams: int
    slices: int
    clb_columns: int
    clb_rows: int
    #: total bytes of a full-device configuration bitstream
    full_bitstream_bytes: int
    #: bytes of bitstream header/command overhead (sync words, CRC, footer)
    bitstream_overhead_bytes: int
    #: number of PowerPC hard cores embedded in the fabric
    ppc_cores: int = 0

    def __post_init__(self) -> None:
        if min(self.luts, self.ffs, self.brams, self.slices) <= 0:
            raise ValueError("device resource totals must be positive")
        if self.full_bitstream_bytes <= self.bitstream_overhead_bytes:
            raise ValueError("bitstream overhead exceeds full bitstream")
        if self.clb_columns <= 0 or self.clb_rows <= 0:
            raise ValueError("CLB geometry must be positive")

    @property
    def column_bytes(self) -> float:
        """Configuration payload bytes per CLB column (uniform model)."""
        payload = self.full_bitstream_bytes - self.bitstream_overhead_bytes
        return payload / self.clb_columns

    def partial_bitstream_bytes(self, columns: int) -> int:
        """Size of a module-based partial bitstream spanning ``columns``.

        The Early Access PR flow emits *all* frames of the reconfigurable
        region, so size depends only on the region width, not on the module
        inside it.
        """
        if not 0 < columns <= self.clb_columns:
            raise ValueError(
                f"columns must be in (0, {self.clb_columns}]: {columns}"
            )
        return int(
            round(self.bitstream_overhead_bytes + columns * self.column_bytes)
        )

    def utilization_pct(self, used: int, total: int) -> int:
        """Utilization percentage as printed in the paper (floor)."""
        if total <= 0:
            raise ValueError("total must be positive")
        if used < 0:
            raise ValueError("used must be >= 0")
        return (100 * used) // total


#: The Cray XD1 Application Accelerator FPGA (Xilinx Virtex-II Pro).
#: ``full_bitstream_bytes`` is the paper's Table 2 value.  The overhead
#: constant is chosen so the single/dual PRR floorplans in
#: :mod:`repro.hardware.prr` land on the published partial sizes.
XC2VP50 = FpgaDevice(
    name="XC2VP50",
    luts=47_232,
    ffs=47_232,
    brams=232,
    slices=23_616,
    clb_columns=70,
    clb_rows=88,
    full_bitstream_bytes=2_381_764,
    bitstream_overhead_bytes=1_312,
    ppc_cores=2,
)


@dataclass(frozen=True)
class NodeParameters:
    """Timing/bandwidth parameters of one Cray XD1 compute blade."""

    #: usable host<->FPGA bandwidth per direction (paper: 1400 MB/s)
    io_bandwidth: float
    #: raw HyperTransport/RapidArray channel rate (paper: 1.6 GB/s)
    link_raw_bandwidth: float
    #: SelectMap external configuration port throughput (8 bit @ 66 MHz)
    selectmap_bandwidth: float
    #: ICAP internal configuration port raw throughput (8 bit @ 66 MHz)
    icap_bandwidth: float
    #: JTAG configuration throughput (serial, ~33 Mbit/s)
    jtag_bandwidth: float
    #: BRAM buffer inside the PR controller (8 x 18 Kb BRAMs ~ 16 KiB
    #: usable): the ICAP controller's chunk size
    icap_buffer_bytes: int
    #: measured transfer-of-control time (paper: ~10 us)
    control_time: float

    def __post_init__(self) -> None:
        for name in (
            "io_bandwidth",
            "link_raw_bandwidth",
            "selectmap_bandwidth",
            "icap_bandwidth",
            "jtag_bandwidth",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


XD1_NODE = NodeParameters(
    io_bandwidth=1400 * MB,
    link_raw_bandwidth=1600 * MB,
    selectmap_bandwidth=66 * MB,
    icap_bandwidth=66 * MB,
    jtag_bandwidth=33e6 / 8,
    icap_buffer_bytes=16 * 1024,
    control_time=10 * US,
)


@dataclass(frozen=True)
class Table2Row:
    """One published row of the paper's Table 2."""

    layout: str
    bitstream_bytes: int
    estimated_time_s: float
    measured_time_s: float
    estimated_x_prtr: float
    measured_x_prtr: float


#: Table 2 exactly as published (times converted from msec to seconds).
PUBLISHED_TABLE2: dict[str, Table2Row] = {
    "full": Table2Row(
        layout="Full Configuration",
        bitstream_bytes=2_381_764,
        estimated_time_s=36.09 * MS,
        measured_time_s=1678.04 * MS,
        estimated_x_prtr=1.0,
        measured_x_prtr=1.0,
    ),
    "single_prr": Table2Row(
        layout="Single PRR",
        bitstream_bytes=887_784,
        estimated_time_s=13.45 * MS,
        measured_time_s=43.48 * MS,
        estimated_x_prtr=0.37,
        measured_x_prtr=0.026,
    ),
    "dual_prr": Table2Row(
        layout="Dual PRR",
        bitstream_bytes=404_168,
        estimated_time_s=6.12 * MS,
        measured_time_s=19.77 * MS,
        estimated_x_prtr=0.17,
        measured_x_prtr=0.012,
    ),
}
