"""Bitstream models for full and partial reconfiguration.

Implements the size accounting the paper describes in Section 2.2:

* **module-based flow** — one partial bitstream per module; every bitstream
  covers *all* frames of its PRR, so all bitstreams for a region have the
  same size regardless of the module inside (``n`` bitstreams for ``n``
  modules);
* **difference-based flow** — one bitstream per ordered (from, to) module
  pair containing only the changed frames (``n*(n-1)`` bitstreams of
  variable size).

Sizes derive from the device's column geometry (see
:class:`repro.hardware.catalog.FpgaDevice`).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from typing import Iterable, Mapping

from .catalog import FpgaDevice
from .fpga import Region

__all__ = [
    "Bitstream",
    "full_bitstream",
    "module_based_bitstreams",
    "difference_based_bitstreams",
    "difference_size",
]


@dataclass(frozen=True)
class Bitstream:
    """A configuration image targeting the whole device or one region."""

    name: str
    nbytes: int
    #: region the bitstream configures; ``None`` for a full-device image
    region: str | None = None
    #: module the bitstream instantiates (informational)
    module: str = ""
    kind: str = "full"  # "full" | "module" | "difference"

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"bitstream must have positive size: {self!r}")
        if self.kind not in ("full", "module", "difference"):
            raise ValueError(f"unknown bitstream kind {self.kind!r}")

    @property
    def is_partial(self) -> bool:
        return self.region is not None

    # -- integrity metadata ------------------------------------------------

    def _identity(self) -> bytes:
        return (
            f"{self.name}:{self.nbytes}:{self.region}:"
            f"{self.module}:{self.kind}"
        ).encode()

    @property
    def crc32(self) -> int:
        """Deterministic whole-image CRC-32.

        The simulator carries no real configuration payload, so the CRC
        is derived from the bitstream's identity — stable across runs and
        processes, which is all the detection layer needs to model a
        match/mismatch check.
        """
        return zlib.crc32(self._identity()) & 0xFFFFFFFF

    def n_chunks(self, chunk_bytes: int) -> int:
        """How many BRAM chunks the image occupies at ``chunk_bytes``."""
        if chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive: {chunk_bytes}")
        return max(1, math.ceil(self.nbytes / chunk_bytes))

    def chunk_crc(self, index: int, chunk_bytes: int) -> int:
        """Deterministic CRC-32 of chunk ``index`` (for per-chunk checks)."""
        n = self.n_chunks(chunk_bytes)
        if not 0 <= index < n:
            raise IndexError(f"chunk {index} out of range [0, {n})")
        return zlib.crc32(self._identity() + b":%d" % index) & 0xFFFFFFFF

    def chunk_crcs(self, chunk_bytes: int) -> list[int]:
        """Per-chunk CRC table the ICAP controller's checker verifies."""
        return [
            self.chunk_crc(i, chunk_bytes)
            for i in range(self.n_chunks(chunk_bytes))
        ]


def full_bitstream(device: FpgaDevice, name: str = "full") -> Bitstream:
    """The full-device configuration image (what FRTR downloads per call)."""
    return Bitstream(
        name=name, nbytes=device.full_bitstream_bytes, region=None, kind="full"
    )


def module_based_bitstreams(
    device: FpgaDevice, region: Region, modules: Iterable[str]
) -> list[Bitstream]:
    """One fixed-size partial bitstream per module for ``region``.

    All returned bitstreams have identical size: the Early Access PR flow
    writes every frame of the region whether or not a given module uses it.
    """
    if not region.reconfigurable:
        raise ValueError(f"region {region.name!r} is not reconfigurable")
    size = device.partial_bitstream_bytes(region.columns)
    out = []
    for module in modules:
        out.append(
            Bitstream(
                name=f"{region.name}:{module}",
                nbytes=size,
                region=region.name,
                module=module,
                kind="module",
            )
        )
    if not out:
        raise ValueError("modules iterable was empty")
    return out


# Sizes each bitstream of difference_based_bitstreams below, which backs
# the paper's Section 5 development-cost claim (TestDevelopmentCostClaim);
# its own oracle checks are in tests/hardware/test_bitstream.py.
def difference_size(  # reprolint: disable=RL010
    device: FpgaDevice,
    region: Region,
    similarity: float,
) -> int:
    """Size of a difference-based bitstream between two modules.

    ``similarity`` in ``[0, 1]`` is the fraction of the region's frames that
    are identical between the two designs; only differing frames (plus the
    fixed command overhead) are emitted.
    """
    if not 0.0 <= similarity <= 1.0:
        raise ValueError(f"similarity must be in [0,1]: {similarity}")
    full_region = device.partial_bitstream_bytes(region.columns)
    payload = full_region - device.bitstream_overhead_bytes
    return int(round(device.bitstream_overhead_bytes + payload * (1.0 - similarity)))


# Kept for the paper's Section 5 development-cost claim in
# tests/integration/test_paper_headlines.py (TestDevelopmentCostClaim).
def difference_based_bitstreams(  # reprolint: disable=RL010
    device: FpgaDevice,
    region: Region,
    similarities: Mapping[tuple[str, str], float],
) -> list[Bitstream]:
    """One variable-size bitstream per ordered module pair.

    ``similarities`` maps ``(from_module, to_module)`` to frame similarity.
    The paper's point — ``n*(n-1)`` bitstreams versus ``n`` for the
    module-based flow — falls out of the pair enumeration.
    """
    if not region.reconfigurable:
        raise ValueError(f"region {region.name!r} is not reconfigurable")
    modules = sorted({m for pair in similarities for m in pair})
    out = []
    for src in modules:
        for dst in modules:
            if src == dst:
                continue
            try:
                sim = similarities[(src, dst)]
            except KeyError:
                raise ValueError(
                    f"missing similarity for pair ({src!r}, {dst!r})"
                ) from None
            out.append(
                Bitstream(
                    name=f"{region.name}:{src}->{dst}",
                    nbytes=difference_size(device, region, sim),
                    region=region.name,
                    module=dst,
                    kind="difference",
                )
            )
    expected = len(modules) * (len(modules) - 1)
    assert len(out) == expected, (len(out), expected)
    return out
