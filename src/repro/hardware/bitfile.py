"""Byte-level partial bitstream images: the oracle of the size model.

The catalog sizes a partial bitstream from its column span
(:meth:`~repro.hardware.catalog.FpgaDevice.partial_bitstream_bytes`);
this module builds the bytes of such an image in a simplified
Virtex-style layout, so a test can check that model against a real
byte count:

* a **header** (design name, part name, build tag) as length-prefixed
  fields, following the ``.bit`` container convention;
* the **sync word** ``AA 99 55 66`` marking the start of the command
  stream;
* one **frame-address record** (FAR) per configuration column followed by
  that column's frame payload;
* a trailing **CRC-32** over the command stream.

The payload geometry is driven by :class:`~repro.hardware.catalog.
FpgaDevice`, so built images land within a few bytes of the catalog's
size model.  Section 4.1's finding, that the Cray API checks a
bitstream's size and the DONE pin and so refuses partial images, is
modelled by the SelectMap :class:`~repro.hardware.config_port
.ConfigPort` (``supports_partial=False``), not here.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .catalog import FpgaDevice

__all__ = ["BitfileError", "build_partial_bitfile", "SYNC_WORD"]

SYNC_WORD = b"\xaa\x99\x55\x66"
_MAGIC = b"RPRB"  # repro bitfile container magic


class BitfileError(ValueError):
    """A bitstream image the device geometry cannot hold."""


def _field(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _column_payload(
    device: FpgaDevice, column: int, seed_tag: bytes
) -> bytes:
    """Deterministic pseudo-frame-data for one column."""
    n = int(device.column_bytes) - 8  # leave room for the FAR record
    if n <= 0:
        raise BitfileError(
            f"column payload would be non-positive for {device.name}"
        )
    rng = np.random.default_rng(
        zlib.crc32(seed_tag + column.to_bytes(4, "big"))
    )
    return rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()


# Kept as the byte-level oracle for the catalog size model in
# tests/integration/test_cross_consistency.py
# (test_bitfile_builder_matches_catalog_model).
def build_partial_bitfile(  # reprolint: disable=RL010
    device: FpgaDevice,
    design: str,
    col_start: int,
    n_columns: int,
) -> bytes:
    """A partial image for a column span (module-based flow)."""
    if not 0 <= col_start < device.clb_columns:
        raise BitfileError(f"bad start column {col_start}")
    if not 0 < n_columns <= device.clb_columns - col_start:
        raise BitfileError(f"bad column count {n_columns}")
    header = (
        _MAGIC
        + _field(design.encode())
        + _field(device.name.encode())
        + _field(b"repro-1.0")
        + struct.pack(">II", col_start, n_columns)
    )
    body = bytearray(SYNC_WORD)
    for col in range(col_start, col_start + n_columns):
        body += struct.pack(">II", 0x3000_2001, col)  # FAR write record
        body += _column_payload(device, col, design.encode())
    crc = zlib.crc32(bytes(body))
    return header + bytes(body) + struct.pack(">I", crc)
