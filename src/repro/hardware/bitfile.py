"""Byte-level bitstream images: build, parse, verify.

Section 4.1 of the paper turns on a mundane detail: the Cray API
*inspects* the bitstream it is given — it checks the byte count against
the full-device size and polls the DONE pin — and therefore rejects
partial bitstreams.  To make that story concrete (and to give the
simulator real bytes to move), this module implements a simplified
Virtex-style configuration image:

* a **header** (design name, part name, build tag) as length-prefixed
  fields, following the ``.bit`` container convention;
* the **sync word** ``AA 99 55 66`` marking the start of the command
  stream;
* one **frame-address record** (FAR) per configuration column followed by
  that column's frame payload;
* a trailing **CRC-32** over the command stream.

The payload geometry is driven by :class:`~repro.hardware.catalog.
FpgaDevice`, so built images land within a few bytes of the catalog's
size model (and the full-device image is padded to match it exactly).

:class:`VendorConfigApi` replicates the two documented checks and is what
the tests point at to reproduce the paper's "partial reconfiguration is
not natively supported" finding byte-for-byte.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .catalog import FpgaDevice, XC2VP50

__all__ = [
    "BitfileError",
    "ParsedBitfile",
    "build_full_bitfile",
    "build_partial_bitfile",
    "parse_bitfile",
    "VendorConfigApi",
    "SYNC_WORD",
]

SYNC_WORD = b"\xaa\x99\x55\x66"
_MAGIC = b"RPRB"  # repro bitfile container magic


class BitfileError(ValueError):
    """Malformed or corrupted bitstream image."""


@dataclass(frozen=True)
class ParsedBitfile:
    """Decoded view of a bitstream image."""

    design: str
    part: str
    build_tag: str
    #: (start_column, n_columns); full-device images cover every column
    column_span: tuple[int, int]
    payload_bytes: int
    total_bytes: int
    crc_ok: bool

    @property
    def is_partial(self) -> bool:
        return self.column_span[1] > 0 and self.column_span != (0, 0)


def _field(data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + data


def _take_field(buf: memoryview, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(buf):
        raise BitfileError("truncated header field length")
    (length,) = struct.unpack_from(">I", buf, offset)
    offset += 4
    if offset + length > len(buf):
        raise BitfileError("truncated header field payload")
    return bytes(buf[offset : offset + length]), offset + length


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


def _build(
    device: FpgaDevice,
    design: str,
    col_start: int,
    n_columns: int,
    pad_to: int | None,
) -> bytes:
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
    image = header + bytes(body) + struct.pack(">I", crc)
    if pad_to is not None:
        if len(image) > pad_to:
            raise BitfileError(
                f"image ({len(image)} B) exceeds pad target ({pad_to} B)"
            )
        image += b"\xff" * (pad_to - len(image))
    return image


def build_full_bitfile(
    device: FpgaDevice = XC2VP50, design: str = "static_full"
) -> bytes:
    """A full-device image, padded to the catalog's exact byte count."""
    return _build(
        device,
        design,
        col_start=0,
        n_columns=device.clb_columns,
        pad_to=device.full_bitstream_bytes,
    )


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
    return _build(device, design, col_start, n_columns, pad_to=None)


def parse_bitfile(image: bytes, device: FpgaDevice = XC2VP50) -> ParsedBitfile:
    """Decode and CRC-check an image produced by the builders."""
    buf = memoryview(image)
    if bytes(buf[:4]) != _MAGIC:
        raise BitfileError("missing container magic")
    offset = 4
    design, offset = _take_field(buf, offset)
    part, offset = _take_field(buf, offset)
    tag, offset = _take_field(buf, offset)
    if offset + 8 > len(buf):
        raise BitfileError("truncated column-span record")
    col_start, n_columns = struct.unpack_from(">II", buf, offset)
    offset += 8
    if bytes(buf[offset : offset + 4]) != SYNC_WORD:
        raise BitfileError("sync word not found after header")
    body_start = offset
    # Each column carries an 8-byte FAR record plus its frame payload of
    # (column_bytes - 8) pseudo-frame bytes; the body opens with the sync
    # word.
    body_end = body_start + 4 + n_columns * int(device.column_bytes)
    if body_end + 4 > len(buf):
        raise BitfileError("truncated frame payload")
    body = bytes(buf[body_start:body_end])
    (stored_crc,) = struct.unpack_from(">I", buf, body_end)
    crc_ok = zlib.crc32(body) == stored_crc
    full_span = col_start == 0 and n_columns == device.clb_columns
    return ParsedBitfile(
        design=design.decode(),
        part=part.decode(),
        build_tag=tag.decode(),
        column_span=(0, 0) if full_span else (col_start, n_columns),
        payload_bytes=body_end - body_start,
        total_bytes=len(image),
        crc_ok=crc_ok,
    )


class VendorConfigApi:
    """The two checks of the Cray configuration function (Section 4.1).

    ``accept`` raises :class:`BitfileError` exactly when the real API
    errors: a byte count different from the full-device size, or a DONE
    pin already high (the FPGA being configured) while the image is
    partial.  Building the modified API of the paper means constructing
    with ``check_size=False, check_done=False``.
    """

    def __init__(
        self,
        device: FpgaDevice = XC2VP50,
        *,
        check_size: bool = True,
        check_done: bool = True,
    ) -> None:
        self.device = device
        self.check_size = check_size
        self.check_done = check_done

    def accept(self, image: bytes, done_pin_high: bool) -> ParsedBitfile:
        parsed = parse_bitfile(image, self.device)
        if self.check_size and len(image) != self.device.full_bitstream_bytes:
            raise BitfileError(
                f"bitstream size check failed: {len(image)} != "
                f"{self.device.full_bitstream_bytes} "
                "(partial bitstreams have an undefined size)"
            )
        if self.check_done and done_pin_high:
            raise BitfileError(
                "DONE signal check failed: the device is already "
                "configured (always the case during partial "
                "reconfiguration)"
            )
        if not parsed.crc_ok:
            raise BitfileError("CRC mismatch: corrupted bitstream")
        return parsed
