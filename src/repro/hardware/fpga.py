"""FPGA fabric vocabulary: resource vectors and column regions.

* a device exposes a finite resource vector (LUTs, FFs, BRAMs), and a
  hardware module's demand is one too (:mod:`repro.workloads.library`);
* a :class:`Region` is a span of whole CLB columns (Virtex-II frames are
  full-height, so reconfiguration is column-wise), which is what sizes a
  module-based partial bitstream (:mod:`repro.hardware.bitstream`);
* a :class:`~repro.hardware.prr.Floorplan` that needs more columns than
  its device has raises :class:`PlacementError`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Resources", "Region", "PlacementError"]


class PlacementError(ValueError):
    """A floorplan needs more CLB columns than its device has."""


@dataclass(frozen=True)
class Resources:
    """A fabric resource demand or capacity vector."""

    luts: int = 0
    ffs: int = 0
    brams: int = 0

    def __post_init__(self) -> None:
        if min(self.luts, self.ffs, self.brams) < 0:
            raise ValueError(f"negative resources: {self}")

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(
            self.luts + other.luts,
            self.ffs + other.ffs,
            self.brams + other.brams,
        )

    def __sub__(self, other: "Resources") -> "Resources":
        return Resources(
            self.luts - other.luts,
            self.ffs - other.ffs,
            self.brams - other.brams,
        )

    def fits_in(self, capacity: "Resources") -> bool:
        return (
            self.luts <= capacity.luts
            and self.ffs <= capacity.ffs
            and self.brams <= capacity.brams
        )

    def scale(self, factor: float) -> "Resources":
        """Proportionally scaled capacity (used for column-share capacity)."""
        if factor < 0:
            raise ValueError(f"negative scale factor: {factor}")
        return Resources(
            int(self.luts * factor),
            int(self.ffs * factor),
            int(self.brams * factor),
        )

    @property
    def is_zero(self) -> bool:
        return self.luts == 0 and self.ffs == 0 and self.brams == 0


@dataclass(frozen=True)
class Region:
    """A full-height rectangular column span of the fabric.

    ``col_start`` is inclusive, ``col_end`` exclusive — a region spans
    ``col_end - col_start`` whole CLB columns, matching the Virtex-II
    constraint that a configuration frame covers a whole column.
    """

    name: str
    col_start: int
    col_end: int
    reconfigurable: bool

    def __post_init__(self) -> None:
        if self.col_start < 0 or self.col_end <= self.col_start:
            raise ValueError(f"bad column span: {self!r}")

    @property
    def columns(self) -> int:
        return self.col_end - self.col_start
