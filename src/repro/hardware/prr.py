"""PRR floorplans: the paper's single- and dual-PRR Cray XD1 layouts.

A :class:`Floorplan` carves the device's CLB columns into one static region
(RT core, ICAP controller — Fig. 8) and ``n`` partially reconfigurable
regions.  Only the column widths enter the model: a PRR's width sizes its
module-based partial bitstream, and so its configuration time.

Column widths for the XD1 layouts are chosen so the geometric
partial-bitstream model lands on the published Table 2 sizes:

* single PRR: 26 of 70 columns  -> 885,480 B (published 887,784; -0.26%)
* dual PRR:   12 of 70 columns  -> 409,390 B (published 404,168; +1.29%)

Both the geometric and the published sizes are reported by the Table 2
experiment; everything downstream (configuration times) uses the published
sizes as ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .bitstream import Bitstream, module_based_bitstreams
from .catalog import FpgaDevice, XC2VP50
from .fpga import PlacementError, Region

__all__ = [
    "Floorplan",
    "single_prr_floorplan",
    "dual_prr_floorplan",
    "uniform_prr_floorplan",
]


@dataclass
class Floorplan:
    """A named floorplan: device + static region + PRR column widths."""

    name: str
    device: FpgaDevice
    static_columns: int
    prr_columns: list[int]

    def __post_init__(self) -> None:
        if self.static_columns <= 0:
            raise ValueError("static region needs at least one column")
        if any(c <= 0 for c in self.prr_columns):
            raise ValueError("every PRR needs at least one column")
        total = self.static_columns + sum(self.prr_columns)
        if total > self.device.clb_columns:
            raise PlacementError(
                f"floorplan {self.name!r} needs {total} columns; device "
                f"{self.device.name} has {self.device.clb_columns}"
            )

    @property
    def n_prrs(self) -> int:
        return len(self.prr_columns)

    def partial_bitstream_bytes(self, prr_index: int) -> int:
        """Geometry-derived size of a partial bitstream for one PRR."""
        return self.device.partial_bitstream_bytes(self.prr_columns[prr_index])

    def static_power_w(self, model: "Any") -> float:
        """Always-on draw (W) of this floorplan under a power model.

        ``model`` is duck-typed (:class:`repro.power.model.PowerModel`
        shaped) so the hardware layer never imports :mod:`repro.power`:
        the base static draw plus one per-PRR increment per region.
        """
        return model.static_power_w(self.n_prrs)

    def bitstreams_for(
        self, prr_index: int, modules: list[str]
    ) -> list[Bitstream]:
        region = Region(
            f"prr{prr_index}",
            0,
            self.prr_columns[prr_index],
            reconfigurable=True,
        )
        return module_based_bitstreams(self.device, region, modules)


def single_prr_floorplan(device: FpgaDevice = XC2VP50) -> Floorplan:
    """The paper's single-PRR layout: one 26-column PRR."""
    return Floorplan(
        name="single_prr",
        device=device,
        static_columns=device.clb_columns - 26,
        prr_columns=[26],
    )


def dual_prr_floorplan(device: FpgaDevice = XC2VP50) -> Floorplan:
    """The paper's dual-PRR layout (Fig. 8): two 12-column PRRs."""
    return Floorplan(
        name="dual_prr",
        device=device,
        static_columns=device.clb_columns - 24,
        prr_columns=[12, 12],
    )


def uniform_prr_floorplan(
    n_prrs: int,
    columns_each: int,
    device: FpgaDevice = XC2VP50,
    static_columns: int | None = None,
) -> Floorplan:
    """A parametric layout for the PRR-granularity ablation.

    ``static_columns`` defaults to whatever the device has left over after
    the PRRs (at least the paper's dual-layout static share is recommended
    for realism, but the ablation explores the whole range).
    """
    if n_prrs <= 0:
        raise ValueError("need at least one PRR")
    used = n_prrs * columns_each
    if static_columns is None:
        static_columns = device.clb_columns - used
    return Floorplan(
        name=f"uniform_{n_prrs}x{columns_each}",
        device=device,
        static_columns=static_columns,
        prr_columns=[columns_each] * n_prrs,
    )
