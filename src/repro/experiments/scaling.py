"""Technology-scaling study: how the PRTR bounds move across devices.

An extension of Section 5's discussion.  For each catalog device we lay
out a dual-PRR floorplan (the same 12/70 column share as the paper's
XD1 layout), evaluate the configuration-time models with the device's
*own* port generation, and locate the performance bounds:

* **within a family** (Virtex-II Pro XC2VP20 -> XC2VP100), the full
  bitstream grows with the device while the PRR share stays fixed, so
  ``X_PRTR`` barely moves — the *ratio* bound is set by the floorplan
  share, not the device size;
* **across generations** (Virtex-4/5's 32-bit @ 100 MHz ports), both
  absolute times collapse ~6x; the speedup *ratio* is preserved, but the
  task-time *range* over which PRTR pays (``T_task < T_FRTR``) shrinks
  proportionally — the formal version of the paper's observation that
  faster configuration makes FRTR tolerable for ever more workloads.

Two overhead scenarios are reported: ``wire`` (estimated; port-limited)
and ``xd1_api`` (the calibrated Cray software overhead applied to every
device — "what if the vendor API never improves").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..analysis.calibration import fit_icap_handshake, fit_vendor_api
from ..hardware.devices import DEVICES, CatalogEntry
from ..hardware.prr import Floorplan
from ..model.parameters import ModelParameters
from ..model.speedup import asymptotic_speedup

__all__ = ["ScalingPoint", "run", "dual_share_floorplan"]

#: the paper's dual-PRR column share on the XC2VP50 (12 of 70 columns)
DUAL_PRR_SHARE = 12.0 / 70.0


@dataclass(frozen=True)
class ScalingPoint:
    """One device's operating point under a given overhead scenario."""

    device: str
    family: str
    scenario: str  # "wire" | "xd1_api"
    full_bitstream_bytes: int
    partial_bitstream_bytes: int
    t_frtr: float
    t_prtr: float

    @property
    def x_prtr(self) -> float:
        return self.t_prtr / self.t_frtr

    @property
    def peak_speedup(self) -> float:
        return float(
            asymptotic_speedup(
                ModelParameters(
                    x_task=self.x_prtr, x_prtr=self.x_prtr, hit_ratio=0.0
                )
            )
        )

    @property
    def payoff_range_s(self) -> float:
        """Task times below ``T_FRTR`` get >= ~2x from PRTR; this is the
        absolute width of that regime (seconds)."""
        return self.t_frtr


def dual_share_floorplan(entry: CatalogEntry) -> Floorplan:
    """A dual-PRR layout with the paper's column share on any device."""
    device = entry.device
    columns = max(1, round(DUAL_PRR_SHARE * device.clb_columns))
    static = device.clb_columns - 2 * columns
    if static < 1:
        raise ValueError(f"device {device.name} too narrow for dual PRRs")
    return Floorplan(
        name=f"dual_{device.name}",
        device=device,
        static_columns=static,
        prr_columns=[columns, columns],
    )


def run(
    device_names: tuple[str, ...] = (
        "XC2VP20", "XC2VP30", "XC2VP50", "XC2VP70", "XC2VP100",
        "V4LX60", "V5LX110",
    ),
    scenarios: tuple[str, ...] = ("wire", "xd1_api"),
) -> list[ScalingPoint]:
    """Evaluate every (device, scenario) operating point."""
    api = fit_vendor_api()
    points = []
    for name in device_names:
        entry = DEVICES[name]
        device = entry.device
        plan = dual_share_floorplan(entry)
        partial_bytes = plan.partial_bitstream_bytes(0)
        wire_full = device.full_bitstream_bytes / entry.ports.selectmap_bandwidth
        # ICAP-controller model at the device's own ICAP rate; the BRAM
        # handshake is fabric logic, assumed constant per chunk.
        t_prtr = replace(
            fit_icap_handshake(), icap_bandwidth=entry.ports.icap_bandwidth
        ).measured_time(partial_bytes)
        for scenario in scenarios:
            if scenario == "wire":
                t_frtr = wire_full
                t_partial = partial_bytes / entry.ports.icap_bandwidth
            elif scenario == "xd1_api":
                t_frtr = wire_full + api.time(device.full_bitstream_bytes)
                t_partial = t_prtr
            else:
                raise ValueError(f"unknown scenario {scenario!r}")
            points.append(
                ScalingPoint(
                    device=name,
                    family=entry.ports.family,
                    scenario=scenario,
                    full_bitstream_bytes=device.full_bitstream_bytes,
                    partial_bitstream_bytes=partial_bytes,
                    t_frtr=t_frtr,
                    t_prtr=t_partial,
                )
            )
    return points
