"""Unit tests for :mod:`repro.hardware.prr` and :mod:`repro.hardware.node`."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.hardware import (
    Bitstream,
    Floorplan,
    MS,
    PUBLISHED_TABLE2,
    PlacementError,
    XC2VP50,
    XD1Node,
    dual_prr_floorplan,
    single_prr_floorplan,
    uniform_prr_floorplan,
)
from repro.rtr.runner import make_node
from repro.sim import Simulator
from repro.sim.resources import BandwidthChannel, MutexResource

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


class TestFloorplans:
    def test_single_prr_size_near_published(self):
        plan = single_prr_floorplan()
        size = plan.partial_bitstream_bytes(0)
        published = PUBLISHED_TABLE2["single_prr"].bitstream_bytes
        assert abs(size - published) / published < 0.01

    def test_dual_prr_size_near_published(self):
        plan = dual_prr_floorplan()
        for i in range(2):
            size = plan.partial_bitstream_bytes(i)
            published = PUBLISHED_TABLE2["dual_prr"].bitstream_bytes
            assert abs(size - published) / published < 0.015

    def test_static_only_has_no_prrs(self):
        plan = Floorplan(
            name="static_only",
            device=XC2VP50,
            static_columns=XC2VP50.clb_columns,
            prr_columns=[],
        )
        assert plan.n_prrs == 0
        assert plan.static_columns == XC2VP50.clb_columns

    def test_overcommitted_floorplan_rejected(self):
        with pytest.raises(PlacementError, match="columns"):
            Floorplan("bad", XC2VP50, static_columns=60,
                      prr_columns=[10, 10])

    def test_validation(self):
        with pytest.raises(ValueError):
            Floorplan("bad", XC2VP50, static_columns=0, prr_columns=[1])
        with pytest.raises(ValueError):
            Floorplan("bad", XC2VP50, static_columns=1, prr_columns=[0])

    def test_uniform_floorplan(self):
        plan = uniform_prr_floorplan(4, 6)
        assert plan.n_prrs == 4
        assert plan.static_columns == XC2VP50.clb_columns - 24

    def test_uniform_requires_prrs(self):
        with pytest.raises(ValueError):
            uniform_prr_floorplan(0, 6)

    def test_bitstreams_for_modules(self):
        plan = dual_prr_floorplan()
        out = plan.bitstreams_for(0, ["median", "sobel"])
        assert len(out) == 2
        assert out[0].nbytes == out[1].nbytes


class TestXD1Node:
    def test_default_assembly(self):
        node = XD1Node(Simulator())
        assert node.floorplan.name == "dual_prr"
        assert node.device is XC2VP50

    def test_full_config_times_match_table2(self):
        node = XD1Node(Simulator())
        assert node.full_config_time(estimated=True) == pytest.approx(
            36.09 * MS, rel=1e-3
        )
        assert node.full_config_time(estimated=False) == pytest.approx(
            1678.04 * MS, rel=1e-6
        )

    def test_partial_config_times_match_table2(self):
        node = XD1Node(Simulator())
        bs = Bitstream(
            "dual", PUBLISHED_TABLE2["dual_prr"].bitstream_bytes,
            region="prr0", kind="module",
        )
        assert node.partial_config_time(bs, estimated=True) == pytest.approx(
            6.12 * MS, rel=1e-3
        )
        assert node.partial_config_time(bs, estimated=False) == pytest.approx(
            19.77 * MS, rel=1e-3
        )

    def test_partial_config_requires_partial(self):
        node = XD1Node(Simulator())
        with pytest.raises(ValueError, match="partial"):
            node.partial_config_time(node.full_image)

    def test_vendor_api_blocks_partials_on_selectmap(self):
        node = XD1Node(Simulator())
        bs = node.prr_bitstream(0, "median")
        with pytest.raises(ValueError, match="rejects partial"):
            node.selectmap.configure_time(bs)

    def test_no_vendor_api_allows_partials(self):
        node = XD1Node(Simulator(), vendor_api=False)
        bs = node.prr_bitstream(0, "median")
        assert node.selectmap.configure_time(bs) > 0


def _icap_configure(call: ast.Call) -> bool:
    """``<...>.icap.configure(...)`` or ``icap.configure(...)``."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr != "configure":
        return False
    owner = func.value
    return (isinstance(owner, ast.Attribute) and owner.attr == "icap") or (
        isinstance(owner, ast.Name) and owner.id == "icap"
    )


class TestOneConfigurationPath:
    """The node performs every configuration attempt; ports only time."""

    def test_node_builds_only_the_link_channels(self, monkeypatch):
        built = []
        init = BandwidthChannel.__init__

        def counting(self, sim, name, *args, **kwargs):
            built.append(name)
            init(self, sim, name, *args, **kwargs)

        monkeypatch.setattr(BandwidthChannel, "__init__", counting)
        node = make_node()
        assert sorted(built) == ["link.in", "link.out"]
        assert node.link.config_stream is node.link.inbound

    def test_node_builds_only_what_a_run_reads(self, monkeypatch):
        """One mutex of its own, the ICAP's; a floorplan is column widths.

        The two link channels each own a mutex too; no SRAM bank, FIFO,
        placement model or bus macro is built.
        """
        built = []
        init = MutexResource.__init__

        def counting(self, sim, name):
            built.append(name)
            init(self, sim, name)

        monkeypatch.setattr(MutexResource, "__init__", counting)
        make_node()
        assert sorted(built) == ["icap", "link.in.mutex", "link.out.mutex"]
        assert [f.name for f in dataclasses.fields(Floorplan)] == [
            "name", "device", "static_columns", "prr_columns",
        ]

    def test_only_the_node_draws_aborts_or_streams(self):
        callers = set()
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                attr = getattr(call.func, "attr", None)
                if attr in ("port_aborted", "span_aborted") or (
                    _icap_configure(call)
                ):
                    callers.add(path.relative_to(SRC).as_posix())
        assert callers == {"hardware/node.py"}
