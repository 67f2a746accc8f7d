"""Unit tests for multi-tasking / hardware virtualization on shared PRRs.

The FRTR half is :class:`MultitaskFrtrExecutor`; the PRTR half is
:func:`compare_multitask`'s service run, tested through that function.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.hardware import PUBLISHED_TABLE2, uniform_prr_floorplan
from repro.obs import metrics as obsm
from repro.rtr import (
    AppResult,
    AppSpec,
    MultitaskFrtrExecutor,
    MultitaskResult,
    compare_multitask,
    make_node,
    runner,
)
from repro.sim.trace import Phase
from repro.workloads import CallTrace, HardwareTask

DUAL_BYTES = PUBLISHED_TABLE2["dual_prr"].bitstream_bytes
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: ``obsm.snapshot()`` of :func:`compare_multitask` on the
#: ``examples/multitasking.py`` mix, recorded while the PRTR half still
#: ran on its own executor; the service adds only ``repro_service_*``.
EXAMPLE_METRICS = {
    "repro_icap_busy_seconds_total": {
        "kind": "counter", "unit": "seconds",
        "series": {"": 0.6725277307515878},
    },
    "repro_icap_bytes_total": {
        "kind": "counter", "unit": "bytes", "series": {"": 13741712.0},
    },
    "repro_icap_configurations_total": {
        "kind": "counter", "unit": "configurations",
        "series": {"": 34.0},
    },
}


def lib(k: int = 6, time: float = 0.03) -> dict[str, HardwareTask]:
    return {f"m{i}": HardwareTask(f"m{i}", time) for i in range(k)}


def app(name, mods, n, library=None, arrival=0.0) -> AppSpec:
    library = library or lib()
    return AppSpec(
        name,
        CallTrace([library[m] for m in list(mods) * n], name=name),
        arrival_time=arrival,
    )


def two_apps() -> list[AppSpec]:
    return [app("A", ["m0", "m1"], 10), app("B", ["m2", "m3"], 10)]


def prtr(apps: list[AppSpec], **options) -> MultitaskResult:
    """The PRTR half of :func:`compare_multitask`."""
    return compare_multitask(apps, **options)[1]


def assert_time_shared(result: MultitaskResult) -> None:
    """Every app's first task starts before any app's last task ends."""
    first: dict[str, float] = {}
    last: dict[str, float] = {}
    for span in result.timeline:
        if span.phase == Phase.TASK:
            first[span.note] = min(first.get(span.note, span.start),
                                   span.start)
            last[span.note] = max(last.get(span.note, span.end), span.end)
    assert set(first) == {a.name for a in result.apps}
    assert max(first.values()) < min(last.values()), (first, last)


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            AppSpec("", CallTrace([HardwareTask("m", 1.0)]))
        with pytest.raises(ValueError):
            AppSpec("a", CallTrace([HardwareTask("m", 1.0)]),
                    arrival_time=-1.0)
        with pytest.raises(ValueError):
            AppResult("a", arrival_time=5.0, completion_time=1.0,
                      n_calls=1, n_configs=0)

    def test_duplicate_names_rejected(self):
        apps = [app("A", ["m0"], 1), app("A", ["m1"], 1)]
        with pytest.raises(ValueError, match="duplicate"):
            MultitaskFrtrExecutor(make_node()).run(apps)

    def test_empty_apps_rejected(self):
        with pytest.raises(ValueError):
            MultitaskFrtrExecutor(make_node()).run([])
        with pytest.raises(ValueError):
            compare_multitask([])


class TestFrtrMultitask:
    def test_fully_serial_makespan(self):
        """FRTR makespan = total calls x (config + control + task)."""
        node = make_node()
        apps = two_apps()
        result = MultitaskFrtrExecutor(node, control_time=0.0).run(apps)
        t_cfg = node.full_config_time()
        total_calls = sum(a.trace.n_calls for a in apps)
        expected = total_calls * (t_cfg + 0.03)
        assert result.makespan == pytest.approx(expected, rel=1e-12)

    def test_every_call_reconfigures(self):
        result = MultitaskFrtrExecutor(make_node()).run(two_apps())
        assert result.total_configs == result.total_calls

    def test_arrival_times_respected(self):
        library = lib()
        apps = [
            app("A", ["m0"], 2, library),
            app("B", ["m1"], 2, library, arrival=100.0),
        ]
        result = MultitaskFrtrExecutor(make_node()).run(apps)
        b = next(a for a in result.apps if a.name == "B")
        assert b.completion_time >= 100.0
        assert b.turnaround < result.makespan


class TestPrtrMultitask:
    def test_concurrent_execution_on_prrs(self):
        """Two independent apps on two PRRs overlap their tasks: the
        makespan is far below the serial sum."""
        library = lib(2, time=0.1)
        apps = [
            app("A", ["m0"], 20, library),
            app("B", ["m1"], 20, library),
        ]
        result = prtr(apps, control_time=0.0, bitstream_bytes=DUAL_BYTES)
        serial_tasks = 2 * 20 * 0.1
        startup = result.notes["t_config_full"]
        # Concurrency: makespan ~ startup + configs + 20*0.1, well under
        # the serial sum.
        assert result.makespan < startup + serial_tasks * 0.75

    def test_module_sharing_across_apps(self):
        """Apps calling the same module configure it once (virtualization)."""
        library = lib(1, time=0.02)
        apps = [
            app("A", ["m0"], 15, library),
            app("B", ["m0"], 15, library),
        ]
        result = prtr(apps, bitstream_bytes=DUAL_BYTES)
        assert result.total_configs == 1
        assert result.notes["hit_ratio"] > 0.9

    def test_conservation_all_calls_complete(self):
        apps = [
            app("A", ["m0", "m1", "m2"], 8),
            app("B", ["m3", "m4"], 12),
            app("C", ["m5"], 5),
        ]
        result = prtr(
            apps,
            floorplan=uniform_prr_floorplan(4, 6),
            bitstream_bytes=DUAL_BYTES,
        )
        assert result.total_calls == 8 * 3 + 12 * 2 + 5
        by_name = {a.name: a for a in result.apps}
        assert by_name["A"].n_calls == 24

    def test_more_apps_than_prrs_no_deadlock(self):
        """3 concurrent apps on 2 PRRs: the grant queue time-shares the
        PRRs call by call instead of running the apps one after another,
        and the run completes."""
        library = lib(3, time=0.05)
        apps = [
            app("A", ["m0"], 6, library),
            app("B", ["m1"], 6, library),
            app("C", ["m2"], 6, library),
        ]
        result = prtr(apps, bitstream_bytes=DUAL_BYTES)
        assert result.total_calls == 18
        assert result.makespan > 0
        assert_time_shared(result)

    def test_icap_serializes_configs(self, monkeypatch):
        apps = [
            app("A", ["m0", "m1"], 6),
            app("B", ["m2", "m3"], 6),
        ]
        nodes = []

        def make(*args, **kwargs):
            nodes.append(make_node(*args, **kwargs))
            return nodes[-1]

        monkeypatch.setattr(runner, "make_node", make)
        result = prtr(
            apps,
            floorplan=uniform_prr_floorplan(4, 6),
            bitstream_bytes=DUAL_BYTES,
        )
        node = nodes[-1]  # the PRTR half's
        # The CONFIG timeline spans include mutex-wait time and may
        # overlap on the wall clock; actual ICAP occupancy must not.
        node.icap.icap_mutex.assert_no_overlap()
        intervals = sorted(
            node.icap.icap_mutex.intervals, key=lambda iv: iv.start
        )
        assert len(intervals) == result.total_configs
        for a, b in zip(intervals, intervals[1:]):
            assert b.start >= a.end - 1e-15

    def test_single_prr_multitask_still_works(self):
        from repro.hardware import single_prr_floorplan

        apps = [app("A", ["m0"], 3), app("B", ["m1"], 3)]
        result = prtr(
            apps,
            floorplan=single_prr_floorplan(),
            bitstream_bytes=PUBLISHED_TABLE2["single_prr"].bitstream_bytes,
        )
        assert result.total_calls == 6
        assert_time_shared(result)


class TestCompareMultitask:
    def test_prtr_crushes_frtr(self):
        """The Section 5 thesis: multi-tasking is where PRTR shines."""
        apps = [
            app("A", ["m0", "m1"], 15),
            app("B", ["m1", "m2"], 15),
            app("C", ["m3", "m4", "m5"], 10),
        ]
        frtr, prtr = compare_multitask(
            apps,
            floorplan=uniform_prr_floorplan(4, 6),
            bitstream_bytes=DUAL_BYTES,
            control_time=1e-5,
        )
        assert frtr.makespan / prtr.makespan > 20
        assert prtr.throughput > frtr.throughput

    def test_metrics_sane(self):
        apps = two_apps()
        frtr, prtr = compare_multitask(
            apps, bitstream_bytes=DUAL_BYTES
        )
        for result in (frtr, prtr):
            assert result.mean_turnaround <= result.max_turnaround
            assert result.unfairness() >= 1.0
            assert result.total_calls == 40

    def test_hardware_metrics_pinned(self):
        path = EXAMPLES / "multitasking.py"
        spec = importlib.util.spec_from_file_location("_multitasking", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        with obsm.observed():
            compare_multitask(
                module.build_apps(),
                floorplan=uniform_prr_floorplan(4, 6),
                bitstream_bytes=DUAL_BYTES,
                control_time=1e-5,
            )
            snapshot = obsm.snapshot()
        assert {
            name: value for name, value in snapshot.items()
            if not name.startswith("repro_service_")
        } == EXAMPLE_METRICS

    def test_deterministic(self):
        apps = [app("A", ["m0", "m1", "m2"], 5), app("B", ["m2", "m0"], 5)]
        r1 = compare_multitask(apps, bitstream_bytes=DUAL_BYTES)
        r2 = compare_multitask(apps, bitstream_bytes=DUAL_BYTES)
        assert r1[1].makespan == r2[1].makespan
        assert r1[0].makespan == r2[0].makespan


class TestDegenerateStats:
    """Zero-call / empty-mix guards on the derived statistics."""

    def empty_result(self, apps=()):
        from repro.sim.trace import Timeline

        return MultitaskResult(
            mode="prtr", apps=list(apps), makespan=0.0,
            timeline=Timeline(),
        )

    def test_no_apps_is_nan_free(self):
        result = self.empty_result()
        assert result.throughput == 0.0
        assert result.mean_turnaround == 0.0
        assert result.max_turnaround == 0.0
        assert result.unfairness() == 1.0
        assert result.total_calls == 0

    def test_zero_turnaround_apps_are_fair(self):
        from repro.rtr.multitask import AppResult

        instant = AppResult(
            name="a", arrival_time=1.0, completion_time=1.0,
            n_calls=0, n_configs=0,
        )
        result = self.empty_result([instant])
        assert result.unfairness() == 1.0
        assert result.throughput == 0.0

    def test_mixed_zero_and_positive_turnaround_is_inf(self):
        from repro.rtr.multitask import AppResult

        apps = [
            AppResult(name="a", arrival_time=0.0, completion_time=0.0,
                      n_calls=0, n_configs=0),
            AppResult(name="b", arrival_time=0.0, completion_time=2.0,
                      n_calls=3, n_configs=1),
        ]
        result = MultitaskResult(
            mode="prtr", apps=apps, makespan=2.0,
            timeline=self.empty_result().timeline,
        )
        assert result.unfairness() == float("inf")
        assert result.throughput == 1.5
