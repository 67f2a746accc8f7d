"""Unit tests for :mod:`repro.sim.trace`."""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import fig9
from repro.hardware import PUBLISHED_TABLE2
from repro.rtr import runner
from repro.sim import Phase, Span, Timeline, trace


class TestSpan:
    def test_duration(self):
        s = Span("task", 1.0, 3.5)
        assert s.duration == pytest.approx(2.5)

    def test_backwards_span_rejected(self):
        with pytest.raises(ValueError):
            Span("task", 2.0, 1.0)

    def test_zero_length_span_allowed(self):
        assert Span("control", 1.0, 1.0).duration == 0.0

    def test_overlap(self):
        a = Span("task", 0.0, 2.0)
        b = Span("config", 1.0, 3.0)
        c = Span("task", 2.0, 4.0)
        assert a.overlaps(b)
        assert not a.overlaps(c)


class TestTimeline:
    def make(self) -> Timeline:
        tl = Timeline()
        tl.add(Phase.CONFIG, 0.0, 2.0, task="m")
        tl.add(Phase.CONTROL, 2.0, 2.1, task="m")
        tl.add(Phase.TASK, 2.1, 5.0, task="m", lane="prr")
        tl.add(Phase.CONFIG, 2.1, 4.0, task="s", lane="icap")
        return tl

    def test_queries(self):
        tl = self.make()
        assert len(tl) == 4
        assert len(tl.by_phase(Phase.CONFIG)) == 2
        assert len(tl.by_lane("main")) == 2
        assert len(tl.by_task("m")) == 3
        assert tl.lanes() == ["main", "prr", "icap"]

    def test_total_sums_durations(self):
        tl = self.make()
        assert tl.total(Phase.CONFIG) == pytest.approx(2.0 + 1.9)
        assert tl.total() == pytest.approx(2.0 + 0.1 + 2.9 + 1.9)

    def test_busy_time_merges_overlaps(self):
        tl = Timeline()
        tl.add("a", 0.0, 2.0)
        tl.add("b", 1.0, 3.0)
        tl.add("c", 5.0, 6.0)
        assert tl.busy_time() == pytest.approx(3.0 + 1.0)

    def test_makespan_and_end(self):
        tl = self.make()
        assert tl.makespan == pytest.approx(5.0)
        assert tl.end_time == pytest.approx(5.0)
        assert Timeline().makespan == 0.0

    def test_lane_exclusive_ok(self):
        tl = self.make()
        tl.assert_lane_exclusive("main")  # touching spans are fine

    def test_lane_exclusive_detects_overlap(self):
        tl = Timeline()
        tl.add("a", 0.0, 2.0, lane="x")
        tl.add("b", 1.0, 3.0, lane="x")
        with pytest.raises(AssertionError, match="overlapping"):
            tl.assert_lane_exclusive("x")

    def test_to_rows_sorted(self):
        tl = self.make()
        rows = tl.to_rows()
        assert [r["start"] for r in rows] == sorted(r["start"] for r in rows)
        assert set(rows[0]) == {
            "lane", "phase", "task", "start", "end", "duration", "note"
        }

    def test_gantt_renders(self):
        tl = self.make()
        text = tl.gantt(width=40)
        assert "main" in text and "icap" in text
        assert "C" in text and "T" in text

    def test_gantt_empty(self):
        assert Timeline().gantt() == "(empty timeline)"


class TestFreezeAndMerged:
    """Regression tests for the aliasable-span-list pitfall."""

    def make(self) -> Timeline:
        tl = Timeline()
        tl.add(Phase.CONFIG, 0.0, 1.0, task="m")
        return tl

    def test_freeze_rejects_add(self):
        tl = self.make().freeze()
        assert tl.frozen
        with pytest.raises(TypeError, match="frozen"):
            tl.add(Phase.TASK, 1.0, 2.0)

    def test_freeze_is_idempotent_and_returns_self(self):
        tl = self.make()
        assert tl.freeze() is tl
        assert tl.freeze() is tl
        assert len(tl) == 1

    def test_freeze_decouples_aliased_list(self):
        """The regression: a shared spans list mutated behind the back
        of a finalized timeline must not reach the frozen copy."""
        shared: list = []
        tl = Timeline(spans=shared)
        tl.add(Phase.CONFIG, 0.0, 1.0)
        tl.freeze()
        shared.append(Span(Phase.TASK, 1.0, 2.0))
        assert len(tl) == 1
        assert all(s.phase == Phase.CONFIG for s in tl)

    def test_unfrozen_timeline_still_aliases(self):
        # documents the hazard freeze() exists to close
        shared: list = []
        tl = Timeline(spans=shared)
        shared.append(Span(Phase.TASK, 0.0, 1.0))
        assert len(tl) == 1

    def test_merged_copy_is_independent_and_mutable(self):
        tl = self.make().freeze()
        copy = tl.merged()
        assert not copy.frozen
        copy.add(Phase.TASK, 1.0, 2.0)
        assert len(copy) == 2
        assert len(tl) == 1
        # spans themselves are shared (they are frozen dataclasses)
        assert copy.spans[0] is tl.spans[0]

    def test_executor_results_come_back_frozen(self):
        from repro.rtr.runner import compare
        from repro.workloads.task import CallTrace, HardwareTask

        lib = [HardwareTask(n, 0.05) for n in ("a", "b")]
        trace = CallTrace([lib[i % 2] for i in range(4)], name="t")
        comparison = compare(trace)
        assert comparison.frtr.timeline.frozen
        assert comparison.prtr.timeline.frozen
        with pytest.raises(TypeError):
            comparison.prtr.timeline.add(Phase.TASK, 0.0, 1.0)


#: sha256 of the 90-call fig9 compare's FRTR and PRTR spans, recorded
#: when every ``Timeline.add`` still built its span on the spot
FIG9_SPANS_SHA256 = (
    "04da9ff16ce7b221852c8e1a9dc7d9e5fe8e351b2d685829f8415757b43220c0",
    "29145a916b128186a7116e999a2aa1a8541b367a47f99dea64147fd1142d31a1",
)


def _sha256(spans: list[Span]) -> str:
    text = "\n".join(
        "|".join([s.phase, s.start.hex(), s.end.hex(), s.lane, s.task, s.note])
        for s in spans
    )
    return hashlib.sha256(text.encode()).hexdigest()


class TestSpansOnRead:
    """``add`` keeps a tuple; the spans are built on the first read."""

    @pytest.fixture
    def built(self, monkeypatch):
        made: list[Span] = []

        def counting(*args, **kwargs):
            made.append(Span(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(trace, "Span", counting)
        return made

    def make(self) -> Timeline:
        tl = Timeline()
        tl.add(Phase.CONFIG, 0.0, 1.0, task="m", lane="icap", note="n")
        tl.add(Phase.TASK, 1.0, 2.5, task="m")
        return tl

    def test_fig9_compare_builds_spans_only_when_read(self, built):
        panel = fig9.panel("measured")
        comparison = runner.compare(
            fig9._cyclic_trace(0.1 * panel.t_frtr, 90),
            estimated=panel.estimated,
            control_time=panel.t_control,
            force_miss=True,
            bitstream_bytes=PUBLISHED_TABLE2["dual_prr"].bitstream_bytes,
        )
        assert built == []
        runs = (comparison.frtr, comparison.prtr)
        for result, digest in zip(runs, FIG9_SPANS_SHA256):
            before = len(built)
            spans = result.timeline.spans
            assert len(spans) == 270
            assert all(a is b for a, b in zip(built[before:], spans))
            assert len(built) == before + len(spans)
            assert _sha256(spans) == digest
            assert list(result.timeline) == spans
            assert len(built) == before + len(spans)

    @pytest.mark.parametrize(
        "read",
        [
            len,
            list,
            lambda tl: tl == Timeline(),
            lambda tl: tl.merged(),
            lambda tl: tl.by_phase(Phase.TASK),
            lambda tl: tl.to_rows(),
            lambda tl: tl.gantt(),
        ],
        ids=["len", "iter", "eq", "merged", "query", "to_rows", "gantt"],
    )
    def test_every_read_builds_the_pending_spans(self, built, read):
        tl = self.make()
        assert built == []
        read(tl)
        assert built == [
            Span(Phase.CONFIG, 0.0, 1.0, lane="icap", task="m", note="n"),
            Span(Phase.TASK, 1.0, 2.5, task="m"),
        ]
        assert tl.spans == built

    def test_freeze_builds_nothing(self, built):
        tl = self.make().freeze()
        assert built == []
        assert len(tl) == 2

    def test_frozen_add_raises_and_builds_nothing(self, built):
        tl = self.make().freeze()
        with pytest.raises(TypeError, match="frozen"):
            tl.add(Phase.TASK, 3.0, 4.0)
        assert built == []
        assert len(tl) == 2

    def test_backwards_span_raises_at_add(self, built):
        tl = self.make()
        message = (
            "span ends before it starts: Span(phase='task', start=2.0, "
            "end=1.0, lane='main', task='m', note='')"
        )
        with pytest.raises(ValueError) as err:
            tl.add(Phase.TASK, 2.0, 1.0, task="m")
        assert str(err.value) == message
        assert len(tl) == 2
