"""The parallel sweep engine: bit-identity, sharding, kill-and-resume.

The tentpole guarantee under test: ``workers=N`` is **bit-identical**
to the serial walk — same point list, same audit report, same merged
journal bytes — including after a kill at any shard boundary and a
resume under any worker count (parallel -> serial and serial ->
parallel both absorb leftover segment journals).

When ``REPRO_ARTIFACT_DIR`` is set (the CI parallel kill-and-resume
job), the journals under test are copied there for upload.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace

import pytest

from repro.analysis import reliability
from repro.cli import main
from repro.runtime.crashsafe import crash_safe_fault_sweep, run_checkpointed
from repro.runtime.invariants import InvariantError, Violation
from repro.runtime.journal import (
    JOURNAL_NAME,
    RunJournal,
    list_segments,
    segment_name,
)
from repro.runtime.parallel import (
    fork_available,
    merge_snapshots,
    parallel_map,
    shard_indices,
)
from repro.runtime.watchdog import Watchdog

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="parallel engine needs the fork method"
)

RATES = (0.0, 0.01, 0.05)
HITS = (0.0, 0.9)
SWEEP_KW = dict(n_calls=8, task_time=0.05, seed=3)
N_POINTS = len(RATES) * len(HITS)
WORKERS = 4

GRID = list(range(10))
META = {"kind": "squares", "n": len(GRID)}


def square(x):
    return {"value": x * x}


def checkpointed(run_dir, **kw):
    return run_checkpointed(
        str(run_dir),
        GRID,
        square,
        key_of=str,
        meta=META,
        **kw,
    )


def journal_bytes(run_dir):
    return (run_dir / JOURNAL_NAME).read_bytes()


def export_artifacts(label: str, run_dir) -> None:
    """Copy journals for CI upload (no-op locally)."""
    target = os.environ.get("REPRO_ARTIFACT_DIR")
    if not target:
        return
    dest = os.path.join(target, label)
    os.makedirs(dest, exist_ok=True)
    names = [JOURNAL_NAME, "invariants.json"]
    names += list(list_segments(str(run_dir)).values())
    for name in names:
        source = os.path.join(str(run_dir), name)
        if os.path.exists(source):
            shutil.copy(source, os.path.join(dest, name))


class TestParallelMap:
    def test_matches_serial_map(self):
        items = list(range(23))
        assert parallel_map(square, items, workers=4) == [
            square(x) for x in items
        ]

    def test_more_workers_than_items(self):
        assert parallel_map(square, [7, 8], workers=16) == [
            square(7), square(8)
        ]

    def test_serial_fallbacks(self):
        assert parallel_map(square, [], workers=4) == []
        assert parallel_map(square, [5], workers=4) == [square(5)]
        assert parallel_map(square, [5, 6], workers=1) == [
            square(5), square(6)
        ]

    def test_worker_error_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("bad cell")
            return x

        with pytest.raises(RuntimeError, match="bad cell"):
            parallel_map(boom, list(range(6)), workers=3)


def strict_square(x):
    """``square``, but cell 3 fails a (strict) invariant audit."""
    if x == 3:
        raise InvariantError([Violation("hybrid-exactness", f"cell {x}")])
    return square(x)


class TestWorkerInvariantErrors:
    """A worker's InvariantError reaches the parent as InvariantError
    (exit 1 and one ``repro: invariant violation:`` line in the CLI), in
    both engines, exactly as a serial walk raises it."""

    @pytest.fixture
    def nudged_replay(self, monkeypatch):
        real = reliability._replayed_fault_point

        def nudged(*args, **kwargs):
            point = real(*args, **kwargs)
            return replace(point, prtr_time=point.prtr_time * (1 + 1e-12))

        monkeypatch.setattr(reliability, "_replayed_fault_point", nudged)

    def test_parallel_map_reraises_the_violations(self):
        with pytest.raises(InvariantError, match="cell 3") as excinfo:
            parallel_map(strict_square, list(range(6)), workers=2)
        assert excinfo.value.violations == [
            Violation("hybrid-exactness", "cell 3")
        ]

    def test_run_sharded_reraises_the_violations(self, tmp_path):
        with pytest.raises(InvariantError, match="cell 3"):
            run_checkpointed(
                str(tmp_path), GRID, strict_square, key_of=str, meta=META,
                workers=2,
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_verify_mismatch_in_fault_grid(self, nudged_replay, workers):
        with pytest.raises(InvariantError, match="hybrid-exactness"):
            reliability.sweep_fault_hit_grid(
                RATES, HITS, hybrid="verify", workers=workers, **SWEEP_KW
            )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_verify_mismatch_in_crash_safe_sweep(
        self, nudged_replay, workers, tmp_path
    ):
        with pytest.raises(InvariantError, match="hybrid-exactness"):
            crash_safe_fault_sweep(
                str(tmp_path), RATES, HITS, hybrid="verify",
                workers=workers, **SWEEP_KW
            )

    def test_cli_reports_one_line(self, nudged_replay, tmp_path, capsys):
        rc = main([
            "sweep", "--run-dir", str(tmp_path / "r"), "--rates", "0,0.01",
            "--hit-ratios", "0,0.9", "--calls", "8", "--quiet",
            "--hybrid", "verify", "--workers", "2",
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: invariant violation: ")
        assert err.count("\n") == 1

    def test_other_worker_errors_stay_runtime_errors(self, tmp_path):
        def boom(x):
            if x == 3:
                raise ValueError("bad cell")
            return square(x)

        with pytest.raises(RuntimeError, match="bad cell") as excinfo:
            run_checkpointed(
                str(tmp_path), GRID, boom, key_of=str, meta=META, workers=2
            )
        assert not isinstance(excinfo.value, InvariantError)


class TestShardIndices:
    def test_round_robin_partition(self):
        shards = shard_indices(10, 4)
        assert shards == [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]]
        assert sorted(i for s in shards for i in s) == list(range(10))

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            shard_indices(4, 0)


class TestMergeSnapshots:
    def test_empty_is_none(self):
        assert merge_snapshots([]) is None
        assert merge_snapshots([{}, {}]) is None

    def test_counters_sum_and_gauges_last_write_wins(self):
        a = {
            "calls": {"kind": "counter", "unit": "1", "series": {"": 2.0}},
            "depth": {"kind": "gauge", "unit": "1", "series": {"": 5.0}},
        }
        b = {
            "calls": {"kind": "counter", "unit": "1", "series": {"": 3.0}},
            "depth": {"kind": "gauge", "unit": "1", "series": {"": 9.0}},
        }
        merged = merge_snapshots([a, b])
        assert merged["calls"]["series"][""] == 5.0
        assert merged["depth"]["series"][""] == 9.0

    def test_histograms_merge_buckets(self):
        def hist(buckets, count, total):
            return {
                "kind": "histogram",
                "unit": "s",
                "series": {
                    "": {"buckets": buckets, "count": count, "sum": total}
                },
            }

        merged = merge_snapshots(
            [
                {"lat": hist({"1": 2, "inf": 3}, 5, 1.5)},
                {"lat": hist({"1": 1, "2": 4}, 5, 2.5)},
            ]
        )
        state = merged["lat"]["series"][""]
        assert state["buckets"] == {"1": 3, "inf": 3, "2": 4}
        assert state["count"] == 10
        assert state["sum"] == 4.0


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("serial")
        outcome = crash_safe_fault_sweep(str(run_dir), RATES, HITS, **SWEEP_KW)
        export_artifacts("parallel-reference", run_dir)
        return outcome, run_dir

    def test_workers_match_serial_exactly(self, serial, tmp_path):
        ref, ref_dir = serial
        outcome = crash_safe_fault_sweep(
            str(tmp_path), RATES, HITS, workers=WORKERS, **SWEEP_KW
        )
        assert outcome.complete
        assert outcome.computed_points == N_POINTS
        # Point list, audit report and merged journal: all bit-identical.
        assert outcome.results == ref.results
        assert outcome.audit.as_dict() == ref.audit.as_dict()
        assert (tmp_path / JOURNAL_NAME).read_bytes() == (
            ref_dir / JOURNAL_NAME
        ).read_bytes()
        assert (tmp_path / "invariants.json").read_bytes() == (
            ref_dir / "invariants.json"
        ).read_bytes()
        export_artifacts("parallel-merged", tmp_path)

    def test_merge_audit_recorded_and_clean(self, serial, tmp_path):
        outcome = crash_safe_fault_sweep(
            str(tmp_path), RATES, HITS, workers=WORKERS, **SWEEP_KW
        )
        assert outcome.merge_audit is not None
        assert outcome.merge_audit.ok
        assert "shard-merge" in outcome.merge_audit.checked
        # Serial walks have no shards to audit.
        ref, _ = serial
        assert ref.merge_audit is None

    def test_segments_removed_after_merge(self, serial, tmp_path):
        crash_safe_fault_sweep(
            str(tmp_path), RATES, HITS, workers=WORKERS, **SWEEP_KW
        )
        assert list_segments(str(tmp_path)) == {}


def seed_partial_run(run_dir, done: int, workers: int = WORKERS):
    """A run dir as left by a run killed after ``done`` points.

    Workers advance their shards in lockstep, so the completed set is
    the first ``done`` points of the round-robin interleaving — every
    ``done`` in ``0..len(GRID)`` exercises a different shard boundary.
    """
    journal = RunJournal.create(str(run_dir), META)
    journal.close()
    shards = shard_indices(len(GRID), workers)
    order = [
        shard[depth]
        for depth in range(max(len(s) for s in shards))
        for shard in shards
        if depth < len(shard)
    ]
    for position, index in enumerate(order[:done]):
        shard = position % workers
        name = segment_name(shard)
        if os.path.exists(os.path.join(str(run_dir), name)):
            segment = RunJournal.load(str(run_dir), name=name)
        else:
            segment = RunJournal.create(str(run_dir), META, name=name)
        segment.record(str(GRID[index]), square(GRID[index]))
        segment.close()


class TestKillAndResume:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        run_dir = tmp_path_factory.mktemp("checkpoint-ref")
        outcome = checkpointed(run_dir)
        assert outcome.complete
        return outcome, journal_bytes(run_dir)

    @pytest.mark.parametrize("done", range(len(GRID) + 1))
    def test_parallel_resume_at_every_shard_boundary(
        self, reference, tmp_path, done
    ):
        ref, ref_bytes = reference
        seed_partial_run(tmp_path, done)
        resumed = checkpointed(tmp_path, resume=True, workers=WORKERS)
        assert resumed.complete
        assert resumed.results == ref.results
        assert resumed.resumed_points == done
        assert resumed.computed_points == len(GRID) - done
        assert journal_bytes(tmp_path) == ref_bytes
        assert list_segments(str(tmp_path)) == {}

    @pytest.mark.parametrize("done", range(len(GRID) + 1))
    def test_serial_resume_absorbs_segments(self, reference, tmp_path, done):
        ref, ref_bytes = reference
        seed_partial_run(tmp_path, done)
        resumed = checkpointed(tmp_path, resume=True)
        assert resumed.complete
        assert resumed.results == ref.results
        assert resumed.resumed_points == done
        assert journal_bytes(tmp_path) == ref_bytes
        assert list_segments(str(tmp_path)) == {}

    def test_torn_segment_tail_recovers(self, reference, tmp_path):
        ref, ref_bytes = reference
        seed_partial_run(tmp_path, 6)
        # Tear the last record of shard 0 mid-write, as a kill mid-append
        # would: the loader must drop the tail and the resume recompute it.
        seg = tmp_path / segment_name(0)
        text = seg.read_text()
        lines = text.splitlines()
        seg.write_text("\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]))
        torn = RunJournal.load(str(tmp_path), name=segment_name(0))
        assert torn.dropped_lines == 1
        resumed = checkpointed(tmp_path, resume=True, workers=WORKERS)
        assert resumed.complete
        assert resumed.results == ref.results
        assert journal_bytes(tmp_path) == ref_bytes

    def test_interrupted_parallel_sweep_resumes_bit_identical(
        self, tmp_path
    ):
        victim = tmp_path / "victim"
        out = crash_safe_fault_sweep(
            str(victim), RATES, HITS, workers=WORKERS, deadline_s=0.0,
            **SWEEP_KW
        )
        assert out.interrupted is not None
        assert not RunJournal.load(str(victim)).sealed
        export_artifacts("parallel-interrupted", victim)

        resumed = crash_safe_fault_sweep(
            str(victim), RATES, HITS, workers=WORKERS, resume=True,
            **SWEEP_KW
        )
        ref_dir = tmp_path / "ref"
        ref = crash_safe_fault_sweep(str(ref_dir), RATES, HITS, **SWEEP_KW)
        assert resumed.complete
        assert resumed.results == ref.results
        assert (victim / JOURNAL_NAME).read_bytes() == (
            ref_dir / JOURNAL_NAME
        ).read_bytes()
        export_artifacts("parallel-resumed", victim)

    def test_worker_deadline_interrupts_mid_shard(self, tmp_path):
        # Each worker's clock: pass the first check, then expire — so
        # every worker journals exactly one point and stops.
        ticks = iter([0.0, 0.0] + [99.0] * 64)
        watchdog = Watchdog(max_wall_s=1.0, clock=lambda: next(ticks))
        out = checkpointed(tmp_path, workers=3, watchdog=watchdog)
        assert out.interrupted is not None
        assert out.computed_points == 3
        assert len(list_segments(str(tmp_path))) == 3
        resumed = checkpointed(tmp_path, resume=True, workers=3)
        assert resumed.complete
        assert resumed.resumed_points == 3


class TestResumeGuards:
    def test_empty_meta_must_still_match(self, tmp_path):
        # The old code skipped the compatibility check when the caller
        # passed no meta, silently merging into any journal.
        RunJournal.create(str(tmp_path), {"kind": "other"}).close()
        with pytest.raises(ValueError, match="does not match"):
            run_checkpointed(
                str(tmp_path), GRID, square, key_of=str, resume=True
            )

    def test_sealed_journal_with_new_points_fails_up_front(self, tmp_path):
        checkpointed(tmp_path)
        grown = GRID + [10, 11]
        with pytest.raises(ValueError, match="sealed") as excinfo:
            run_checkpointed(
                str(tmp_path),
                grown,
                square,
                key_of=str,
                meta=META,
                resume=True,
            )
        # Actionable: names the first missing point and the remedy.
        assert "'10'" in str(excinfo.value)
        assert "fresh run directory" in str(excinfo.value)

    def test_sealed_journal_resume_is_pure_replay(self, tmp_path):
        ref = checkpointed(tmp_path)
        replay = checkpointed(tmp_path, resume=True, workers=WORKERS)
        assert replay.complete
        assert replay.results == ref.results
        assert replay.resumed_points == len(GRID)
        assert replay.computed_points == 0


class TestJournalCostRegression:
    def test_record_cost_does_not_scale_with_point_count(self, tmp_path):
        # 200 points: exactly one fsync per mutation (header + points +
        # seal) and every byte written once — the journal would fail both
        # if record() still rewrote the whole file per point (O(n^2)).
        n = 200
        outcome = run_checkpointed(
            str(tmp_path),
            list(range(n)),
            square,
            key_of=str,
            meta={"kind": "cost-guard", "n": n},
        )
        journal = outcome.journal
        assert journal.fsyncs == n + 2
        assert journal.bytes_written == os.path.getsize(journal.path)

    def test_late_append_costs_same_as_early(self, tmp_path):
        # Fixed-width keys and a constant payload: the 150th record must
        # append exactly as many bytes as the 1st, not 150x as many.
        journal = RunJournal.create(str(tmp_path), {})
        journal.record("0000", {"value": 0})
        first = journal.bytes_written
        journal.record("0001", {"value": 0})
        cost_early = journal.bytes_written - first
        for i in range(2, 150):
            journal.record(f"{i:04d}", {"value": 0})
        before = journal.bytes_written
        journal.record("0150", {"value": 0})
        cost_late = journal.bytes_written - before
        assert cost_late == cost_early
