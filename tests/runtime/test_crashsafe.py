"""Tests for :mod:`repro.runtime.crashsafe` (checkpointed walks, the
audited fault sweep) and for watchdog-interrupted cluster runs."""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.reliability import sweep_fault_hit_grid
from repro.rtr.cluster import run_cluster
from repro.runtime.crashsafe import crash_safe_fault_sweep, run_checkpointed
from repro.runtime.journal import JournalError, RunJournal
from repro.runtime.watchdog import Watchdog
from repro.workloads import CallTrace, HardwareTask

RATES = (0.0, 0.05)
HITS = (0.0, 0.9)
SWEEP_KW = dict(n_calls=6, task_time=0.05, seed=3)


def square_walk(run_dir, items=(1, 2, 3), calls=None, **kwargs):
    def fn(x):
        if calls is not None:
            calls.append(x)
        return x * x

    return run_checkpointed(
        str(run_dir), items, fn,
        key_of=lambda x: f"x={x}", meta={"kind": "squares"}, **kwargs,
    )


class TestRunCheckpointed:
    def test_completes_and_seals(self, tmp_path):
        outcome = square_walk(tmp_path / "run")
        assert outcome.complete
        assert outcome.results == [1, 4, 9]
        assert outcome.computed_points == 3 and outcome.resumed_points == 0
        assert RunJournal.load(str(tmp_path / "run")).sealed

    def test_crash_then_resume_skips_completed_work(self, tmp_path):
        run_dir = tmp_path / "run"

        def bomb(x):
            if x == 3:
                raise RuntimeError("simulated crash")
            return x * x

        with pytest.raises(RuntimeError, match="simulated crash"):
            run_checkpointed(
                str(run_dir), (1, 2, 3), bomb,
                key_of=lambda x: f"x={x}", meta={"kind": "squares"},
            )
        # Both finished points survived the crash.
        assert RunJournal.load(str(run_dir)).n_points == 2

        calls: list[int] = []
        outcome = square_walk(run_dir, calls=calls, resume=True)
        assert calls == [3]  # only the lost point is recomputed
        assert outcome.resumed_points == 2 and outcome.computed_points == 1
        assert outcome.results == [1, 4, 9]

    def test_resume_requires_matching_meta(self, tmp_path):
        run_dir = tmp_path / "run"
        square_walk(run_dir)
        with pytest.raises(JournalError, match="does not match"):
            run_checkpointed(
                str(run_dir), (1, 2, 3), lambda x: x,
                key_of=lambda x: f"x={x}",
                meta={"kind": "squares", "seed": 9}, resume=True,
            )

    def test_resume_of_sealed_run_recomputes_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        square_walk(run_dir)
        calls: list[int] = []
        outcome = square_walk(run_dir, calls=calls, resume=True)
        assert calls == []
        assert outcome.resumed_points == 3 and outcome.complete

    def test_wall_deadline_checkpoints_between_items(self, tmp_path):
        run_dir = tmp_path / "run"
        times = iter([0.0, 1.0, 2.0, 9.0])
        wd = Watchdog(max_wall_s=5.0, clock=lambda: next(times))
        outcome = square_walk(run_dir, watchdog=wd)
        assert not outcome.complete
        assert "wall-clock" in outcome.interrupted
        assert outcome.computed_points == 2
        assert not RunJournal.load(str(run_dir)).sealed

        resumed = square_walk(run_dir, resume=True)
        assert resumed.complete and resumed.results == [1, 4, 9]
        assert RunJournal.load(str(run_dir)).sealed


class TestCrashSafeFaultSweep:
    def test_matches_plain_sweep_bit_identically(self, tmp_path):
        outcome = crash_safe_fault_sweep(
            str(tmp_path / "run"), RATES, HITS, **SWEEP_KW
        )
        assert outcome.complete
        assert outcome.results == sweep_fault_hit_grid(
            RATES, HITS, **SWEEP_KW
        )
        assert outcome.audit.ok

    def test_plain_sweep_workers_bit_identical(self):
        assert sweep_fault_hit_grid(
            RATES, HITS, **SWEEP_KW
        ) == sweep_fault_hit_grid(RATES, HITS, workers=4, **SWEEP_KW)

    def test_writes_invariant_report(self, tmp_path):
        run_dir = tmp_path / "run"
        crash_safe_fault_sweep(str(run_dir), RATES, HITS, **SWEEP_KW)
        report = json.loads((run_dir / "invariants.json").read_text())
        assert report["ok"] is True
        assert "sweep-consistency" in report["checked"]

    def test_zero_deadline_interrupts_then_resumes(self, tmp_path):
        run_dir = str(tmp_path / "run")
        first = crash_safe_fault_sweep(
            run_dir, RATES, HITS, deadline_s=0.0, **SWEEP_KW
        )
        assert not first.complete and first.computed_points == 0

        resumed = crash_safe_fault_sweep(
            run_dir, RATES, HITS, resume=True, **SWEEP_KW
        )
        assert resumed.complete and resumed.computed_points == 4
        reference = crash_safe_fault_sweep(
            str(tmp_path / "ref"), RATES, HITS, **SWEEP_KW
        )
        assert resumed.results == reference.results

    def test_strict_mode_on_clean_sweep_is_quiet(self, tmp_path):
        outcome = crash_safe_fault_sweep(
            str(tmp_path / "run"), RATES, HITS, strict=True, **SWEEP_KW
        )
        assert outcome.audit.ok

    @pytest.mark.parametrize("drift, named", [
        (dict(seed=4), "seed: journaled 3, requested 4"),
        (dict(n_calls=7), "n_calls: journaled 6, requested 7"),
        (dict(hit_ratios=(0.0, 0.5)),
         "hit_ratios[1]: journaled 0.9, requested 0.5"),
    ])
    def test_resume_drift_names_the_field(self, tmp_path, drift, named):
        run_dir = tmp_path / "run"
        crash_safe_fault_sweep(str(run_dir), RATES, HITS, **SWEEP_KW)
        journal = (run_dir / "journal.jsonl").read_bytes()
        kw = {**SWEEP_KW, "hit_ratios": HITS, **drift}
        with pytest.raises(JournalError, match="does not match") as exc:
            crash_safe_fault_sweep(str(run_dir), RATES, resume=True, **kw)
        assert named in str(exc.value)
        assert (run_dir / "journal.jsonl").read_bytes() == journal


def long_trace(n: int = 6) -> CallTrace:
    lib = [HardwareTask(f"m{i}", 0.1) for i in range(3)]
    return CallTrace([lib[i % 3] for i in range(n)], name="wd")


class TestInterruptedRuns:
    @pytest.mark.parametrize("mode", ["frtr", "prtr"])
    def test_cluster_watchdog_interrupts_gracefully(self, mode):
        traces = [long_trace(4), long_trace(4)]
        result = run_cluster(
            traces, mode=mode, watchdog=Watchdog(max_sim_time=1.9)
        )
        assert result.interrupted
        assert result.notes["interrupted"] == 1.0
        for blade, trace in zip(result.blades, traces):
            assert 0 < blade.n_calls < len(trace)
            assert "deadline" in blade.interrupt_reason
            assert blade.summary()["interrupted"] == 1.0
        # Partial blades still satisfy the ordering invariants.
        assert result.notes["invariant_violations"] == 0.0
