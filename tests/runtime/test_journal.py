"""Unit tests for :mod:`repro.runtime.journal`."""

from __future__ import annotations

import json
import os

import pytest

from repro.power.pareto import crash_safe_power_sweep
from repro.runtime.journal import (
    JOURNAL_NAME,
    JournalError,
    RunJournal,
    atomic_write_text,
)
from repro.runtime.parallel import fork_available


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_text(path, "one\n")
        atomic_write_text(path, "two\n")
        assert open(path).read() == "two\n"

    def test_leaves_no_temp_files(self, tmp_path):
        atomic_write_text(str(tmp_path / "out.json"), "x\n")
        assert sorted(os.listdir(tmp_path)) == ["out.json"]

    def test_same_bytes_are_not_replaced(self, tmp_path, monkeypatch):
        path = str(tmp_path / "out.json")
        assert atomic_write_text(path, "same\n")
        inode = os.stat(path).st_ino
        replaced = []
        monkeypatch.setattr(os, "replace", lambda *a: replaced.append(a))
        assert not atomic_write_text(path, "same\n")
        assert replaced == []
        assert os.stat(path).st_ino == inode
        assert sorted(os.listdir(tmp_path)) == ["out.json"]


def io_counts(journal: RunJournal) -> dict[str, int]:
    return {
        "bytes_written": journal.bytes_written,
        "fsyncs": journal.fsyncs,
        "renames": journal.renames,
        "unlinks": journal.unlinks,
        "dir_fsyncs": journal.dir_fsyncs,
    }


class TestRunDirectoryCounters:
    """Exact I/O of a 4-point power sweep's run directory."""

    def sweep(self, run_dir, **kw):
        return crash_safe_power_sweep(
            str(run_dir), (1, 2), (0.0, 0.9), n_calls=6, **kw
        )

    def test_fresh_serial_run(self, tmp_path):
        journal = self.sweep(tmp_path / "run").journal
        # Line fsyncs: header + 4 points + seal.  Renames: the journal
        # with its header, invariants.json.  Dir fsyncs: the run
        # directory's parent, then one per rename.
        assert io_counts(journal) == {
            "bytes_written": os.path.getsize(journal.path),
            "fsyncs": 6,
            "renames": 2,
            "unlinks": 0,
            "dir_fsyncs": 3,
        }

    def test_sealed_resume_rewrites_no_file(self, tmp_path, monkeypatch):
        run_dir = tmp_path / "run"
        self.sweep(run_dir)
        before = {p.name: p.read_bytes() for p in run_dir.iterdir()}
        replaced = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace",
            lambda *a: replaced.append(a) or real_replace(*a),
        )
        journal = self.sweep(run_dir, resume=True).journal
        assert replaced == []
        # Only the invariants.json skip's directory fsync remains.
        assert io_counts(journal) == {
            "bytes_written": 0,
            "fsyncs": 0,
            "renames": 0,
            "unlinks": 0,
            "dir_fsyncs": 1,
        }
        assert {p.name: p.read_bytes() for p in run_dir.iterdir()} == before

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_parallel_run_unlinks_its_segments(self, tmp_path):
        journal = self.sweep(tmp_path / "run", workers=2).journal
        # The segments' own I/O is counted in the workers; the parent
        # counts the merge and one directory fsync for both unlinks.
        assert io_counts(journal) == {
            "bytes_written": os.path.getsize(journal.path),
            "fsyncs": 6,
            "renames": 2,
            "unlinks": 2,
            "dir_fsyncs": 4,
        }
        assert sorted(os.listdir(journal.run_dir)) == [
            "invariants.json", JOURNAL_NAME,
        ]


class TestJournalRoundTrip:
    def test_create_record_load(self, tmp_path):
        run_dir = str(tmp_path / "run")
        journal = RunJournal.create(run_dir, {"kind": "demo", "seed": 0})
        journal.record("a", {"value": 1.5})
        journal.record("b", {"value": 2.5})

        loaded = RunJournal.load(run_dir)
        assert loaded.meta == {"kind": "demo", "seed": 0}
        assert loaded.n_points == 2
        assert loaded.has("a") and loaded.has("b")
        assert loaded.payload("a") == {"value": 1.5}
        assert list(loaded.keys()) == ["a", "b"]
        assert not loaded.sealed
        assert loaded.dropped_lines == 0

    def test_floats_roundtrip_exactly(self, tmp_path):
        run_dir = str(tmp_path / "run")
        value = 0.1 + 0.2  # not representable tidily; repr must survive
        RunJournal.create(run_dir).record("x", {"v": value})
        assert RunJournal.load(run_dir).payload("x")["v"] == value

    def test_seal_persists_and_is_idempotent(self, tmp_path):
        run_dir = str(tmp_path / "run")
        journal = RunJournal.create(run_dir)
        journal.record("a", 1)
        journal.seal()
        journal.seal()  # no-op
        loaded = RunJournal.load(run_dir)
        assert loaded.sealed
        with pytest.raises(JournalError, match="sealed"):
            loaded.record("b", 2)

    def test_create_refuses_existing_journal(self, tmp_path):
        run_dir = str(tmp_path / "run")
        RunJournal.create(run_dir)
        with pytest.raises(FileExistsError, match="--resume"):
            RunJournal.create(run_dir)

    def test_load_missing_journal(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no journal"):
            RunJournal.load(str(tmp_path / "nowhere"))

    def test_duplicate_key_rejected(self, tmp_path):
        journal = RunJournal.create(str(tmp_path / "run"))
        journal.record("a", 1)
        with pytest.raises(JournalError, match="duplicate"):
            journal.record("a", 2)

    def test_unserializable_payload_fails_fast(self, tmp_path):
        run_dir = str(tmp_path / "run")
        journal = RunJournal.create(run_dir)
        with pytest.raises(TypeError):
            journal.record("bad", object())
        # The failed record must not poison the journal.
        assert not journal.has("bad")
        assert RunJournal.load(run_dir).n_points == 0


class TestJournalCorruption:
    def _journal_path(self, tmp_path) -> str:
        run_dir = str(tmp_path / "run")
        journal = RunJournal.create(run_dir, {"kind": "demo"})
        journal.record("a", {"v": 1})
        journal.record("b", {"v": 2})
        return run_dir

    def test_torn_tail_is_dropped(self, tmp_path):
        run_dir = self._journal_path(tmp_path)
        path = os.path.join(run_dir, JOURNAL_NAME)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"point","key":"c","payl')  # crash mid-write
        loaded = RunJournal.load(run_dir)
        assert loaded.dropped_lines == 1
        assert loaded.n_points == 2 and not loaded.has("c")

    def test_malformed_middle_line_is_an_error(self, tmp_path):
        run_dir = self._journal_path(tmp_path)
        path = os.path.join(run_dir, JOURNAL_NAME)
        lines = open(path).read().splitlines()
        lines.insert(1, "NOT JSON")
        open(path, "w").write("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="malformed"):
            RunJournal.load(run_dir)

    def test_missing_header(self, tmp_path):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        path = os.path.join(run_dir, JOURNAL_NAME)
        open(path, "w").write(
            '{"kind":"point","key":"a","payload":1}\n'
        )
        with pytest.raises(JournalError, match="header"):
            RunJournal.load(run_dir)

    def test_version_mismatch(self, tmp_path):
        run_dir = str(tmp_path / "run")
        os.makedirs(run_dir)
        path = os.path.join(run_dir, JOURNAL_NAME)
        open(path, "w").write(
            json.dumps({"kind": "header", "version": 99, "meta": {}}) + "\n"
        )
        with pytest.raises(JournalError, match="version"):
            RunJournal.load(run_dir)

    def test_unknown_record_kind(self, tmp_path):
        run_dir = self._journal_path(tmp_path)
        path = os.path.join(run_dir, JOURNAL_NAME)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"mystery"}\n')
        with pytest.raises(JournalError, match="unknown record kind"):
            RunJournal.load(run_dir)

    def test_duplicate_key_on_disk(self, tmp_path):
        run_dir = self._journal_path(tmp_path)
        path = os.path.join(run_dir, JOURNAL_NAME)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind":"point","key":"a","payload":9}\n')
        with pytest.raises(JournalError, match="duplicate key"):
            RunJournal.load(run_dir)
