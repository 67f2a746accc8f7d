"""Crash consistency of run directories, checked against a durable view.

:mod:`repro.runtime.journal` is the only module that creates, renames or
unlinks files in a run directory (reprolint RL005), so a shim over the
``os`` calls and the ``open`` it uses sees every namespace change and
every fsync.  The shim appends each operation to a log file opened with
``O_APPEND``, so the operations of forked workers land in the same log,
in the order they happened.  :class:`View` replays a log into two trees:

* the *volatile* tree, what a running process sees;
* the *durable* tree, what survives a power loss: a file holds the bytes
  of its last fsync, and a create, rename or unlink counts only once its
  parent directory has been fsynced.

Property 1 (promises hold on return): when ``RunJournal.create``,
``record``, ``seal`` or ``remove_segments``, ``atomic_write_text`` or a
complete journaled run returns, the durable tree equals the directory on
disk.  Recovery alone cannot see a lost directory fsync (a sealed resume
simply rewrites ``invariants.json``), so this is checked directly.

Property 2 (recovery at every sync point): at every fsync and directory
fsync of an uninterrupted run, the disk after a power loss is the
durable tree, or the durable tree plus a seeded random subset of the
operations not yet durable.  Resuming from it (or starting fresh when no
journal survived), serially and with 2 workers, ends with the journal
bytes, ``invariants.json`` bytes and results of the uninterrupted run,
and no other file.  The same holds after a ``kill
-9`` just after any operation, where the volatile tree survives.  Every
recovery runs under the shim and must itself satisfy Property 1.

The shim needs nothing beyond the standard library.  The log models
durability, so the shim skips the real fsyncs.  When
``REPRO_ARTIFACT_DIR`` is set (the CI durability step), each
uninterrupted run's journal, invariant report and operation log are
copied there for upload.
"""

from __future__ import annotations

import builtins
import json
import os
import random
import shutil
from typing import Any, Callable, Iterator

import pytest

from repro.chaos import build_scenario
from repro.chaos.harness import crash_safe_chaos
from repro.power.pareto import crash_safe_power_sweep
from repro.runtime import journal as journal_mod
from repro.runtime.crashsafe import crash_safe_fault_sweep
from repro.runtime.journal import (
    JOURNAL_NAME,
    RunJournal,
    atomic_write_text,
    segment_name,
)
from repro.runtime.parallel import fork_available
from repro.service import ServiceConfig, crash_safe_serve, default_tenants

RUN = "run"
INVARIANTS = "invariants.json"
SYNCS = ("fsync", "dirsync")

_CHAOS_CONFIG = ServiceConfig(
    horizon=1.0,
    prrs=4,
    chaos=build_scenario("compound", seed=13, horizon=1.0, prrs=4),
)

#: each journaled verb on a 4-item grid: (run_dir, *, resume, workers)
VERBS: dict[str, Callable[..., Any]] = {
    "sweep": lambda run_dir, **kw: crash_safe_fault_sweep(
        run_dir, (0.0, 0.05), (0.0, 0.9),
        n_calls=6, task_time=0.05, seed=3, **kw,
    ),
    "power": lambda run_dir, **kw: crash_safe_power_sweep(
        run_dir, (1, 2), (0.0, 0.9), n_calls=6, **kw
    ),
    "serve": lambda run_dir, **kw: crash_safe_serve(
        run_dir, default_tenants(), ServiceConfig(horizon=1.0),
        seed=13, replications=4, **kw,
    ),
    "chaos": lambda run_dir, **kw: crash_safe_chaos(
        run_dir, default_tenants(), _CHAOS_CONFIG,
        scenario="compound", seed=13, replications=4, **kw,
    ),
}
WORKERS = (1, 2) if fork_available() else (1,)


# -- the shim ----------------------------------------------------------------


class Shim:
    """Logs the journal module's filesystem operations under ``root``."""

    def __init__(self, root: str, log_path: str) -> None:
        self.root = os.path.abspath(root)
        self.log_path = log_path
        self.paths: dict[int, str] = {}  # fd -> path, for fsync

    def rel(self, path: str) -> str | None:
        """``path`` relative to the root ("" for the root), or None."""
        rel = os.path.relpath(os.path.abspath(path), self.root)
        if rel == os.pardir or rel.startswith(os.pardir + os.sep):
            return None
        return "" if rel == os.curdir else rel

    def log(self, op: str, path: str, **extra: Any) -> None:
        rel = self.rel(path)
        if rel is None:
            return
        line = json.dumps({"op": op, "path": rel, **extra}) + "\n"
        fd = os.open(
            self.log_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )
        try:
            os.write(fd, line.encode())
        finally:
            os.close(fd)

    def open(self, path: str, mode: str = "r", *args: Any, **kw: Any) -> Any:
        """The builtin ``open``, logging the files it creates."""
        creates = any(c in mode for c in "wax") and not os.path.exists(path)
        fh = builtins.open(path, mode, *args, **kw)
        if creates:
            self.log("create", path)
        self.paths[fh.fileno()] = path
        return fh


class ShimOs:
    """The ``os`` module as :mod:`repro.runtime.journal` sees it."""

    def __init__(self, shim: Shim) -> None:
        self._shim = shim

    def __getattr__(self, name: str) -> Any:
        return getattr(os, name)

    def open(self, path: str, flags: int, *args: Any) -> int:
        fd = os.open(path, flags, *args)
        self._shim.paths[fd] = path
        return fd

    def fsync(self, fd: int) -> None:
        # No real fsync: on some filesystems it only makes the test's
        # files slow to delete.
        path = self._shim.paths[fd]
        if os.path.isdir(path):
            self._shim.log("dirsync", path)
        else:
            with builtins.open(path, "rb") as fh:
                data = fh.read().decode("latin-1")
            self._shim.log("fsync", path, data=data)

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)
        self._shim.log("rename", src, dst=self._shim.rel(dst))

    def remove(self, path: str) -> None:
        os.remove(path)
        self._shim.log("unlink", path)

    def makedirs(self, path: str, exist_ok: bool = False) -> None:
        missing = []
        head = os.path.abspath(path)
        while not os.path.isdir(head):
            missing.append(head)
            head = os.path.dirname(head)
        os.makedirs(path, exist_ok=exist_ok)
        for created in reversed(missing):
            self._shim.log("mkdir", created)


class Session:
    """A shimmed journal module over ``root``, its log seeded with ``ops``.

    ``ops`` must replay to the tree already on disk under ``root``.
    """

    def __init__(self, root: str, ops: list[dict[str, Any]] = ()) -> None:
        self.root = str(root)
        self.log_path = self.root + ".ops.jsonl"
        os.makedirs(self.root, exist_ok=True)
        with builtins.open(self.log_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(op) + "\n" for op in ops)
        self.shim = Shim(self.root, self.log_path)
        self._patch = pytest.MonkeyPatch()

    def __enter__(self) -> "Session":
        self._patch.setattr(journal_mod, "os", ShimOs(self.shim))
        self._patch.setattr(journal_mod, "open", self.shim.open, raising=False)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patch.undo()

    def ops(self) -> list[dict[str, Any]]:
        with builtins.open(self.log_path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh]

    def assert_durable(self) -> None:
        """Property 1: nothing on disk is still waiting for an fsync."""
        assert View(self.ops()).tree() == disk_tree(self.root)


# -- replaying a log ---------------------------------------------------------


class View:
    """A shim log replayed into a volatile and a durable tree."""

    def __init__(self, ops: list[dict[str, Any]]) -> None:
        self.entries: dict[str, dict[str, str]] = {"": {}}
        self.durable: dict[str, dict[str, str]] = {"": {}}
        self.data: dict[str, bytes] = {}  # file node -> last fsynced bytes
        #: namespace steps whose directory was not fsynced since
        self.pending: list[tuple[str, ...]] = []
        for op in ops:
            self.apply(op)

    def apply(self, op: dict[str, Any]) -> None:
        kind, path = op["op"], op["path"]
        parent, name = os.path.split(path)
        if kind in ("mkdir", "create"):
            if kind == "mkdir":
                node = "d:" + path
                self.entries[path] = {}
                self.durable[path] = {}
            else:
                node = f"f{len(self.data)}"
                self.data[node] = b""
            self.entries[parent][name] = node
            self.pending.append(("link", parent, name, node))
        elif kind == "fsync":
            self.data[self.entries[parent][name]] = op["data"].encode(
                "latin-1"
            )
        elif kind == "dirsync":
            self.durable[path] = dict(self.entries[path])
            self.pending = [p for p in self.pending if p[1] != path]
        elif kind == "rename":
            dst_parent, dst_name = os.path.split(op["dst"])
            assert dst_parent == parent, "renames stay in one directory"
            node = self.entries[parent].pop(name)
            self.entries[parent][dst_name] = node
            self.pending.append(("rename", parent, name, node, dst_name))
        elif kind == "unlink":
            node = self.entries[parent].pop(name)
            self.pending.append(("unlink", parent, name, node))
        else:
            raise AssertionError(f"unknown op {kind!r}")

    def tree(
        self, *, durable: bool = True, reached: list[tuple[str, ...]] = ()
    ) -> dict[str, bytes | None]:
        """Path -> bytes (``None`` for a directory).

        ``reached`` lists pending steps that reached the disk anyway; a
        step whose source entry is not there is skipped.
        """
        table = {
            d: dict(e)
            for d, e in (self.durable if durable else self.entries).items()
        }
        for kind, parent, name, node, *dst in reached:
            entries = table[parent]
            if kind == "link":
                entries[name] = node
            elif entries.get(name) == node:
                del entries[name]
                if kind == "rename":
                    entries[dst[0]] = node
        out: dict[str, bytes | None] = {}

        def walk(directory: str) -> None:
            for name, node in sorted(table[directory].items()):
                path = os.path.join(directory, name)
                if node.startswith("d:"):
                    out[path] = None
                    walk(path)
                else:
                    out[path] = self.data[node]

        walk("")
        return out


def disk_tree(root: str) -> dict[str, bytes | None]:
    out: dict[str, bytes | None] = {}
    for directory, dirs, files in os.walk(root):
        rel = os.path.relpath(directory, root)
        prefix = "" if rel == os.curdir else rel
        for name in dirs:
            out[os.path.join(prefix, name)] = None
        for name in files:
            with builtins.open(os.path.join(directory, name), "rb") as fh:
                out[os.path.join(prefix, name)] = fh.read()
    return dict(sorted(out.items()))


def materialize(tree: dict[str, bytes | None], root: str) -> None:
    os.makedirs(root)
    for path, data in sorted(tree.items()):
        target = os.path.join(root, path)
        if data is None:
            os.makedirs(target)
        else:
            with builtins.open(target, "wb") as fh:
                fh.write(data)


def durable_ops(tree: dict[str, bytes | None]) -> list[dict[str, Any]]:
    """A log that replays to ``tree`` with everything durable."""
    ops: list[dict[str, Any]] = []
    for path, data in sorted(tree.items()):  # parents sort first
        if data is None:
            ops.append({"op": "mkdir", "path": path})
        else:
            ops.append({"op": "create", "path": path})
            ops.append(
                {"op": "fsync", "path": path, "data": data.decode("latin-1")}
            )
    dirs = [""] + [path for path, data in tree.items() if data is None]
    ops.extend({"op": "dirsync", "path": d} for d in dirs)
    return ops


def freeze(tree: dict[str, bytes | None]) -> tuple:
    return tuple(sorted(tree.items()))


# -- uninterrupted runs and recoveries ---------------------------------------


class Reference:
    """One uninterrupted, shimmed run of a verb."""

    def __init__(self, verb: str, workers: int, root: str) -> None:
        with Session(root) as session:
            self.outcome = VERBS[verb](
                os.path.join(root, RUN), workers=workers
            )
            self.ops = session.ops()
        self.files = disk_tree(os.path.join(root, RUN))
        self.durable_on_return = View(self.ops).tree() == disk_tree(root)
        export_artifacts(f"{verb}-workers{workers}", root, session)


def export_artifacts(label: str, root: str, session: Session) -> None:
    """Copy journal, invariant report and op log for CI (no-op locally)."""
    target = os.environ.get("REPRO_ARTIFACT_DIR")
    if not target:
        return
    dest = os.path.join(target, label)
    os.makedirs(dest, exist_ok=True)
    for name in (JOURNAL_NAME, INVARIANTS):
        shutil.copy(os.path.join(root, RUN, name), os.path.join(dest, name))
    shutil.copy(session.log_path, os.path.join(dest, "ops.jsonl"))


@pytest.fixture(scope="module")
def references(tmp_path_factory) -> Callable[[str, int], Reference]:
    cache: dict[tuple[str, int], Reference] = {}

    def get(verb: str, workers: int) -> Reference:
        if (verb, workers) not in cache:
            root = tmp_path_factory.mktemp(f"{verb}-{workers}") / "root"
            cache[verb, workers] = Reference(verb, workers, str(root))
        return cache[verb, workers]

    return get


def recover(
    ref: Reference,
    verb: str,
    workers: int,
    start: list[dict[str, Any]],
    root: str,
) -> None:
    """Resume (or restart) under ``workers`` from the state ``start``
    replays to."""
    tree = View(start).tree(durable=False)
    materialize(tree, root)
    with Session(root, start) as session:
        outcome = VERBS[verb](
            os.path.join(root, RUN),
            resume=os.path.join(RUN, JOURNAL_NAME) in tree,
            workers=workers,
        )
        assert outcome.complete
        assert outcome.results == ref.outcome.results
        assert disk_tree(os.path.join(root, RUN)) == ref.files
        session.assert_durable()
    # Only a failing state's files are kept; deleting the rest now, before
    # the kernel writes them back, keeps the test's cleanup cheap.
    shutil.rmtree(root)
    os.remove(session.log_path)


def crash_states(
    ops: list[dict[str, Any]], *, power_loss: bool
) -> Iterator[list[dict[str, Any]]]:
    """Start logs for every distinct crash of the run ``ops`` logged."""
    seen = set()
    for k, op in enumerate(ops):
        if power_loss and op["op"] not in SYNCS:
            continue
        view = View(ops[: k + 1])
        if power_loss:
            rng = random.Random(k)
            reached = [step for step in view.pending if rng.random() < 0.5]
            trees = [view.tree(), view.tree(reached=reached)]
            starts = [(freeze(t), durable_ops(t)) for t in trees]
        else:
            key = (freeze(view.tree(durable=False)), freeze(view.tree()))
            starts = [(key, ops[: k + 1])]
        for key, start in starts:
            if key not in seen:
                seen.add(key)
                yield start


# -- Property 1 --------------------------------------------------------------


class TestPromisesHoldOnReturn:
    def test_create_record_and_seal(self, tmp_path):
        with Session(tmp_path / "root") as session:
            journal = RunJournal.create(
                os.path.join(session.root, RUN), {"kind": "demo"}
            )
            session.assert_durable()
            journal.record("a", {"v": 1})
            session.assert_durable()
            journal.seal()
            session.assert_durable()

    def test_create_in_new_nested_directories(self, tmp_path):
        # makedirs creates two directories: both entries are made durable.
        with Session(tmp_path / "root") as session:
            run_dir = os.path.join(session.root, "nest", RUN)
            journal = RunJournal.create(run_dir, {"kind": "demo"})
            assert journal.dir_fsyncs == 3
            created = len(session.ops())
            journal.record("a", {"v": 1})
            segment = RunJournal.create(run_dir, name=segment_name(0))
            assert segment.dir_fsyncs == 2
            ops = session.ops()
            journal.close()
            segment.close()
        first_sync = next(
            k for k in range(created, len(ops)) if ops[k]["op"] in SYNCS
        )
        after_power_loss = View(ops[: first_sync + 1]).tree()
        assert os.path.join("nest", RUN, JOURNAL_NAME) in after_power_loss

    def test_first_append_of_a_reloaded_journal(self, tmp_path):
        # A run killed between the journal's rename and the directory
        # fsync: the journal's entry is durable after the next append.
        root = tmp_path / "root"
        with Session(root) as session:
            RunJournal.create(os.path.join(session.root, RUN)).close()
            ops = session.ops()
        assert ops[-1]["op"] == "dirsync"
        ops.pop()
        shutil.rmtree(root)
        os.remove(session.log_path)
        materialize(View(ops).tree(durable=False), str(root))
        with Session(root, ops) as session:
            RunJournal.load(os.path.join(session.root, RUN)).record("a", 1)
            session.assert_durable()

    def test_atomic_write_text(self, tmp_path):
        with Session(tmp_path / "root") as session:
            path = os.path.join(session.root, INVARIANTS)
            assert atomic_write_text(path, "one\n")
            session.assert_durable()
            assert atomic_write_text(path, "two\n")
            session.assert_durable()
            # Identical bytes left only in the page cache (and an entry
            # not yet fsynced) are made durable without a rewrite.
            other = os.path.join(session.root, "other.json")
            with session.shim.open(other, "w", encoding="utf-8") as fh:
                fh.write("same\n")
            assert not atomic_write_text(other, "same\n")
            session.assert_durable()

    def test_remove_segments(self, tmp_path):
        with Session(tmp_path / "root") as session:
            run_dir = os.path.join(session.root, RUN)
            journal = RunJournal.create(run_dir, {"kind": "demo"})
            for shard in (0, 1):
                RunJournal.create(
                    run_dir, {"kind": "demo"}, name=segment_name(shard)
                ).close()
            journal.remove_segments()
            assert journal.unlinks == 2
            assert sorted(os.listdir(run_dir)) == [JOURNAL_NAME]
            session.assert_durable()

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_complete_run(self, references, verb, workers):
        ref = references(verb, workers)
        assert ref.outcome.complete and ref.outcome.audit.ok
        assert sorted(ref.files) == [INVARIANTS, JOURNAL_NAME]
        assert ref.durable_on_return


# -- Property 2 --------------------------------------------------------------


class TestRecoveryAtEverySyncPoint:
    """Each crash is resumed under every worker count, serial included."""

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_power_loss(self, references, verb, workers, tmp_path):
        ref = references(verb, workers)
        starts = list(crash_states(ref.ops, power_loss=True))
        assert len(starts) > 4
        for i, start in enumerate(starts):
            for resume_workers in WORKERS:
                root = str(tmp_path / f"crash{i}-{resume_workers}")
                recover(ref, verb, resume_workers, start, root)

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_kill(self, references, verb, workers, tmp_path):
        ref = references(verb, workers)
        starts = list(crash_states(ref.ops, power_loss=False))
        assert len(starts) > 4
        for i, start in enumerate(starts):
            for resume_workers in WORKERS:
                root = str(tmp_path / f"kill{i}-{resume_workers}")
                recover(ref, verb, resume_workers, start, root)
