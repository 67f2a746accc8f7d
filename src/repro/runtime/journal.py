"""Durable run journal: append-only JSONL checkpoints for long runs.

A *journal* is the crash-safety substrate of :mod:`repro.runtime`: every
completed unit of work (a grid point of a sweep, a finished cluster run)
is recorded as one JSON line in ``<run_dir>/journal.jsonl`` *before* the
next unit starts.  A run killed at any instant therefore loses at most
the unit in flight, and ``resume`` replays the journal instead of the
work.

Durability contract
-------------------
* The journal is a true append-only file: every mutation appends exactly
  one line to an open handle, flushes, and fsyncs.  Checkpointing a
  point is O(1) in the journal size — an n-point sweep performs O(n)
  journal I/O, one append+fsync per point (:attr:`RunJournal
  .bytes_written` and :attr:`RunJournal.fsyncs` expose the cost so a
  regression test can pin it).
* A crash mid-append leaves at most a *torn tail*: the loader drops a
  final line that fails to parse as JSON and counts it in
  :attr:`RunJournal.dropped_lines`; the next append first truncates the
  file back to the last complete line.  Any earlier malformed line is
  an error — corruption in the middle of a journal is not a crash
  artifact.
* Record keys are unique; re-recording a key raises.  A ``seal`` record
  marks the run complete; sealed journals refuse further records.
* A file's bytes are durable at its fsync, but a create, rename or
  unlink is durable only once its parent directory is fsynced too.  So
  every namespace change here is followed by a directory fsync before
  the call returns: :meth:`RunJournal.create` fsyncs the run
  directory's parent, and the parent of every directory it created on
  the way, every rename fsyncs its directory, and
  :meth:`RunJournal.remove_segments` fsyncs the run directory once
  after its unlinks.  A loaded journal's first append fsyncs the run
  directory too, in case its creator was killed before doing so.
  :attr:`RunJournal.renames`, :attr:`RunJournal.unlinks` and
  :attr:`RunJournal.dir_fsyncs` count them.
* Whole files are written by write-then-rename: write a temp file,
  fsync, rename over the target.  :meth:`RunJournal.create` writes the
  header this way, so a journal file never exists without its header.
  :func:`atomic_write_text` (``invariants.json``) never replaces a file
  with the bytes it already holds; it fsyncs the file and its directory
  instead, so resuming a sealed journal rewrites no file and frees no
  disk block.

Record grammar (one JSON object per line)::

    {"kind": "header", "version": 1, "meta": {...}}
    {"kind": "point", "key": "<unique id>", "payload": {...}}
    {"kind": "seal", "n_points": <int>, "metrics": {...}?}

Parallel sweeps (:mod:`repro.runtime.parallel`) write one *segment*
journal per worker shard — ``journal-<shard>.jsonl``, same grammar,
same ``meta`` — and a deterministic merge reassembles them into the
main ``journal.jsonl`` in grid order.  :func:`segment_name` and
:func:`list_segments` define the segment naming grammar.

The optional ``metrics`` field of the seal record is an observability
snapshot (:func:`repro.obs.metrics.snapshot`) taken when the run
completed — absent when instrumentation was disabled, so journals from
uninstrumented runs are byte-identical to the pre-observability format.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Iterator, Mapping

from ..obs import metrics as obsm

__all__ = [
    "JournalError",
    "RunJournal",
    "atomic_write_text",
    "list_segments",
    "segment_name",
]

JOURNAL_NAME = "journal.jsonl"
JOURNAL_VERSION = 1

_SEGMENT_RE = re.compile(r"^journal-(\d+)\.jsonl$")
#: a segment, or the temp file its creation (:func:`_replace`) writes
_SEGMENT_FILE_RE = re.compile(
    r"^(journal-\d+\.jsonl|\.journal-\d+\.jsonl\.tmp)$"
)


class JournalError(ValueError):
    """Raised for malformed or misused journals."""


def _fsync_dir(directory: str) -> None:
    """Make the entries of ``directory`` durable (creates, renames,
    unlinks)."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _replace(path: str, data: bytes) -> None:
    """Write-then-rename ``data`` over ``path``, then fsync the directory."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    _fsync_dir(directory)


def atomic_write_text(path: str, text: str) -> bool:
    """Durably set ``path`` to ``text``; True when it renamed a new file.

    A target already holding exactly these bytes is fsynced in place,
    with its directory (the bytes or the entry may be only in the page
    cache after a kill); any other target is replaced by
    write-then-rename, which is crash atomic.
    """
    data = text.encode("utf-8")
    try:
        with open(path, "rb") as fh:
            if fh.read() == data:
                os.fsync(fh.fileno())
                _fsync_dir(os.path.dirname(os.path.abspath(path)))
                return False
    except FileNotFoundError:
        pass
    _replace(path, data)
    return True


def segment_name(shard: int) -> str:
    """The journal file name for one worker shard."""
    if shard < 0:
        raise ValueError(f"shard must be >= 0: {shard}")
    return f"journal-{shard}.jsonl"


def list_segments(run_dir: str) -> dict[int, str]:
    """Map shard id -> segment file name for every segment in a run dir."""
    if not os.path.isdir(run_dir):
        return {}
    found: dict[int, str] = {}
    for entry in os.listdir(run_dir):
        match = _SEGMENT_RE.match(entry)
        if match:
            found[int(match.group(1))] = entry
    return dict(sorted(found.items()))


def _encode(record: Mapping[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class RunJournal:
    """Append-only checkpoint journal for one run directory.

    Construct via :meth:`create` (fresh run) or :meth:`load` (resume);
    the bare constructor is internal.  ``name`` selects the file inside
    the run directory — the main ``journal.jsonl`` by default, or a
    ``journal-<shard>.jsonl`` segment for parallel workers.
    """

    def __init__(
        self,
        run_dir: str,
        meta: Mapping[str, Any],
        points: dict[str, Any],
        *,
        name: str = JOURNAL_NAME,
        sealed: bool = False,
        dropped_lines: int = 0,
        seal_metrics: Mapping[str, Any] | None = None,
        append_offset: int = 0,
    ) -> None:
        self.run_dir = run_dir
        self.name = name
        self.meta = dict(meta)
        self._points = points
        self._sealed = sealed
        #: torn trailing lines dropped while loading (0 or 1)
        self.dropped_lines = dropped_lines
        #: observability snapshot stored with the seal record (or None)
        self.seal_metrics = (
            dict(seal_metrics) if seal_metrics is not None else None
        )
        # Journal content is pure ASCII (json.dumps escapes), so text
        # offsets equal byte offsets; a torn tail is clipped by
        # truncating to this offset before the first append.
        self._append_offset = append_offset
        self._needs_newline = False
        self._fh: Any = None
        # The file's directory entry may not be durable yet: the first
        # append fsyncs the directory too.
        self._entry_pending = False
        #: bytes appended by this instance (the O(n) I/O guard)
        self.bytes_written = 0
        #: journal-line fsyncs issued by this instance (one per mutation)
        self.fsyncs = 0
        #: renames into the run directory (the journal's own creation,
        #: :meth:`write_text` calls that changed a file)
        self.renames = 0
        #: segment files this instance unlinked
        self.unlinks = 0
        #: directory fsyncs this instance issued
        self.dir_fsyncs = 0

    # -- construction -----------------------------------------------------

    @property
    def path(self) -> str:
        """Absolute path of the journal file."""
        return os.path.join(self.run_dir, self.name)

    @classmethod
    def create(
        cls,
        run_dir: str,
        meta: Mapping[str, Any] | None = None,
        *,
        name: str = JOURNAL_NAME,
    ) -> "RunJournal":
        """Start a fresh journal; refuses to clobber an existing one."""
        missing = []
        head = os.path.abspath(run_dir)
        while not os.path.isdir(head):
            missing.append(head)
            head = os.path.dirname(head)
        os.makedirs(run_dir, exist_ok=True)
        journal = cls(run_dir, meta or {}, {}, name=name)
        if os.path.exists(journal.path):
            raise FileExistsError(
                f"journal already exists in {run_dir!r}; "
                "pass resume=True (CLI: --resume) to continue it"
            )
        # Each directory makedirs created is an entry in its parent; an
        # existing run directory's entry is fsynced again, in case its
        # creator was killed first.
        for directory in reversed(missing or [os.path.abspath(run_dir)]):
            journal._sync_dir(os.path.dirname(directory))
        header = _encode(
            {"kind": "header", "version": JOURNAL_VERSION, "meta": journal.meta}
        ) + "\n"
        # The file appears with its header or not at all, so no crash
        # leaves a journal that a resume cannot read.
        _replace(journal.path, header.encode("ascii"))
        journal.renames += 1
        journal.dir_fsyncs += 1
        journal.fsyncs += 1
        journal.bytes_written = journal._append_offset = len(header)
        return journal

    @classmethod
    def load(
        cls, run_dir: str, *, name: str = JOURNAL_NAME
    ) -> "RunJournal":
        """Load an existing journal (for resume or inspection)."""
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            raise FileNotFoundError(f"no journal found in {run_dir!r}")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        records: list[dict[str, Any]] = []
        dropped = 0
        good_end = 0  # offset just past the last parseable line
        offset = 0
        for lineno, line in enumerate(lines):
            # +1 for the newline; the final line may be unterminated.
            line_end = min(offset + len(line) + 1, len(text))
            if not line.strip():
                good_end = line_end
                offset = line_end
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    dropped += 1  # torn tail from a crash mid-write
                    offset = line_end
                    continue
                raise JournalError(
                    f"{path}:{lineno + 1}: malformed journal line"
                )
            good_end = line_end
            offset = line_end
        if not records or records[0].get("kind") != "header":
            raise JournalError(f"{path}: missing header record")
        header = records[0]
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{path}: journal version {header.get('version')!r} "
                f"!= supported {JOURNAL_VERSION}"
            )
        points: dict[str, Any] = {}
        sealed = False
        seal_metrics: Mapping[str, Any] | None = None
        for rec in records[1:]:
            kind = rec.get("kind")
            if kind == "point":
                key = rec["key"]
                if key in points:
                    raise JournalError(f"{path}: duplicate key {key!r}")
                points[key] = rec["payload"]
            elif kind == "seal":
                sealed = True
                seal_metrics = rec.get("metrics")
            else:
                raise JournalError(
                    f"{path}: unknown record kind {kind!r}"
                )
        journal = cls(
            run_dir,
            header.get("meta", {}),
            points,
            name=name,
            sealed=sealed,
            dropped_lines=dropped,
            seal_metrics=seal_metrics,
            append_offset=good_end,
        )
        # A valid final line may be unterminated (truncation exactly at
        # the closing brace); the first append must not concatenate.
        journal._needs_newline = (
            good_end == len(text) and bool(text) and not text.endswith("\n")
        )
        # Its creator may have been killed before fsyncing the directory.
        journal._entry_pending = True
        return journal

    # -- queries ----------------------------------------------------------

    @property
    def sealed(self) -> bool:
        """Whether the run completed and the journal was sealed."""
        return self._sealed

    @property
    def n_points(self) -> int:
        """Number of checkpointed grid points."""
        return len(self._points)

    def has(self, key: str) -> bool:
        """Whether a grid point was already checkpointed."""
        return key in self._points

    def payload(self, key: str) -> Any:
        """The checkpointed payload for ``key`` (KeyError if absent)."""
        return self._points[key]

    def keys(self) -> Iterator[str]:
        """Checkpointed grid-point keys in insertion order."""
        return iter(self._points)

    def payloads(self) -> dict[str, Any]:
        """Key -> raw payload for every checkpointed point (a copy)."""
        return dict(self._points)

    # -- mutation ---------------------------------------------------------

    def record(self, key: str, payload: Any) -> None:
        """Checkpoint one completed unit of work (durable on return)."""
        if self._sealed:
            raise JournalError("journal is sealed; no further records")
        if key in self._points:
            raise JournalError(f"duplicate journal key {key!r}")
        line = _encode({"kind": "point", "key": key, "payload": payload})
        self._points[key] = payload
        obsm.counter("repro_journal_records_total").inc()
        self._append(line)

    def seal(self, metrics: Mapping[str, Any] | None = None) -> None:
        """Mark the run complete (idempotent).

        ``metrics`` attaches an observability snapshot to the seal record
        so a journal is self-describing about the run that produced it.
        A second ``seal()`` call never overwrites an existing snapshot.
        """
        if self._sealed:
            return
        seal: dict[str, Any] = {
            "kind": "seal",
            "n_points": len(self._points),
        }
        if metrics is not None:
            self.seal_metrics = dict(metrics)
        if self.seal_metrics is not None:
            seal["metrics"] = self.seal_metrics
        line = _encode(seal)
        self._sealed = True
        self._append(line)
        self.close()

    def write_text(self, name: str, text: str) -> None:
        """Durably set the run file ``name`` to ``text`` (counted)."""
        if atomic_write_text(os.path.join(self.run_dir, name), text):
            self.renames += 1
        self.dir_fsyncs += 1

    def remove_segments(self) -> None:
        """Unlink every segment journal of the run directory, durably.

        A worker killed while creating its segment leaves the segment's
        temp file; it goes too.
        """
        names = [
            name for name in sorted(os.listdir(self.run_dir))
            if _SEGMENT_FILE_RE.match(name)
        ]
        for name in names:
            os.remove(os.path.join(self.run_dir, name))
            self.unlinks += 1
        if names:
            self._sync_dir(self.run_dir)

    def close(self) -> None:
        """Release the append handle (reopened on the next mutation)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def _sync_dir(self, directory: str) -> None:
        """Fsync ``directory``, counted in :attr:`dir_fsyncs`."""
        _fsync_dir(directory)
        self.dir_fsyncs += 1

    def _open_for_append(self) -> Any:
        """The append handle, clipping any torn tail on first open."""
        if self._fh is None:
            if os.path.getsize(self.path) != self._append_offset:
                os.truncate(self.path, self._append_offset)
            self._fh = open(self.path, "a", encoding="utf-8")
            if self._needs_newline:
                self._fh.write("\n")
                self._append_offset += 1
                self._needs_newline = False
        return self._fh

    def _append(self, line: str) -> None:
        data = line + "\n"
        fh = self._open_for_append()
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
        self.fsyncs += 1
        self.bytes_written += len(data)
        self._append_offset += len(data)
        if self._entry_pending:
            self._entry_pending = False
            self._sync_dir(self.run_dir)
