"""Parallel sweep execution: shared-nothing workers over grid shards.

The paper's results are grids — Figure 5's ``(X_task, X_PRTR, H)``
family, Figure 9's task-time sweeps, the fault-rate x hit-ratio
reliability grid — and every grid point is an *independently seeded*
computation (:func:`repro.model.stochastic.resolve_rng` semantics).
This module exploits that independence:

* :func:`parallel_map` — the in-memory engine: round-robin shard any
  item list across ``fork``-ed worker processes and reassemble results
  in item order, bit-identical to the serial map.
* :func:`run_sharded` — the journaled engine behind
  ``run_checkpointed(..., workers=N)``: each worker appends completed
  points to its own segment journal (``journal-<shard>.jsonl``, one
  O(1) append+fsync per point), and the parent deterministically merges
  segments into the main ``journal.jsonl`` in grid order, so the merged
  journal is byte-identical to the one a serial walk writes.

Sharding is round-robin by grid index: shard ``s`` of ``N`` owns items
``s, s+N, s+2N, ...`` — a pure function of the grid, so a killed run
resumed with the same ``workers`` revisits exactly the same shards, and
a resume under a *different* worker count (including serial) still
works because the merge reads every segment regardless of provenance.

Workers are created with the ``fork`` start method so arbitrary
closures (the sweep functions) need no pickling; on platforms without
``fork`` the callers fall back to the serial path.  Workers never touch
the main journal and never share state: results travel back only
through segment journals (durable) and a status queue (advisory —
per-worker interrupt reasons and observability snapshots).  A worker's
:class:`~repro.runtime.invariants.InvariantError` is re-raised in the
parent with its violations; any other worker failure raises
``RuntimeError``.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..obs import metrics as obsm
from .invariants import AuditReport, InvariantError, audit_shard_merge
from .journal import JournalError, RunJournal, list_segments, segment_name
from .watchdog import Watchdog, WatchdogExpired

__all__ = [
    "GridOutcome",
    "fork_available",
    "load_segment_points",
    "merge_snapshots",
    "parallel_map",
    "run_sharded",
    "shard_indices",
]


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def shard_indices(n_items: int, workers: int) -> list[list[int]]:
    """Round-robin shard assignment: shard ``s`` owns ``s::workers``."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1: {workers}")
    return [list(range(s, n_items, workers)) for s in range(workers)]


def _drain(
    status_queue: Any, procs: Sequence[Any], expected: int
) -> list[dict[str, Any]]:
    """Collect one status message per worker, tolerating hard deaths."""
    messages: list[dict[str, Any]] = []
    seen: set[int] = set()
    while len(messages) < expected:
        try:
            msg = status_queue.get(timeout=0.2)
        except queue_mod.Empty:
            if all(p.exitcode is not None for p in procs):
                # Every worker exited; give the queue feeder one last
                # chance, then report the silent shards as dead.
                try:
                    while len(messages) < expected:
                        msg = status_queue.get(timeout=1.0)
                        messages.append(msg)
                        seen.add(msg["shard"])
                except queue_mod.Empty:
                    for shard, proc in enumerate(procs):
                        if shard not in seen:
                            messages.append(
                                {
                                    "shard": shard,
                                    "error": "worker died without a "
                                    f"status (exit code {proc.exitcode})",
                                }
                            )
                break
            continue
        messages.append(msg)
        seen.add(msg["shard"])
    return messages


def _fork_shards(
    work: Callable[[int], dict[str, Any]],
    n_workers: int,
    *,
    failure: Callable[[str], str],
) -> list[dict[str, Any]]:
    """Run ``work(shard)`` in one fork worker per shard; its statuses.

    Each worker's dict comes back over one status queue, tagged with its
    shard; the list is in shard order.  An :class:`InvariantError` in a
    worker is re-raised here with its violations, so ``--hybrid=verify``
    and strict audits fail as they do serially; any other worker failure
    (or a worker that died without a status) raises
    ``RuntimeError(failure(detail))``, ``detail`` naming each failed
    shard and its error.
    """
    ctx = multiprocessing.get_context("fork")
    status_queue: Any = ctx.Queue()

    def child(shard: int) -> None:
        try:
            # A private registry per worker: a shard's sealed snapshot
            # must describe its own work, not inherited state.  The reset
            # intentionally targets the forked child's own copy-on-write
            # registry; nothing is shared back — snapshots travel via the
            # status queue.
            obsm.get_registry().reset()  # reprolint: disable=RL003
            status_queue.put({"shard": shard, **work(shard)})
        except InvariantError as exc:
            status_queue.put({"shard": shard, "violations": exc.violations})
        except BaseException as exc:  # report, don't kill siblings
            status_queue.put(
                {"shard": shard, "error": f"{type(exc).__name__}: {exc}"}
            )
        finally:
            status_queue.close()
            status_queue.join_thread()

    procs = [ctx.Process(target=child, args=(s,)) for s in range(n_workers)]
    for proc in procs:
        proc.start()
    messages = _drain(status_queue, procs, n_workers)
    for proc in procs:
        proc.join()
    messages.sort(key=lambda m: m["shard"])
    errors = [m for m in messages if "error" in m]
    if errors:
        detail = "; ".join(f"shard {m['shard']}: {m['error']}" for m in errors)
        raise RuntimeError(failure(detail))
    violations = [v for m in messages for v in m.get("violations", ())]
    if violations:
        raise InvariantError(violations)
    return messages


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    workers: int = 1,
) -> list[Any]:
    """Map ``fn`` over ``items`` across fork workers, in item order.

    Bit-identical to ``[fn(x) for x in items]`` for deterministic
    ``fn`` — each item is computed exactly once in a shared-nothing
    child process and results are reassembled by index.  Falls back to
    the serial map when ``workers <= 1``, the item list is trivial, or
    the platform cannot ``fork``.  Results must be picklable.
    """
    items = list(items)
    if workers <= 1 or len(items) <= 1 or not fork_available():
        return [fn(item) for item in items]
    workers = min(workers, len(items))
    messages = _fork_shards(
        lambda shard: {
            "pairs": [
                (i, fn(items[i])) for i in range(shard, len(items), workers)
            ]
        },
        workers,
        failure=lambda detail: f"parallel map failed in {detail}",
    )
    results: list[Any] = [None] * len(items)
    for msg in messages:
        for index, value in msg["pairs"]:
            results[index] = value
    return results


def merge_snapshots(
    snapshots: Sequence[Mapping[str, Any]],
) -> dict[str, Any] | None:
    """Combine per-worker observability snapshots into one.

    Counters and histogram counts/sums/buckets are summed across
    workers; gauges are last-write-wins in shard order (they have no
    meaningful cross-process aggregate).  Returns ``None`` when no
    worker recorded anything, matching the disabled-observability seal
    format.
    """
    merged: dict[str, Any] = {}
    for snap in snapshots:
        for name, metric in snap.items():
            target = merged.setdefault(
                name,
                {"kind": metric["kind"], "unit": metric["unit"], "series": {}},
            )
            series = target["series"]
            for label, value in metric["series"].items():
                if metric["kind"] == "histogram":
                    state = series.get(label)
                    if state is None:
                        series[label] = {
                            "buckets": dict(value["buckets"]),
                            "count": value["count"],
                            "sum": value["sum"],
                        }
                    else:
                        for bound, count in value["buckets"].items():
                            state["buckets"][bound] = (
                                state["buckets"].get(bound, 0) + count
                            )
                        state["count"] += value["count"]
                        state["sum"] += value["sum"]
                elif metric["kind"] == "counter":
                    series[label] = series.get(label, 0.0) + value
                else:  # gauge: last writer (highest shard) wins
                    series[label] = value
    return merged or None


@dataclass
class GridOutcome:
    """Result of one checkpointed grid walk, serial or sharded."""

    #: results for every *completed* item, in grid order
    results: list[Any]
    #: watchdog reason when the walk was cut short, else ``None``
    interrupted: str | None
    #: points replayed from the journal instead of recomputed
    resumed_points: int
    #: points computed (and journaled) this walk
    computed_points: int
    journal: RunJournal
    #: shard-merge audit when the walk ran in parallel, else ``None``
    merge_audit: AuditReport | None = None
    #: the run's invariant audit (set by
    #: :func:`repro.runtime.crashsafe.run_journaled`), else ``None``
    audit: AuditReport | None = None

    @property
    def complete(self) -> bool:
        """True when the run finished without watchdog interruption."""
        return self.interrupted is None


def load_segment_points(
    run_dir: str, meta: Mapping[str, Any]
) -> tuple[dict[int, list[str]], dict[str, Any]]:
    """(shard -> keys, key -> payload) across all segment journals."""
    shard_keys: dict[int, list[str]] = {}
    payloads: dict[str, Any] = {}
    for shard, name in list_segments(run_dir).items():
        segment = RunJournal.load(run_dir, name=name)
        if segment.meta != dict(meta):
            raise JournalError(
                f"segment {name} in {run_dir!r} belongs to a different "
                f"sweep (journaled {segment.meta!r}, requested "
                f"{dict(meta)!r})"
            )
        shard_keys[shard] = list(segment.keys())
        for key, payload in segment.payloads().items():
            payloads.setdefault(key, payload)
    return shard_keys, payloads


def run_sharded(
    run_dir: str,
    items: Sequence[Any],
    fn: Callable[[Any], Any],
    *,
    key_of: Callable[[Any], str],
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
    meta: Mapping[str, Any],
    journal: RunJournal,
    workers: int,
    watchdog: Watchdog | None = None,
    progress: Callable[[str], None] | None = None,
) -> GridOutcome:
    """Walk a grid across ``workers`` shared-nothing fork workers.

    ``journal`` is the already-created-or-loaded main journal (the
    caller — :func:`repro.runtime.crashsafe.run_checkpointed` — has
    validated ``meta`` and the sealed/extra-points cases).  Each worker
    appends newly computed points to its ``journal-<shard>.jsonl``
    segment; on full completion the parent appends every missing point
    to the main journal *in grid order*, seals it with the merged
    per-worker observability snapshot, audits the merge, and removes
    the segments.  An interrupted walk leaves the segments in place for
    the next ``resume`` (serial or parallel — both absorb segments).

    The ``watchdog``'s wall-clock budget is enforced *per worker* (each
    fork starts its own copy), checked between grid points exactly like
    the serial walk.
    """
    items = list(items)
    keys = [key_of(item) for item in items]
    done_before = journal.payloads()
    _, segment_payloads = load_segment_points(run_dir, meta)
    for key, payload in segment_payloads.items():
        done_before.setdefault(key, payload)

    pending = [i for i, key in enumerate(keys) if key not in done_before]
    interrupted: str | None = None
    computed = 0
    worker_snapshots: list[Mapping[str, Any]] = []

    if pending:
        n_workers = min(workers, len(pending))
        # Shard the *pending* indices round-robin so live workers stay
        # balanced no matter where a previous run stopped.
        shards = shard_indices(len(pending), n_workers)

        def worker(shard: int) -> dict[str, Any]:
            if watchdog is not None:
                watchdog.start()
            name = segment_name(shard)
            if os.path.exists(os.path.join(run_dir, name)):
                segment = RunJournal.load(run_dir, name=name)
            else:
                segment = RunJournal.create(run_dir, meta, name=name)
            interrupted: str | None = None
            computed = 0
            for pending_pos in shards[shard]:
                index = pending[pending_pos]
                key = keys[index]
                if segment.has(key):
                    continue
                if watchdog is not None:
                    try:
                        watchdog.check_wall()
                    except WatchdogExpired as exc:
                        interrupted = str(exc)
                        break
                result = fn(items[index])
                segment.record(key, encode(result))
                computed += 1
                if progress is not None:
                    progress(
                        f"{key} done (shard {shard}, "
                        f"{segment.n_points} journaled)"
                    )
            segment.close()
            return {
                "interrupted": interrupted,
                "computed": computed,
                "metrics": obsm.snapshot() or None,
            }

        messages = _fork_shards(
            worker,
            n_workers,
            failure=lambda detail: (
                f"parallel sweep failed in {detail} (completed points are "
                f"journaled in {run_dir!r}; rerun with resume to continue)"
            ),
        )
        for msg in messages:
            # The first interrupted shard (in shard order) names the run.
            if interrupted is None:
                interrupted = msg["interrupted"]
            computed += msg["computed"]
            if msg["metrics"]:
                worker_snapshots.append(msg["metrics"])

    # Re-read segments: the durable record of what the workers did.
    shard_keys, segment_payloads = load_segment_points(run_dir, meta)
    known = dict(done_before)
    for key, payload in segment_payloads.items():
        known.setdefault(key, payload)

    resumed = sum(1 for key in keys if key in done_before)

    merge_audit = AuditReport()
    if interrupted is None:
        missing = [key for key in keys if key not in known]
        if missing:  # pragma: no cover - defensive: workers all "done"
            raise JournalError(
                f"parallel walk finished but {len(missing)} point(s) "
                f"never reached a journal (first: {missing[0]!r})"
            )
        for key in keys:
            if not journal.has(key):
                journal.record(key, known[key])
        merge_audit = audit_shard_merge(
            keys, list(journal.keys()), shard_keys
        )
        if not merge_audit.ok:
            # A merge inconsistency is a bug, not a data point: raise
            # regardless of strict mode, before sealing anything.
            raise InvariantError(merge_audit.violations)
        journal.seal(merge_snapshots(worker_snapshots))
        for name in list_segments(run_dir).values():
            os.remove(os.path.join(run_dir, name))

    results: list[Any] = []
    for key in keys:
        if key not in known:
            break  # grid-order prefix, like an interrupted serial walk
        results.append(decode(known[key]))

    return GridOutcome(
        results=results,
        interrupted=interrupted,
        resumed_points=resumed,
        computed_points=computed,
        journal=journal,
        merge_audit=merge_audit,
    )
