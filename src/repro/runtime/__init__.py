"""Crash-safe execution layer: journal, watchdog, invariant auditor.

Long-running entry points (model sweeps, reliability grids, cluster
runs) wrap themselves in three cooperating pieces:

:mod:`repro.runtime.journal`
    Durable append-only JSONL checkpoints — one O(1) append+fsync per
    record — with torn-tail-tolerant resume and per-shard segment
    journals for parallel sweeps.
:mod:`repro.runtime.watchdog`
    Wall-clock deadlines plus DES no-progress detection, hooked into
    :class:`repro.sim.engine.Simulator`; cancels gracefully via
    :class:`WatchdogExpired`.
:mod:`repro.runtime.invariants`
    Post-run conservation-law audits (clock monotonicity, makespan and
    hit/miss accounting, the paper's speedup bounds, cluster call
    conservation, parallel shard-merge consistency), strict or
    record-only.
:mod:`repro.runtime.parallel`
    The sharded sweep engine: :func:`parallel_map` over fork workers
    and :func:`run_sharded`, the journaled walk behind
    ``run_checkpointed(..., workers=N)``; both walks return one
    :class:`GridOutcome`.
:mod:`repro.runtime.crashsafe`
    The harnesses tying them together: :func:`run_checkpointed`;
    :func:`run_journaled`, the one driver behind every journaled verb
    (``sweep``, ``power``, ``serve``, ``chaos``);
    :func:`crash_safe_fault_sweep`.

``crashsafe`` is exported lazily: it imports the executors, which in
turn audit through :mod:`repro.runtime.invariants`, and the lazy hop
keeps that dependency loop unwound at import time.
"""

from __future__ import annotations

from typing import Any

from .invariants import (
    INVARIANTS,
    AuditReport,
    InvariantError,
    Violation,
    audit_and_record,
    audit_cluster,
    audit_comparison,
    audit_run,
    audit_service,
    audit_shard_merge,
    audit_sweep_points,
    set_strict,
    strict_enabled,
)
from .journal import (
    JournalError,
    RunJournal,
    atomic_write_text,
    list_segments,
    segment_name,
)
from .parallel import (
    GridOutcome,
    fork_available,
    merge_snapshots,
    parallel_map,
    run_sharded,
    shard_indices,
)
from .watchdog import Watchdog, WatchdogExpired

_LAZY_CRASHSAFE = (
    "crash_safe_fault_sweep",
    "run_checkpointed",
    "run_journaled",
)

__all__ = [
    "INVARIANTS",
    "AuditReport",
    "GridOutcome",
    "InvariantError",
    "JournalError",
    "RunJournal",
    "Violation",
    "Watchdog",
    "WatchdogExpired",
    "atomic_write_text",
    "audit_and_record",
    "audit_cluster",
    "audit_comparison",
    "audit_run",
    "audit_service",
    "audit_shard_merge",
    "audit_sweep_points",
    "fork_available",
    "list_segments",
    "merge_snapshots",
    "parallel_map",
    "run_sharded",
    "segment_name",
    "set_strict",
    "shard_indices",
    "strict_enabled",
    *_LAZY_CRASHSAFE,
]


def __getattr__(name: str) -> Any:
    if name in _LAZY_CRASHSAFE:
        from . import crashsafe

        return getattr(crashsafe, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
