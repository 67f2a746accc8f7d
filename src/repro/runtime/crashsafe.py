"""Crash-safe execution harnesses: checkpointed, journaled sweeps.

Three layers cooperate (see ``docs/MODEL.md`` section 9):

* :func:`run_checkpointed` — the generic engine: walk a grid of work
  items, journal every completed point atomically
  (:class:`~repro.runtime.journal.RunJournal`), honor a wall-clock
  :class:`~repro.runtime.watchdog.Watchdog` between points, and on
  resume replay journaled payloads instead of recomputing them.  A
  resume under drifted parameters fails naming each drifted meta field.
* :func:`run_journaled` — the one driver behind every journaled verb
  (``repro sweep|power|serve|chaos``): a deadline watchdog around
  :func:`run_checkpointed`, then the run's audit over the results,
  written to ``<run_dir>/invariants.json`` and raised in strict mode.
* :func:`crash_safe_fault_sweep` — the reliability fault-rate x
  hit-ratio sweep declared for :func:`run_journaled` (``repro sweep``).
  Every grid point is an independent, internally seeded simulation
  (:func:`~repro.model.stochastic.resolve_rng` semantics), so a resumed
  sweep is **bit-identical** to an uninterrupted one regardless of
  where the crash fell.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..analysis.reliability import (
    DEFAULT_FAULT_RATES,
    DEFAULT_HIT_RATIOS,
    FaultSweepPoint,
    effective_speedup_under_faults,
    fault_cell_spec,
)
from ..obs import metrics as obsm
from .invariants import AuditReport, audit_sweep_points
from .journal import (
    JournalError,
    RunJournal,
    atomic_write_text,
    list_segments,
)
from .parallel import (
    GridOutcome,
    fork_available,
    load_segment_points,
    run_sharded,
)
from .watchdog import Watchdog, WatchdogExpired

__all__ = [
    "GridOutcome",
    "crash_safe_fault_sweep",
    "run_checkpointed",
    "run_journaled",
]


def _meta_diff(journaled: Any, requested: Any, path: str = "") -> list[str]:
    """Field-level differences between two journal meta trees.

    Returns human-readable ``path: journaled X, requested Y`` lines;
    an empty list means the trees are equal.  Lists of differing length
    are reported as a length mismatch (element diffs would be noise
    when a tenant was added or removed).
    """
    label = path or "<root>"
    if isinstance(journaled, Mapping) and isinstance(requested, Mapping):
        diffs = []
        for key in sorted(set(journaled) | set(requested), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in requested:
                diffs.append(
                    f"{sub}: journaled {journaled[key]!r}, absent from "
                    "the request"
                )
            elif key not in journaled:
                diffs.append(
                    f"{sub}: requested {requested[key]!r}, absent from "
                    "the journal"
                )
            else:
                diffs.extend(
                    _meta_diff(journaled[key], requested[key], sub)
                )
        return diffs
    if isinstance(journaled, list) and isinstance(requested, list):
        if len(journaled) != len(requested):
            return [
                f"{label}: journaled {len(journaled)} entries, "
                f"requested {len(requested)}"
            ]
        diffs = []
        for i, (a, b) in enumerate(zip(journaled, requested)):
            diffs.extend(_meta_diff(a, b, f"{path}[{i}]"))
        return diffs
    if journaled != requested:
        return [f"{label}: journaled {journaled!r}, requested {requested!r}"]
    return []


def run_checkpointed(
    run_dir: str,
    items: Iterable[Any],
    fn: Callable[[Any], Any],
    *,
    key_of: Callable[[Any], str],
    encode: Callable[[Any], Any] = lambda r: r,
    decode: Callable[[Any], Any] = lambda p: p,
    meta: Mapping[str, Any] | None = None,
    resume: bool = False,
    watchdog: Watchdog | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
) -> GridOutcome:
    """Walk ``items`` through ``fn`` with durable per-item checkpoints.

    With ``resume=True`` the journal in ``run_dir`` is loaded, its
    ``meta`` is required to match the provided one (resuming under
    different sweep parameters would merge incompatible grids), and
    journaled items are decoded instead of recomputed.  The wall-clock
    watchdog is consulted *between* items; on expiry the walk stops
    with everything completed so far safely journaled.

    ``workers > 1`` runs the walk on the sharded engine
    (:func:`repro.runtime.parallel.run_sharded`): bit-identical results
    and merged journal, one segment journal per worker while in flight.
    A run may be killed under one worker count and resumed under any
    other (including serial) — leftover segments are always absorbed.
    """
    meta = dict(meta or {})
    items = list(items)
    keys = [key_of(item) for item in items]
    if resume:
        journal = RunJournal.load(run_dir)
        # Compare unconditionally: an empty requested meta must match an
        # empty journaled meta, not act as a wildcard that would merge a
        # parameterless resume into any journal.  The field-level diff
        # runs only on a mismatch, so equal metas cost one comparison.
        if journal.meta != meta:
            diffs = _meta_diff(journal.meta, meta)
            more = f" (+{len(diffs) - 6} more)" if len(diffs) > 6 else ""
            raise JournalError(
                f"cannot resume {run_dir!r}: the journaled meta does not "
                f"match this run's parameters — {'; '.join(diffs[:6])}"
                f"{more}. Rerun with the original parameters, or start a "
                "fresh run directory."
            )
        if journal.sealed:
            missing = [key for key in keys if not journal.has(key)]
            if missing:
                raise JournalError(
                    f"journal in {run_dir!r} is sealed but the requested "
                    f"grid has {len(missing)} point(s) it never recorded "
                    f"(first: {missing[0]!r}); the grids differ — start "
                    f"a fresh run directory instead of resuming"
                )
    else:
        journal = RunJournal.create(run_dir, meta)

    if workers > 1 and fork_available() and not journal.sealed:
        return run_sharded(
            run_dir,
            items,
            fn,
            key_of=key_of,
            encode=encode,
            decode=decode,
            meta=meta,
            journal=journal,
            workers=workers,
            watchdog=watchdog,
            progress=progress,
        )

    if watchdog is not None:
        watchdog.start()
    # Segments left behind by a killed parallel run: absorb their points
    # into the main journal at the grid position a serial walk would
    # have written them, so the merged journal stays byte-identical.
    segment_payloads: dict[str, Any] = {}
    if resume:
        _, segment_payloads = load_segment_points(run_dir, meta)

    results: list[Any] = []
    resumed = computed = 0
    interrupted: str | None = None
    for item, key in zip(items, keys):
        if journal.has(key):
            results.append(decode(journal.payload(key)))
            resumed += 1
            continue
        if key in segment_payloads:
            journal.record(key, segment_payloads[key])
            results.append(decode(segment_payloads[key]))
            resumed += 1
            continue
        if watchdog is not None:
            try:
                watchdog.check_wall()
            except WatchdogExpired as exc:
                interrupted = str(exc)
                break
        result = fn(item)
        journal.record(key, encode(result))
        computed += 1
        results.append(result)
        if progress is not None:
            progress(f"{key} done ({journal.n_points} journaled)")
    if interrupted is None:
        # Seal with the observability snapshot (None while disabled, so
        # uninstrumented journals keep the pre-observability byte format).
        journal.seal(obsm.snapshot() or None)
        for name in list_segments(run_dir).values():
            os.remove(os.path.join(run_dir, name))
    return GridOutcome(
        results=results,
        interrupted=interrupted,
        resumed_points=resumed,
        computed_points=computed,
        journal=journal,
    )


def run_journaled(
    run_dir: str,
    items: Iterable[Any],
    fn: Callable[[Any], Any],
    *,
    audit: Callable[[list[Any]], AuditReport],
    deadline_s: float | None = None,
    strict: bool | None = None,
    **walk: Any,
) -> GridOutcome:
    """The one journaled-run driver behind every ``crash_safe_*`` verb.

    Walks ``items`` through :func:`run_checkpointed` (``walk`` carries
    its ``key_of``/``encode``/``decode``/``meta``/``resume``/
    ``progress``/``workers``) under a ``deadline_s`` wall-clock
    watchdog, applies ``audit`` to the completed results, writes the
    report to ``<run_dir>/invariants.json`` — an interrupted walk
    included, over its completed prefix — and raises it in strict mode.
    The returned outcome carries the report as ``audit``.
    """
    outcome = run_checkpointed(
        run_dir,
        items,
        fn,
        watchdog=(
            Watchdog(max_wall_s=deadline_s) if deadline_s is not None
            else None
        ),
        **walk,
    )
    outcome.audit = audit(outcome.results)
    atomic_write_text(
        os.path.join(run_dir, "invariants.json"),
        json.dumps(outcome.audit.as_dict(), indent=2) + "\n",
    )
    outcome.audit.raise_if_strict(strict)
    return outcome


def crash_safe_fault_sweep(
    run_dir: str,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    hit_ratios: Sequence[float] = DEFAULT_HIT_RATIOS,
    *,
    n_calls: int = 30,
    task_time: float = 0.1,
    seed: int = 0,
    resume: bool = False,
    deadline_s: float | None = None,
    strict: bool | None = None,
    progress: Callable[[str], None] | None = None,
    workers: int = 1,
    hybrid: str = "off",
) -> GridOutcome:
    """The reliability grid with checkpoint/resume and auditing.

    Point order, seeds and numerics are identical to
    :func:`~repro.analysis.reliability.sweep_fault_hit_grid`; each
    point's simulators are freshly seeded from ``seed``, so a resumed
    run merges to a bit-identical point list.  ``workers > 1`` shards
    the grid across fork workers — point list, audit report and merged
    journal are all bit-identical to the serial walk.

    ``hybrid`` ("off"/"on"/"verify") selects the analytic fast path per
    cell; points — and therefore journal bytes — are identical in every
    mode, so a run journaled under one mode resumes cleanly under
    another (``hybrid`` is deliberately left out of the resume meta).
    """
    from ..model.hybrid import cell_modes

    meta = {
        "kind": "fault_sweep",
        "rates": [float(r) for r in fault_rates],
        "hit_ratios": [float(h) for h in hit_ratios],
        "n_calls": int(n_calls),
        "task_time": float(task_time),
        "seed": int(seed),
    }
    grid = [(h, rate) for h in hit_ratios for rate in fault_rates]
    modes = dict(zip(grid, cell_modes(
        grid, hybrid, seed, lambda cell: fault_cell_spec(cell[1], seed)
    )))
    return run_journaled(
        run_dir,
        grid,
        lambda cell: effective_speedup_under_faults(
            cell[1], cell[0],
            n_calls=n_calls, task_time=task_time, seed=seed,
            hybrid=modes[cell],
        ),
        key_of=lambda cell: f"rate={cell[1]!r},H={cell[0]!r}",
        encode=asdict,
        decode=lambda payload: FaultSweepPoint(**payload),
        meta=meta,
        audit=audit_sweep_points,
        resume=resume,
        deadline_s=deadline_s,
        strict=strict,
        progress=progress,
        workers=workers,
    )
