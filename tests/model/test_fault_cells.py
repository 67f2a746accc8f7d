"""Seeded fault cells: every drawn run audits clean or escalates as its
policy says, and every regime the draws-clean verdict clears replays.

One stdlib :class:`random.Random` draws :class:`~repro.rtr.runner
.CellSpec`s and traces over the fault-cell space (:func:`draw_cell`):
chunk-abort and vendor-port abort rates, the wire-only (``estimated``)
path, ``force_miss``, ``T_control``, one to five PRRs, one to sixty
calls at any hit ratio, and every recovery policy kind.  Two checks run
on fixed samples, sized for tier-1:

* under strict invariants, each regime's DES run completes with a clean
  audit and an availability in [0, 1], or raises the
  :class:`~repro.faults.errors.ReconfigurationFault` its policy
  escalates (``giveup``, or no policy), and nothing else;
* every regime :func:`~repro.model.hybrid.verdicts` clears replays
  bit-identically: the fault-free :func:`~repro.model.hybrid.replay_cell`
  total equals the DES ``total_time`` under ``float.hex`` (and PRTR's
  ``n_configs``), and the run retried and fell back nowhere.

The second check needs thousands of specs: its runs are cheap, but a
verdict that skips one chunk draw per partial clears a faulting run in
only a few of them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace

from repro.analysis.reliability import availability, trace_with_hit_ratio
from repro.faults import FallbackPolicy, FaultConfig, RecoveryPolicy
from repro.faults.errors import ReconfigurationFault
from repro.hardware import (
    dual_prr_floorplan,
    single_prr_floorplan,
    uniform_prr_floorplan,
)
from repro.model.hybrid import closed_form_exact, replay_cell, verdicts
from repro.rtr.runner import REGIMES, CellSpec, simulate
from repro.workloads import CallTrace

#: every recovery kind a fault cell can run under
RECOVERIES = (
    FallbackPolicy(max_attempts=3, backoff=0.05, cap=0.2),
    RecoveryPolicy(3, backoff=1e-3, cap=0.1),
    RecoveryPolicy(3, backoff=1e-3, cap=0.1, exhausted="fallback_full"),
    RecoveryPolicy(3, backoff=1e-3, cap=0.1, exhausted="degrade"),
    RecoveryPolicy(3, backoff=1e-3, cap=0.1, refetch=True),
    None,
)

#: specs per check: all runs of the strict one take the DES, only the
#: cleared runs of the verdict one do
STRICT_SPECS = 300
VERDICT_SPECS = 4000


def draw_cell(rng: random.Random) -> tuple[CellSpec, CallTrace]:
    """One fault cell and its trace, from ``rng`` alone."""
    n_prrs = rng.randint(1, 5)
    if n_prrs == 1:
        floorplan = single_prr_floorplan()
    elif n_prrs == 2:
        floorplan = dual_prr_floorplan()
    else:
        floorplan = uniform_prr_floorplan(n_prrs, 12)
    # Most of the chunk-abort mass sits at low rates, where a run's
    # hundreds of chunk draws can all come up clean.
    faults = FaultConfig(
        chunk_abort_rate=0.3 * rng.random() ** 4,
        port_abort_rate=rng.choice((0.0, 0.1, 0.5)),
        seed=rng.randrange(2**31),
    )
    spec = CellSpec(
        floorplan=floorplan,
        faults=faults,
        recovery=rng.choice(RECOVERIES),
        estimated=rng.random() < 0.5,
        control_time=rng.choice((None, 0.0, 2e-3)),
        force_miss=rng.random() < 0.25,
    )
    trace = trace_with_hit_ratio(rng.random(), rng.randint(1, 60), 0.1)
    return spec, trace


def cells(n: int, seed: int) -> list[tuple[CellSpec, CallTrace]]:
    rng = random.Random(seed)
    return [draw_cell(rng) for _ in range(n)]


def escalates(spec: CellSpec) -> bool:
    """Does a fault the policy cannot absorb propagate out of the run?"""
    return spec.recovery is None or spec.recovery.exhausted == "giveup"


def faulted(run) -> bool:
    return bool(
        run.n_retries or run.n_fallbacks or run.n_failed
        or run.notes.get("startup_retries")
    )


def test_every_run_audits_clean_or_escalates(strict):
    for spec, trace in cells(STRICT_SPECS, seed=0):
        for regime in REGIMES:
            cleared = closed_form_exact(verdicts(spec, trace, regime))
            try:
                (run,) = simulate(spec, trace, (regime,))
            except ReconfigurationFault:
                assert escalates(spec), (regime, spec, trace.name)
                assert not cleared, (regime, spec, trace.name)
                continue
            assert run.notes["invariant_violations"] == 0.0
            assert 0.0 <= availability(run) <= 1.0, (regime, spec)
            # With more than one PRR the verdict is exact: a run draws a
            # fault iff it is refused.
            if spec.floorplan.n_prrs > 1:
                assert faulted(run) != cleared, (regime, spec, trace.name)


def test_every_cleared_regime_replays_bitwise():
    cleared = dict.fromkeys(REGIMES, 0)
    unsound = []
    for spec, trace in cells(VERDICT_SPECS, seed=1):
        schedule = functools.cache(
            lambda: replay_cell(replace(spec, faults=None), trace)
        )
        for index, regime in enumerate(REGIMES):
            if not closed_form_exact(verdicts(spec, trace, regime, schedule)):
                continue
            cleared[regime] += 1
            try:
                (run,) = simulate(spec, trace, (regime,))
            except ReconfigurationFault:
                unsound.append((regime, spec, trace.name))
                continue
            replayed = schedule()
            if (
                run.total_time.hex() != replayed[index].hex()
                or (regime == "prtr" and run.n_configs != replayed[2])
                or faulted(run)
            ):
                unsound.append((regime, spec, trace.name))
    assert all(cleared.values()), cleared
    assert not unsound, f"{len(unsound)} unsound of {cleared}: {unsound[:3]}"
