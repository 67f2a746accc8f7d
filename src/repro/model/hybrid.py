"""Hybrid analytical/DES fast path for the sweep engines.

The closed-form model (Eqs. 1-7, :mod:`repro.model.bounds`) is *exact* —
not approximate — wherever nothing the discrete-event simulator models
beyond the equations can fire.  This module makes that claim operational
for one grid cell, described by a :class:`repro.rtr.runner.CellSpec`:

* :data:`EXACTNESS_PREDICATES` names the conditions under which a cell's
  DES makespan is provably equal (bit-for-bit, not just close) to a
  straight-line float replay of the executor's event arithmetic, and
  :func:`verdicts` reads each of them from the cell's spec, for the
  whole cell or one regime's run;
* :func:`replay_cell` performs that replay for the two runs
  :func:`repro.rtr.runner.simulate` would make, folding the exact same
  float additions the DES would perform, in the exact same order — so
  the result is the *same Python float*, not an approximation of it —
  without building a simulator, node, ICAP controller or channel;
* :func:`route` is the one place a grid cell is routed: it runs the DES
  when the mode is ``off`` or a predicate fails, the replay otherwise,
  and under ``verify`` both, auditing the pair as a
  :class:`HybridSample` with :func:`repro.runtime.invariants
  .audit_hybrid` (the ``hybrid-exactness`` invariant row);
* :func:`cell_modes` assigns each cell of a grid its mode, drawing the
  ``verify`` shadow sample with :func:`verification_sample`.

Why the replay is exact and not merely accurate: every branch of the
executors accumulates absolute event times as a left fold of float sums
(``sim.now + duration`` at each dispatch), a stage join resolves to
the max of its branch end times, the recovery wrapper adds zero events
to an attempt that does not fault, a zero-rate injector consumes no RNG
draws, and uncontended mutexes grant in zero time.  A faulty run draws
what its fault-free schedule draws, in order, until its first fault,
from a stream seeded by the spec alone: when those draws, redrawn
before either path runs, all come up clean, it *is* the fault-free
run.  The replay takes every duration from the
code the node runs (the ports' time models, the ICAP chunking and fold
on :class:`~repro.hardware.icap_controller.IcapTimings`, the link's
:class:`~repro.sim.resources.ChannelTiming`), so replaying the same
additions in the same order reproduces the DES clock bitwise.  The
predicates below delimit precisely the configurations where
"uncontended / fault-free / single formula per stage" holds; everywhere
else the caller must fall back to the DES.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

from ..caching.base import ConfigCache
from ..caching.policies import LruPolicy
from ..hardware.bitstream import full_bitstream
from ..hardware.catalog import XD1_NODE
from ..hardware.config_port import icap_raw_port, selectmap_port
from ..hardware.icap_controller import DEFAULT_ICAP_TIMINGS
from ..rtr.runner import REGIMES
from ..sim.resources import ChannelTiming
from .stochastic import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..rtr.runner import CellSpec
    from ..workloads.task import CallTrace

__all__ = [
    "EXACTNESS_PREDICATES",
    "HybridMode",
    "HybridSample",
    "cell_modes",
    "closed_form_exact",
    "config_times",
    "parse_hybrid_mode",
    "replay_cell",
    "replay_energy_components",
    "route",
    "verdicts",
    "verification_sample",
]

T = TypeVar("T")


class HybridMode:
    """The three ``--hybrid`` settings threaded through the sweep CLIs."""

    #: pure DES everywhere (the pre-hybrid behavior)
    OFF = "off"
    #: answer analytically where the predicates prove exactness
    ON = "on"
    #: like ``on``, plus a seeded shadow sample re-run on the DES and
    #: asserted bit-identical (the ``hybrid-exactness`` invariant)
    VERIFY = "verify"

    ALL: tuple[str, ...] = (OFF, ON, VERIFY)


def parse_hybrid_mode(text: str) -> str:
    """Validate and canonicalize a ``--hybrid`` argument."""
    mode = text.strip().lower()
    if mode not in HybridMode.ALL:
        raise ValueError(
            f"hybrid mode must be one of {HybridMode.ALL}: {text!r}"
        )
    return mode


#: The exactness contract: the closed-form replay is provably
#: bit-identical to the DES iff **every** predicate holds.  Names are
#: pinned by docs/PERFORMANCE.md and MODEL.md §13.
EXACTNESS_PREDICATES: dict[str, str] = {
    "fault-free": (
        "the run draws no fault: every rate zero, or each seeded draw of "
        "its fault-free schedule at least its rate (never with a positive "
        "transfer_ber), so the resilient() wrapper adds zero events"
    ),
    "overlap-applicable": (
        "more than one PRR slot, so the prefetch branch follows the "
        "paper's max(task, config) stage law; the single-PRR serial "
        "fallback path is not replayed"
    ),
    "recovery-inert": (
        "with no fault drawn, any recovery policy is a "
        "pass-through (implied by fault-free; kept separate because it "
        "is the predicate that breaks first if new recovery hooks gain "
        "unconditional events)"
    ),
}


def closed_form_exact(predicates: dict[str, bool]) -> bool:
    """True iff every exactness predicate holds for a grid point."""
    unknown = set(predicates) - set(EXACTNESS_PREDICATES)
    if unknown:
        raise KeyError(f"unknown exactness predicates: {sorted(unknown)}")
    return all(predicates.get(name, False) for name in EXACTNESS_PREDICATES)


@dataclass(frozen=True)
class HybridSample:
    """One shadow-verification record: analytic vs DES answer.

    ``analytic`` and ``simulated`` must compare equal (``==``, i.e.
    bitwise for floats) for the ``hybrid-exactness`` invariant to hold.
    The comparison itself lives in
    :func:`repro.runtime.invariants.audit_hybrid`.
    """

    label: str
    analytic: Any
    simulated: Any


#: the ``verify`` shadow sample: this fraction of a grid's exact cells,
#: rounded, but never fewer than :data:`VERIFY_MIN_SAMPLES`
VERIFY_FRACTION = 0.25
VERIFY_MIN_SAMPLES = 2


def verification_sample(n_items: int, seed: int = 0) -> list[int]:
    """The seeded shadow-validation sample for ``--hybrid=verify``.

    Returns sorted indices into the analytical point list: at least
    :data:`VERIFY_MIN_SAMPLES` (capped at ``n_items``), at most
    ``round(VERIFY_FRACTION * n_items)`` points, drawn without
    replacement from ``resolve_rng(seed)`` — the repo-wide seeded-RNG
    contract, so the sample is a pure function of ``(n_items, seed)``
    and identical across workers and resumes.
    """
    if n_items <= 0:
        return []
    k = min(
        n_items,
        max(VERIFY_MIN_SAMPLES, int(round(VERIFY_FRACTION * n_items))),
    )
    rng = resolve_rng(seed)
    chosen = rng.choice(n_items, size=k, replace=False)
    return sorted(int(i) for i in chosen)


def cell_modes(
    grid: Sequence[Any],
    hybrid: str,
    seed: int,
    spec_of: Callable[[Any], "CellSpec"],
    trace_of: Callable[[Any], "CallTrace"],
) -> list[str]:
    """The per-cell hybrid mode of a sweep grid.

    ``"verify"`` does not shadow-run *every* analytic cell — that would
    cost more than ``off`` — but a seeded sample
    (:func:`verification_sample`) of the cells whose
    ``(spec_of(cell), trace_of(cell))`` :func:`verdicts` clear at least
    one run; the rest run ``"on"``.  The result is a pure function of
    ``(grid, hybrid, seed)``, so sharded and resumed walks pick
    identical samples.
    """
    mode = parse_hybrid_mode(hybrid)
    if mode != HybridMode.VERIFY:
        return [mode] * len(grid)
    exact_cells = [
        i
        for i, (spec, trace) in enumerate(
            (spec_of(cell), trace_of(cell)) for cell in grid
        )
        if any(closed_form_exact(verdicts(spec, trace, r)) for r in REGIMES)
    ]
    sampled = {
        exact_cells[j]
        for j in verification_sample(len(exact_cells), seed=seed)
    }
    return [
        HybridMode.VERIFY if i in sampled else HybridMode.ON
        for i in range(len(grid))
    ]


def route(
    mode: str,
    predicates: Callable[[], dict[str, bool]],
    replay: Callable[[], T],
    simulate: Callable[[], T],
    label: str,
) -> T:
    """Answer one grid cell by replay or by DES: the hybrid router.

    The only code that acts on a hybrid mode.  ``off`` runs
    ``simulate`` alone without calling ``predicates``; ``on`` and
    ``verify`` call it (a cell's :func:`verdicts`) and run ``simulate``
    alone on any failed predicate.  Otherwise ``on`` runs ``replay``
    alone, and ``verify`` runs both and audits the pair as the
    ``hybrid-exactness`` invariant, raising
    :class:`~repro.runtime.invariants.InvariantError` (its message names
    ``label``) unless they are equal.  Every path returns the same value
    wherever the predicates are sound.
    """
    mode = parse_hybrid_mode(mode)
    if mode == HybridMode.OFF or not closed_form_exact(predicates()):
        return simulate()
    analytic = replay()
    if mode == HybridMode.VERIFY:
        from ..runtime.invariants import audit_hybrid

        audit_hybrid(
            [HybridSample(label, analytic, simulate())]
        ).raise_if_strict(strict=True)
    return analytic


# -- predicate evaluation ---------------------------------------------------


def verdicts(
    spec: "CellSpec", trace: "CallTrace", regime: str | None = None,
    schedule: Callable[[], tuple[float, float, int]] | None = None,
) -> dict[str, bool]:
    """The exactness verdicts of ``spec`` over ``trace``, for its
    ``regime`` run or (None) both.

    ``fault-free`` is :func:`_draws_clean`, which calls ``schedule()``
    (the fault-free :func:`replay_cell`; pass a cached one to reuse it)
    only to count partials.  Other fields change the replay's
    arithmetic, never its exactness; cluster and ``detailed_io`` runs
    never reach :func:`route`.
    """
    schedule = schedule or (
        lambda: replay_cell(replace(spec, faults=None), trace)
    )
    fault_free = all(
        _draws_clean(spec, trace, name, schedule)
        for name in (REGIMES if regime is None else (regime,))
    )
    return {
        "fault-free": fault_free,
        "overlap-applicable": spec.floorplan.n_prrs > 1,
        "recovery-inert": fault_free or spec.recovery is None,
    }


def _draws_clean(
    spec: "CellSpec", trace: "CallTrace", regime: str,
    schedule: Callable[[], tuple[float, float, int]],
) -> bool:
    """Does ``regime``'s run of ``spec`` over ``trace`` draw no fault?

    A run draws what its fault-free schedule draws, in order, until its
    first fault, from a fresh ``resolve_rng(faults.seed)``: the port
    once per full configuration, the ICAP once per drained chunk of each
    partial (per write when ``estimated``).  It is clean iff each
    uniform is at least its rate.  ``transfer_ber`` draws depend on link
    contention, and a single-PRR run is never replayed: neither clears.
    """
    faults = spec.faults
    if faults is None or faults.fault_free:
        return True
    if faults.transfer_ber > 0.0 or spec.floorplan.n_prrs < 2:
        return False
    rng = functools.cache(lambda: resolve_rng(faults.seed))

    def clean(rate: float, n: int) -> bool:
        return rate <= 0.0 or n <= 0 or not (rng().random(n) < rate).any()

    if regime == "frtr":
        return clean(faults.port_abort_rate, len(trace))
    n_chunks = DEFAULT_ICAP_TIMINGS.n_chunks(_partial_bytes(spec))
    rate, per_write = faults.chunk_abort_rate, n_chunks
    if spec.estimated:
        rate, per_write = faults.span_abort_probability(n_chunks), 1
    # A second module, or force_miss, makes a first partial certain;
    # the partial count is read only once its draws pass.
    certain = trace.n_distinct > 1 or (spec.force_miss and len(trace) > 1)
    first = per_write if certain else 0
    if not (clean(faults.port_abort_rate, 1) and clean(rate, first)):
        return False
    if rate <= 0.0 or not certain:
        return True
    partials = schedule()[2] - int(spec.force_miss)
    return clean(rate, per_write * (partials - 1))


# -- exact float replay -----------------------------------------------------


def _partial_bytes(spec: "CellSpec") -> int:
    """The partial bitstream size a spec's PRTR run configures."""
    if spec.bitstream_bytes is None:
        return spec.floorplan.partial_bitstream_bytes(0)
    return spec.bitstream_bytes


def _spec_timing(
    spec: "CellSpec",
) -> tuple[float, float, Callable[[float], float]]:
    """``(T_FRTR, T_PRTR, partial_end)`` of the nodes a spec builds.

    From the pure port, ICAP and link models the default node reads,
    with no node; ``partial_end(t)`` ends a partial configuration
    started at ``t`` (first-chunk fill, then the shared chunk fold).
    """
    params = XD1_NODE
    image = full_bitstream(spec.floorplan.device)
    selectmap = selectmap_port(params.selectmap_bandwidth)
    nbytes = _partial_bytes(spec)
    if spec.estimated:
        wire = icap_raw_port(params.icap_bandwidth).wire_time(nbytes)
        return selectmap.wire_time(image.nbytes), wire, lambda t: t + wire
    timings = DEFAULT_ICAP_TIMINGS
    link = ChannelTiming(params.io_bandwidth).transfer_time
    sizes = timings.chunk_sizes(nbytes)
    fill = link(sizes[0])
    return (
        selectmap.configure_time(image),
        timings.configure_time(nbytes, link),
        lambda t: timings.fold_stream(sizes, t + fill, link),
    )


def config_times(spec: "CellSpec") -> tuple[float, float]:
    """Unloaded ``(T_FRTR, T_PRTR)`` of the nodes a spec builds.

    Equal to the ``t_config_full`` and ``t_config_partial`` notes of the
    runs :func:`repro.rtr.runner.simulate` makes, without running them.
    """
    t_full, t_part, _ = _spec_timing(spec)
    return t_full, t_part


def replay_cell(
    spec: "CellSpec", trace: "CallTrace"
) -> tuple[float, float, int]:
    """``(frtr_total, prtr_total, n_configs)`` of a cell, by replay.

    Bit-identical to the ``total_time`` of both runs
    :func:`repro.rtr.runner.simulate` makes and the PRTR run's
    ``n_configs``, wherever :func:`verdicts` clears ``spec`` over
    ``trace``; any other spec raises :class:`ValueError` naming the
    failed predicates.  The arithmetic never reads ``faults``.
    """
    failed = [name for name, ok in verdicts(spec, trace).items() if not ok]
    if failed:
        raise ValueError(
            f"cell is not analytically exact (failed predicates: "
            f"{failed}); run the DES instead"
        )
    calls = list(trace)
    if not calls:
        return 0.0, 0.0, 0
    t_full, _, partial_end = _spec_timing(spec)
    control = (
        XD1_NODE.control_time if spec.control_time is None
        else spec.control_time
    )
    # FRTR, per call: the full configuration, the control transfer, the
    # task.
    frtr = 0.0
    for call in calls:
        frtr = frtr + t_full
        if control:
            frtr = frtr + control
        frtr = frtr + call.task.time
    # PRTR: the initial full configuration instantiates call 0's module
    # in PRR 0; a cache and policy like the executor's own decide which
    # stages pay a partial configuration.
    cache = ConfigCache(slots=spec.floorplan.n_prrs, policy=LruPolicy())
    cache.fill(calls[0].name)
    prtr = t_full
    n_configs = 1 if spec.force_miss else 0
    for call, nxt in zip(calls, calls[1:] + [None]):
        if control:
            prtr = prtr + control
        stage_end = prtr + call.task.time
        if nxt is not None:
            resident = cache.contains(nxt.name)
            if resident and not spec.force_miss:
                cache.policy.on_access(nxt.name)
            else:
                n_configs += 1
                # overlap-applicable guarantees slots > 1, so the
                # configuration overlaps the running task.
                if not resident:
                    cache.fill(nxt.name, pinned={call.name})
                # The stage joins at the later of the task and
                # configuration branch ends.
                stage_end = max(stage_end, partial_end(prtr))
        prtr = stage_end
    return frtr, prtr, n_configs


def replay_energy_components(
    trace: "CallTrace",
    *,
    t_config_full: float,
    t_config_partial: float,
    n_full: int,
    n_partial: int,
) -> tuple[float, float, float]:
    """Busy-second buckets for a fault-free run, by exact replay.

    Returns ``(task_s, config_full_s, config_partial_s)`` — the same
    left folds :meth:`repro.power.ledger.EnergyLedger.from_run`
    performs over a clean run's records: task times in call order, then
    ``n_full`` copies of the canonical full-configuration time and
    ``n_partial`` copies of the canonical partial time.  Because every
    addend is the identical Python float on both sides, the resulting
    buckets (and therefore the joule ledger derived from them) are
    bit-identical to the DES-annotated ones wherever
    :data:`EXACTNESS_PREDICATES` hold.
    """
    task_s = 0.0
    for call in trace:
        task_s = task_s + call.task.time
    full_s = 0.0
    for _ in range(n_full):
        full_s = full_s + t_config_full
    part_s = 0.0
    for _ in range(n_partial):
        part_s = part_s + t_config_partial
    return task_s, full_s, part_s
