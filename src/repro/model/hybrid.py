"""Hybrid analytical/DES fast path for the sweep engines.

The closed-form model (Eqs. 1-7, :mod:`repro.model.bounds`) is *exact* —
not approximate — wherever nothing the discrete-event simulator models
beyond the equations can fire.  This module makes that claim operational:

* :data:`EXACTNESS_PREDICATES` names the conditions under which a grid
  point's DES makespan is provably equal (bit-for-bit, not just close) to
  a straight-line float replay of the executor's event arithmetic;
* :func:`replay_frtr` / :func:`replay_prtr` / :func:`replay_icap_configure`
  perform that replay, folding the exact same float additions the DES
  would perform, in the exact same order — so the result is the *same
  Python float*, not an approximation of it;
* :func:`replay_comparison_speedup` and :func:`replay_fault_point` answer
  a Figure-9 point or a rate-0 fault-grid cell without spinning up the
  event loop;
* :func:`route` is the one place a grid cell is routed: it runs the DES
  when the mode is ``off`` or a predicate fails, the replay otherwise,
  and under ``verify`` both, auditing the pair as a
  :class:`HybridSample` with :func:`repro.runtime.invariants
  .audit_hybrid` (the ``hybrid-exactness`` invariant row);
* :func:`cell_modes` assigns each cell of a grid its mode, drawing the
  ``verify`` shadow sample with :func:`verification_sample`.

Why the replay is exact and not merely accurate: every branch of the
executors accumulates absolute event times as a left fold of float sums
(``sim.now + duration`` at each dispatch), ``AllOf`` barriers resolve to
the max of their branch end times, the fault-free recovery wrapper adds
zero events, a zero-rate injector consumes no RNG draws, and uncontended
mutexes grant in zero time.  Replaying the same additions in the same
order therefore reproduces the DES clock bitwise.  The predicates below
delimit precisely the configurations where "uncontended / fault-free /
single formula per stage" holds; everywhere else the caller must fall
back to the DES.

Regime classification (:func:`repro.model.bounds.classify_regime`)
explains *which* closed-form branch governs each exact point — see
MODEL.md §13 — while the predicates here decide *whether* the replay may
be used at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence, TypeVar

from .stochastic import resolve_rng

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..analysis.reliability import FaultSweepPoint
    from ..faults.recovery import RecoveryPolicy
    from ..hardware.icap_controller import IcapController
    from ..rtr.frtr import FrtrExecutor
    from ..rtr.prtr import PrtrExecutor
    from ..workloads.task import CallTrace

__all__ = [
    "EXACTNESS_PREDICATES",
    "HybridMode",
    "HybridSample",
    "cell_modes",
    "closed_form_exact",
    "comparison_verdicts",
    "fault_point_verdicts",
    "parse_hybrid_mode",
    "power_point_verdicts",
    "replay_comparison_speedup",
    "replay_energy_components",
    "replay_fault_point",
    "replay_frtr",
    "replay_icap_configure",
    "replay_prtr",
    "route",
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
        "no injector, or every fault rate exactly zero — zero-rate draws "
        "consume no RNG and the resilient() wrapper adds zero events"
    ),
    "overlap-applicable": (
        "more than one PRR slot, so the prefetch branch follows the "
        "paper's max(task, config) stage law; the single-PRR serial "
        "fallback path is not replayed"
    ),
    "uniform-io": (
        "detailed_io disabled: tasks are one Delay, not data-in/compute/"
        "data-out legs contending for the link channels"
    ),
    "local-bitstreams": (
        "no bitstream_source backplane: configuration never queues on a "
        "shared fetch channel"
    ),
    "recovery-inert": (
        "with no faults to recover from, any recovery policy is a "
        "pass-through (implied by fault-free; kept separate because it "
        "is the predicate that breaks first if new recovery hooks gain "
        "unconditional events)"
    ),
}


def closed_form_exact(verdicts: dict[str, bool]) -> bool:
    """True iff every exactness predicate holds for a grid point."""
    unknown = set(verdicts) - set(EXACTNESS_PREDICATES)
    if unknown:
        raise KeyError(f"unknown exactness predicates: {sorted(unknown)}")
    return all(verdicts.get(name, False) for name in EXACTNESS_PREDICATES)


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
    verdicts: Callable[[Any], dict[str, bool]],
) -> list[str]:
    """The per-cell hybrid mode of a sweep grid.

    ``"verify"`` does not shadow-run *every* analytic cell — that would
    cost more than ``off`` — but a seeded sample
    (:func:`verification_sample`) of the cells whose ``verdicts`` prove
    exactness; the rest run ``"on"``.  The result is a pure function of
    ``(grid, hybrid, seed)``, so sharded and resumed walks pick
    identical samples.
    """
    mode = parse_hybrid_mode(hybrid)
    if mode != HybridMode.VERIFY:
        return [mode] * len(grid)
    exact_cells = [
        i for i, cell in enumerate(grid) if closed_form_exact(verdicts(cell))
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
    verdicts: dict[str, bool],
    replay: Callable[[], T],
    simulate: Callable[[], T],
    label: str,
) -> T:
    """Answer one grid cell by replay or by DES: the hybrid router.

    The only code that acts on a hybrid mode.  ``off``, or any failed
    predicate in ``verdicts``, runs ``simulate`` alone; ``on`` runs
    ``replay`` alone; ``verify`` runs both and audits the pair as the
    ``hybrid-exactness`` invariant, raising
    :class:`~repro.runtime.invariants.InvariantError` (its message names
    ``label``) unless they are equal.  Every path returns the same value
    wherever the predicates are sound.
    """
    mode = parse_hybrid_mode(mode)
    if mode == HybridMode.OFF or not closed_form_exact(verdicts):
        return simulate()
    analytic = replay()
    if mode == HybridMode.VERIFY:
        from ..runtime.invariants import audit_hybrid

        audit_hybrid(
            [HybridSample(label, analytic, simulate())]
        ).raise_if_strict(strict=True)
    return analytic


# -- predicate evaluation ---------------------------------------------------


def comparison_verdicts() -> dict[str, bool]:
    """Exactness verdicts for a default :func:`repro.rtr.runner.compare`
    point (Figure 9's configuration).

    Reads only the floorplan :func:`repro.rtr.runner.make_node` defaults
    to (``overlap-applicable``); the rest hold by construction — no
    injector, uniform I/O, local bitstreams.
    """
    from ..hardware.prr import dual_prr_floorplan

    return {
        "fault-free": True,
        "overlap-applicable": dual_prr_floorplan().n_prrs > 1,
        "uniform-io": True,
        "local-bitstreams": True,
        "recovery-inert": True,
    }


def power_point_verdicts(n_prrs: int) -> dict[str, bool]:
    """Exactness verdicts for one power-sweep cell.

    The power sweep (:mod:`repro.power.pareto`) is fault-free by
    construction; the only predicate that can fail is
    ``overlap-applicable`` — single-PRR floorplans take the serial
    partial-configuration path the replay does not model, so those
    cells always run the DES.
    """
    return {
        "fault-free": True,
        "overlap-applicable": n_prrs > 1,
        "uniform-io": True,
        "local-bitstreams": True,
        "recovery-inert": True,
    }


def fault_point_verdicts(fault_rate: float, seed: int = 0) -> dict[str, bool]:
    """Exactness verdicts for one fault-grid cell.

    Only the zero-rate cells are fault-free (:attr:`repro.faults.injector
    .FaultConfig.fault_free`); every other cell needs the DES because
    injected aborts perturb both the clock and the RNG stream.
    """
    from ..faults.injector import FaultConfig

    fault_free = FaultConfig(chunk_abort_rate=fault_rate, seed=seed).fault_free
    return {
        "fault-free": fault_free,
        "overlap-applicable": True,  # make_node() defaults to dual-PRR
        "uniform-io": True,
        "local-bitstreams": True,
        "recovery-inert": fault_free,
    }


# -- exact float replays ----------------------------------------------------


def replay_icap_configure(
    icap: "IcapController", nbytes: int, t0: float
) -> float:
    """End time of one chunked double-buffered ICAP configuration.

    Fills the first BRAM bank over the link, then runs the controller's
    own fold (:meth:`repro.hardware.icap_controller.IcapController
    .fold_stream`) — the code the DES fast path itself executes.
    """
    sizes = icap._chunk_sizes(nbytes)
    return icap.fold_stream(sizes, t0 + icap.in_link.transfer_time(sizes[0]))


def _replay_partial_config(
    executor: "PrtrExecutor", module: str, t0: float
) -> float:
    """End time of one partial configuration started at ``t0``."""
    bs = executor.bitstream_for(module)
    if executor.estimated:
        return t0 + executor.node.icap_raw.wire_time(bs.nbytes)
    return replay_icap_configure(executor.node.icap, bs.nbytes, t0)


def replay_frtr(executor: "FrtrExecutor", trace: "CallTrace") -> float:
    """The FRTR makespan, bit-identical to ``executor.run(trace)``.

    Per call: one full configuration, the control transfer, the task —
    a pure left fold of the same three additions the DES performs.
    """
    node = executor.node
    t_config = node.full_config_time(estimated=executor.estimated)
    control = executor.control_time
    t = 0.0
    for call in trace:
        t = t + t_config
        if control:
            t = t + control
        t = t + call.task.time
    return t


def replay_prtr(
    executor: "PrtrExecutor", trace: "CallTrace"
) -> tuple[float, int]:
    """The PRTR makespan and miss count, bit-identical to the DES run.

    Requires every :data:`EXACTNESS_PREDICATES` entry to hold (the
    caller checks); drives the executor's *real* cache and policy so hit
    and eviction decisions — and therefore which stages pay a partial
    configuration — are the executor's own.  Returns
    ``(total_time, n_configs)`` where ``n_configs`` counts the calls
    whose module was not resident (the :attr:`RunResult.n_configs`
    analogue).
    """
    calls = list(trace)
    n = len(calls)
    if not n:
        return 0.0, 0
    cache = executor.cache
    control = executor.control_time
    decision = executor.decision_time

    # Startup: optional prefetch decision, then the initial full
    # configuration that instantiates call 0's module in PRR 0.
    t = 0.0
    if decision:
        t = t + decision
    t = t + executor.node.full_config_time(estimated=executor.estimated)
    cache.fill(calls[0].name)
    hit0 = not executor.force_miss
    if hit0:
        cache.stats.hits += 1
    else:
        cache.stats.misses += 1
    n_configs = 0 if hit0 else 1

    for i, call in enumerate(calls):
        if control:
            t = t + control
        # The serial task chain: the task, then the prefetch decision.
        t_task = t + call.task.time
        if decision:
            t_task = t_task + decision
        t_cfg = None
        if i + 1 < n:
            nxt = calls[i + 1]
            resident = cache.contains(nxt.name)
            is_hit = resident and not executor.force_miss
            if is_hit:
                cache.stats.hits += 1
                cache.policy.on_access(nxt.name)
            else:
                cache.stats.misses += 1
                n_configs += 1
                # overlap-applicable guarantees slots > 1, so the
                # configuration overlaps the running task.
                if not resident:
                    cache.fill(nxt.name, pinned={call.name})
                t_cfg = _replay_partial_config(executor, nxt.name, t)
        # The stage barrier: AllOf(task, config) resolves to the later
        # branch end; a hit (or the last call) waits on the task alone.
        if t_cfg is not None:
            t = t_cfg if t_cfg >= t_task else t_task
        else:
            t = t_task
    return t, n_configs


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


# -- grid-point fast paths --------------------------------------------------


def replay_comparison_speedup(
    trace: "CallTrace",
    *,
    estimated: bool = False,
    control_time: float | None = None,
    force_miss: bool = False,
    bitstream_bytes: int | None = None,
) -> float:
    """The :attr:`ComparisonResult.speedup` a DES ``compare()`` would
    report, computed by replay.

    Signature mirrors the :func:`repro.rtr.runner.compare` options that
    :func:`comparison_verdicts` clears (default node, no decision time,
    uniform I/O).
    """
    from ..rtr.frtr import FrtrExecutor
    from ..rtr.prtr import PrtrExecutor
    from ..rtr.runner import make_node

    frtr_total = replay_frtr(
        FrtrExecutor(
            make_node(), estimated=estimated, control_time=control_time
        ),
        trace,
    )
    prtr_total, _ = replay_prtr(
        PrtrExecutor(
            make_node(),
            estimated=estimated,
            control_time=control_time,
            force_miss=force_miss,
            bitstream_bytes=bitstream_bytes,
        ),
        trace,
    )
    if prtr_total <= 0:
        raise ZeroDivisionError("PRTR replay has zero total time")
    return frtr_total / prtr_total


def replay_fault_point(
    fault_rate: float,
    hit_ratio: float = 0.0,
    *,
    n_calls: int = 30,
    task_time: float = 0.1,
    seed: int = 0,
    recovery: "RecoveryPolicy | None" = None,
) -> "FaultSweepPoint":
    """One fault-grid cell by replay — exact only where
    :func:`fault_point_verdicts` all hold (i.e. ``fault_rate`` is
    exactly zero, so retries, fallbacks and recovery time are zero by
    construction and MTTR/availability are their fault-free constants).

    Mirrors :func:`repro.analysis.reliability
    .effective_speedup_under_faults` field for field.
    """
    from ..analysis.reliability import FaultSweepPoint, trace_with_hit_ratio
    from ..faults.injector import FaultConfig, FaultInjector
    from ..rtr.frtr import FrtrExecutor
    from ..rtr.prtr import PrtrExecutor
    from ..rtr.runner import make_node

    verdicts = fault_point_verdicts(fault_rate, seed)
    if not closed_form_exact(verdicts):
        failed = sorted(k for k, ok in verdicts.items() if not ok)
        raise ValueError(
            f"fault point rate={fault_rate!r} is not analytically exact "
            f"(failed predicates: {failed}); run the DES instead"
        )
    trace = trace_with_hit_ratio(hit_ratio, n_calls, task_time)
    config = FaultConfig(chunk_abort_rate=fault_rate, seed=seed)

    frtr_node = make_node(fault_injector=FaultInjector(config))
    frtr_total = replay_frtr(FrtrExecutor(frtr_node, recovery=recovery), trace)

    prtr_node = make_node(fault_injector=FaultInjector(config))
    prtr_executor = PrtrExecutor(prtr_node, recovery=recovery)
    prtr_total, n_configs = replay_prtr(prtr_executor, trace)

    speedup = frtr_total / prtr_total if prtr_total > 0 else 0.0
    t_full = prtr_node.full_config_time(estimated=False)
    t_part = prtr_executor.partial_config_time(trace[0].name)
    achieved = 1.0 - n_configs / n_calls
    return FaultSweepPoint(
        fault_rate=fault_rate,
        target_hit_ratio=hit_ratio,
        hit_ratio=achieved,
        frtr_time=frtr_total,
        prtr_time=prtr_total,
        speedup=speedup,
        prtr_retries=0,
        prtr_fallbacks=0,
        prtr_degraded=False,
        mttr=0.0,
        availability=1.0 - 0.0 / prtr_total if prtr_total > 0 else 1.0,
        x_prtr=t_part / t_full,
        x_task=task_time / t_full,
    )
