"""Ablation studies — the paper's deferred "future investigations".

Two studies extend the published experiment along the axes the paper's
Section 5 identifies:

* :func:`prefetch_ablation` — the paper excluded real prefetching
  ("we preserve this inclusion for future investigations") and ran at
  ``H = 0``.  We replay locality-bearing traces through every
  (policy x prefetcher) pair, measure the achieved ``H``, and evaluate
  the speedup Eq. (7) predicts at that ``H`` — quantifying exactly how
  much a real prefetcher buys on this platform.

* :func:`granularity_ablation` — the paper's optimality condition is
  ``X_PRTR = X_task`` ("the partitions must be so fine grained to match
  the task time requirements").  We sweep the number of uniform PRRs,
  derive each layout's partial bitstream size and ICAP time from
  geometry, and locate the speedup-maximizing granularity per task time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.calibration import fit_icap_handshake
from ..caching.base import ConfigCache
from ..caching.policies import BeladyPolicy, make_policy
from ..caching.prefetch import OraclePrefetcher, Prefetcher, make_prefetcher
from ..caching.replay import ReplayResult, replay
from ..hardware.catalog import PUBLISHED_TABLE2, XC2VP50
from ..hardware.prr import uniform_prr_floorplan
from ..model.parameters import ModelParameters
from ..model.speedup import asymptotic_speedup
from ..workloads.generators import markov_trace, phased_trace, zipf_trace
from ..workloads.task import CallTrace, HardwareTask

__all__ = [
    "PrefetchCell",
    "prefetch_ablation",
    "GranularityPoint",
    "granularity_ablation",
    "default_ablation_library",
]


def default_ablation_library(
    n_tasks: int = 8, task_time: float = 0.02
) -> dict[str, HardwareTask]:
    """A synthetic module library larger than the PRR count."""
    if n_tasks <= 0:
        raise ValueError("n_tasks must be >= 1")
    return {
        f"core{i}": HardwareTask(f"core{i}", task_time)
        for i in range(n_tasks)
    }


@dataclass(frozen=True)
class PrefetchCell:
    """One (trace, policy, prefetcher) measurement."""

    trace: str
    policy: str
    prefetcher: str
    hit_ratio: float
    prefetch_accuracy: float
    #: Eq. (7) speedup at this H with the Fig. 9(b) platform constants
    predicted_speedup: float


def _platform_params(hit_ratio: float, task_time: float) -> ModelParameters:
    full = PUBLISHED_TABLE2["full"]
    dual = PUBLISHED_TABLE2["dual_prr"]
    return ModelParameters(
        x_task=task_time / full.measured_time_s,
        x_prtr=dual.measured_time_s / full.measured_time_s,
        hit_ratio=hit_ratio,
        x_control=10e-6 / full.measured_time_s,
    )


def _make_prefetcher_for(
    name: str, trace: CallTrace
) -> Prefetcher:
    if name == "oracle":
        return OraclePrefetcher([c.name for c in trace])
    if name == "sequential":
        return make_prefetcher(name, library_order=trace.task_names())
    return make_prefetcher(name)


def prefetch_ablation(
    slots: int = 2,
    n_calls: int = 2000,
    task_time: float = 0.005,
    seed: int = 7,
    policies: tuple[str, ...] = ("lru", "lfu", "fifo", "belady"),
    prefetchers: tuple[str, ...] = ("none", "markov", "arm", "oracle"),
) -> list[PrefetchCell]:
    """The full (trace x policy x prefetcher) ablation grid.

    Belady pairs only with the ``none`` prefetcher (offline reference
    string bookkeeping); other combinations are skipped, not faked.

    The default ``task_time`` puts ``X_task`` *below* ``X_PRTR`` — the
    left branch of Eq. (7), the only regime where the hit ratio has any
    leverage (on the right branch the paper proves ``H`` is irrelevant;
    tests pin that too).
    """
    library = default_ablation_library(task_time=task_time)
    traces = {
        "zipf": zipf_trace(library, n_calls, s=1.2, seed=seed),
        "markov": markov_trace(library, n_calls, seed=seed),
        "phased": phased_trace(
            library,
            n_phases=max(n_calls // 100, 1),
            phase_length=100,
            working_set=min(slots, len(library)),
            seed=seed,
        ),
    }
    cells = []
    for trace_name, trace in traces.items():
        for policy_name in policies:
            for prefetcher_name in prefetchers:
                if policy_name == "belady" and prefetcher_name != "none":
                    continue
                if policy_name == "belady":
                    policy = BeladyPolicy([c.name for c in trace])
                else:
                    policy = make_policy(policy_name)
                cache = ConfigCache(slots=slots, policy=policy)
                prefetcher = _make_prefetcher_for(prefetcher_name, trace)
                result: ReplayResult = replay(trace, cache, prefetcher)
                params = _platform_params(result.hit_ratio, task_time)
                cells.append(
                    PrefetchCell(
                        trace=trace_name,
                        policy=policy_name,
                        prefetcher=prefetcher_name,
                        hit_ratio=result.hit_ratio,
                        prefetch_accuracy=result.prefetch_accuracy,
                        predicted_speedup=float(asymptotic_speedup(params)),
                    )
                )
    return cells


@dataclass(frozen=True)
class GranularityPoint:
    """One PRR-granularity design point."""

    n_prrs: int
    columns_each: int
    bitstream_bytes: int
    t_prtr: float
    x_prtr: float
    #: Eq. (7) speedup at each requested task time (parallel array)
    speedups: tuple[float, ...]


def granularity_ablation(
    task_times: tuple[float, ...] = (0.002, 0.02, 0.2, 2.0),
    prr_counts: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    reserved_static_columns: int = 22,
) -> list[GranularityPoint]:
    """Sweep PRR granularity; finer PRRs -> smaller bitstreams -> lower
    ``X_PRTR`` -> higher peak speedup, peaking where ``X_PRTR = X_task``.

    Layout rule: the device keeps ``reserved_static_columns`` for the
    static region (the paper's dual layout uses 46, but the controller +
    RT core footprint justifies ~22 as the floor); remaining columns are
    split uniformly across the PRRs.
    """
    device = XC2VP50
    timings = fit_icap_handshake()
    full = PUBLISHED_TABLE2["full"]
    points = []
    for n in prr_counts:
        columns_each = (device.clb_columns - reserved_static_columns) // n
        if columns_each < 1:
            continue
        plan = uniform_prr_floorplan(
            n, columns_each, device=device,
            static_columns=device.clb_columns - n * columns_each,
        )
        nbytes = plan.partial_bitstream_bytes(0)
        t_prtr = timings.measured_time(nbytes)
        x_prtr = t_prtr / full.measured_time_s
        speeds = tuple(
            float(
                asymptotic_speedup(
                    ModelParameters(
                        x_task=t / full.measured_time_s,
                        x_prtr=x_prtr,
                        hit_ratio=0.0,
                        x_control=10e-6 / full.measured_time_s,
                    )
                )
            )
            for t in task_times
        )
        points.append(
            GranularityPoint(
                n_prrs=n,
                columns_each=columns_each,
                bitstream_bytes=nbytes,
                t_prtr=t_prtr,
                x_prtr=x_prtr,
                speedups=speeds,
            )
        )
    if not points:
        raise ValueError("no feasible granularity points")
    return points
