"""Lightweight metric registry: counters, gauges and histograms.

Every quantity the paper argues from — cache hits and misses (the hit
ratio ``H``), ICAP bytes and busy time (the Table 1/2 throughput
measurements), prefetch outcomes, recovery attempts, per-blade call
counts — is exported here as a *labeled series* so perf work can point
at numbers instead of anecdotes.

Design rules
------------
* **Opt-in, zero overhead when off.**  Observability is disabled by
  default.  The module-level factories (:func:`counter`, :func:`gauge`,
  :func:`histogram`) return the shared :data:`NULL` instrument while
  disabled: instrumentation sites pay one global-flag check and a no-op
  method call, and the simulation itself is never touched — disabled
  runs are bit-identical to an uninstrumented build.
* **A closed catalog.**  Every metric name must be declared in
  :data:`CATALOG` (name, kind, unit, labels, help, source).  Asking for
  an undeclared name raises — the catalog in ``docs/OBSERVABILITY.md``
  can therefore be checked for completeness by a test.
* **Pure measurement.**  Instruments never feed back into executor or
  simulator decisions; enabling observability must not change results.

Example
-------
>>> from repro.obs import metrics
>>> previous = metrics.set_enabled(True)
>>> metrics.reset()
>>> metrics.counter("repro_cache_events_total").inc(result="hit")
>>> metrics.snapshot()["repro_cache_events_total"]["series"]
{'result=hit': 1.0}
>>> _ = metrics.set_enabled(previous)
"""

from __future__ import annotations

import bisect
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

__all__ = [
    "CATALOG",
    "NULL",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricSpec",
    "MetricsRegistry",
    "counter",
    "enabled",
    "gauge",
    "get_registry",
    "histogram",
    "observed",
    "render",
    "reset",
    "set_enabled",
    "snapshot",
]


class MetricError(ValueError):
    """Raised for undeclared metric names or label/kind misuse."""


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: the catalog row."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    unit: str = ""
    labels: tuple[str, ...] = ()
    #: module that emits it (documentation only)
    source: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "histogram"):
            raise MetricError(f"unknown metric kind {self.kind!r}")


#: The metric catalog.  ``docs/OBSERVABILITY.md`` documents the same
#: rows; a test pins the two against each other.
CATALOG: dict[str, MetricSpec] = {
    spec.name: spec
    for spec in (
        # -- caching / prefetch --------------------------------------------
        MetricSpec(
            "repro_cache_events_total", "counter",
            "Configuration-cache lookups by outcome; hit ratio H is "
            "hit / (hit + miss).",
            unit="events", labels=("result",), source="repro.rtr.prtr",
        ),
        MetricSpec(
            "repro_prefetch_outcomes_total", "counter",
            "Lookahead (pre-fetch) decisions about the next call: "
            "'hit' (module resident, no work) or 'miss' (a partial "
            "reconfiguration was scheduled).",
            unit="decisions", labels=("result",), source="repro.rtr.prtr",
        ),
        # -- calls ----------------------------------------------------------
        MetricSpec(
            "repro_calls_total", "counter",
            "Function calls completed by an executor.",
            unit="calls", labels=("mode", "lane"), source="repro.rtr",
        ),
        MetricSpec(
            "repro_configurations_total", "counter",
            "(Re)configurations performed, by kind: 'full' (vendor "
            "SelectMap path) or 'partial' (ICAP controller path).",
            unit="configurations", labels=("kind",), source="repro.rtr",
        ),
        # -- ICAP controller -------------------------------------------------
        MetricSpec(
            "repro_icap_bytes_total", "counter",
            "Partial-bitstream bytes drained through the ICAP "
            "controller (compare Table 2 sizes).",
            unit="bytes", source="repro.hardware.icap_controller",
        ),
        MetricSpec(
            "repro_icap_busy_seconds_total", "counter",
            "Simulated seconds the ICAP mutex was held by a "
            "configuration (occupancy numerator).",
            unit="seconds", source="repro.hardware.icap_controller",
        ),
        MetricSpec(
            "repro_icap_configurations_total", "counter",
            "Partial configurations completed by the ICAP controller.",
            unit="configurations", source="repro.hardware.icap_controller",
        ),
        MetricSpec(
            "repro_icap_chunk_retransmits_total", "counter",
            "Bitstream chunks retransmitted after a CRC failure.",
            unit="chunks", source="repro.hardware.icap_controller",
        ),
        MetricSpec(
            "repro_icap_write_aborts_total", "counter",
            "ICAP state-machine write aborts (injected faults).",
            unit="aborts", source="repro.hardware.icap_controller",
        ),
        # -- faults / recovery ----------------------------------------------
        MetricSpec(
            "repro_recovery_actions_total", "counter",
            "Recovery-policy decisions after failed configuration "
            "attempts, by action kind (retry/refetch/fallback_full/"
            "degrade/giveup).",
            unit="decisions", labels=("action",),
            source="repro.faults.recovery",
        ),
        MetricSpec(
            "repro_recovery_seconds_total", "counter",
            "Simulated seconds burned on failed attempts and backoff.",
            unit="seconds", source="repro.rtr",
        ),
        # -- cluster ---------------------------------------------------------
        MetricSpec(
            "repro_cluster_blades_degraded_total", "counter",
            "Blades that exhausted recovery and degraded mid-trace.",
            unit="blades", source="repro.rtr.cluster",
        ),
        MetricSpec(
            "repro_cluster_server_bytes_total", "counter",
            "Bytes served by the shared bitstream server.",
            unit="bytes", source="repro.rtr.cluster",
        ),
        # -- runs -------------------------------------------------------------
        MetricSpec(
            "repro_run_sim_seconds", "gauge",
            "Simulated makespan of the most recent run, per mode.",
            unit="seconds", labels=("mode",), source="repro.rtr",
        ),
        MetricSpec(
            "repro_run_events", "gauge",
            "DES events processed by the most recent run, per mode.",
            unit="events", labels=("mode",), source="repro.rtr",
        ),
        MetricSpec(
            "repro_compare_speedup", "gauge",
            "Measured FRTR/PRTR speedup of the most recent compare() "
            "(the Eq. 6 subject).",
            unit="ratio", source="repro.rtr.runner",
        ),
        MetricSpec(
            "repro_config_seconds", "histogram",
            "Distribution of per-(re)configuration durations, by kind.",
            unit="seconds", labels=("kind",), source="repro.rtr",
        ),
        MetricSpec(
            "repro_stage_seconds", "histogram",
            "Distribution of per-call stage times (CallRecord.end - "
            "CallRecord.start).",
            unit="seconds", labels=("mode",), source="repro.rtr",
        ),
        # -- runtime -----------------------------------------------------------
        MetricSpec(
            "repro_journal_records_total", "counter",
            "Checkpoint records appended to run journals.",
            unit="records", source="repro.runtime.journal",
        ),
        MetricSpec(
            "repro_watchdog_expirations_total", "counter",
            "Watchdog cancellations, by machine-readable reason.",
            unit="expirations", labels=("reason",),
            source="repro.runtime.watchdog",
        ),
        # -- service -----------------------------------------------------------
        MetricSpec(
            "repro_service_decisions_total", "counter",
            "Admission decisions per tenant, by verdict "
            "(admit/queue/shed).",
            unit="decisions", labels=("tenant", "decision"),
            source="repro.service.admission",
        ),
        MetricSpec(
            "repro_service_shed_total", "counter",
            "Requests shed per tenant, by reason (rate_limit/"
            "queue_full/overload/fault/power_cap).",
            unit="requests", labels=("tenant", "reason"),
            source="repro.service.admission",
        ),
        MetricSpec(
            "repro_service_completions_total", "counter",
            "Service requests completed, per tenant.",
            unit="requests", labels=("tenant",),
            source="repro.service.scheduler",
        ),
        MetricSpec(
            "repro_service_preemptions_total", "counter",
            "Checkpoint/evict preemptions suffered, per tenant.",
            unit="preemptions", labels=("tenant",),
            source="repro.service.scheduler",
        ),
        MetricSpec(
            "repro_service_latency_seconds", "histogram",
            "Arrival-to-completion latency of completed service "
            "requests, per tenant (the SLO subject).",
            unit="seconds", labels=("tenant",),
            source="repro.service.scheduler",
        ),
        MetricSpec(
            "repro_service_backlog_peak", "gauge",
            "Peak admitted-but-not-granted backlog observed during the "
            "most recent service run, per tenant.",
            unit="requests", labels=("tenant",),
            source="repro.service.scheduler",
        ),
        # -- power -------------------------------------------------------------
        MetricSpec(
            "repro_energy_total_joules", "gauge",
            "Total energy of the most recent powered run, per mode "
            "(the conserved ledger sum).",
            unit="joules", labels=("mode",), source="repro.power",
        ),
        MetricSpec(
            "repro_energy_static_joules", "gauge",
            "Static (always-on) energy of the most recent powered run: "
            "floorplan static draw x makespan, per mode.",
            unit="joules", labels=("mode",), source="repro.power",
        ),
        MetricSpec(
            "repro_energy_task_joules", "gauge",
            "Dynamic task-activity energy of the most recent powered "
            "run, per mode.",
            unit="joules", labels=("mode",), source="repro.power",
        ),
        MetricSpec(
            "repro_energy_config_joules", "gauge",
            "Reconfiguration-burst energy of the most recent powered "
            "run, per mode, by kind ('full' SelectMap loads vs "
            "'partial' ICAP loads).",
            unit="joules", labels=("mode", "kind"), source="repro.power",
        ),
        MetricSpec(
            "repro_energy_mean_watts", "gauge",
            "Mean draw (total energy / makespan) of the most recent "
            "powered run, per mode.",
            unit="watts", labels=("mode",), source="repro.power",
        ),
        # -- chaos -------------------------------------------------------------
        MetricSpec(
            "repro_chaos_breaker_transitions_total", "counter",
            "Circuit-breaker state transitions per failure domain, by "
            "destination state (closed/open/half_open).",
            unit="transitions", labels=("domain", "to"),
            source="repro.chaos.breakers",
        ),
        MetricSpec(
            "repro_chaos_migrations_total", "counter",
            "Checkpoint migrations off failed PRR slots, per tenant.",
            unit="migrations", labels=("tenant",),
            source="repro.service.scheduler",
        ),
        MetricSpec(
            "repro_chaos_brownout_epochs_total", "counter",
            "Brownout controller epoch transitions, by state "
            "(entered/exited).",
            unit="transitions", labels=("state",),
            source="repro.chaos.brownout",
        ),
    )
}

#: default histogram bucket boundaries (seconds; +inf is implicit)
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0,
)


def _label_key(
    spec: MetricSpec, labels: Mapping[str, str]
) -> tuple[str, ...]:
    if set(labels) != set(spec.labels):
        raise MetricError(
            f"{spec.name} expects labels {spec.labels!r}, "
            f"got {tuple(sorted(labels))!r}"
        )
    return tuple(str(labels[name]) for name in spec.labels)


def _series_name(spec: MetricSpec, key: tuple[str, ...]) -> str:
    if not spec.labels:
        return ""
    return ",".join(f"{n}={v}" for n, v in zip(spec.labels, key))


class Counter:
    """Monotonically increasing labeled series."""

    __slots__ = ("spec", "_series")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._series: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (≥ 0) to the labeled series."""
        if amount < 0:
            raise MetricError(
                f"counter {self.spec.name} cannot decrease ({amount})"
            )
        key = _label_key(self.spec, labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        """Current value of one labeled series (0 if never touched)."""
        return self._series.get(_label_key(self.spec, labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across all label combinations."""
        return sum(self._series.values())

    def series(self) -> dict[str, float]:
        """All series as ``{"key=value,...": value}``."""
        return {
            _series_name(self.spec, k): v
            for k, v in sorted(self._series.items())
        }


class Gauge:
    """Last-write-wins labeled value (may go up or down)."""

    __slots__ = ("spec", "_series")

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._series: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        """Overwrite the labeled series with ``value``."""
        self._series[_label_key(self.spec, labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (may be negative) to the labeled series."""
        key = _label_key(self.spec, labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        """Subtract ``amount`` from the labeled series."""
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        """Current value of one labeled series (0 if never set)."""
        return self._series.get(_label_key(self.spec, labels), 0.0)

    def series(self) -> dict[str, float]:
        """All series as ``{"key=value,...": value}``."""
        return {
            _series_name(self.spec, k): v
            for k, v in sorted(self._series.items())
        }


class Histogram:
    """Cumulative-bucket distribution with count and sum per series."""

    __slots__ = ("spec", "buckets", "_series")

    def __init__(
        self,
        spec: MetricSpec,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        self.spec = spec
        self.buckets = bounds
        #: key -> [bucket counts (len+1, last is +inf), count, sum]
        self._series: dict[tuple[str, ...], list[Any]] = {}

    def observe(self, value: float, **labels: str) -> None:
        """Record one observation into the labeled series."""
        key = _label_key(self.spec, labels)
        state = self._series.get(key)
        if state is None:
            state = [[0] * (len(self.buckets) + 1), 0, 0.0]
            self._series[key] = state
        state[0][bisect.bisect_left(self.buckets, value)] += 1
        state[1] += 1
        state[2] += value

    def count(self, **labels: str) -> int:
        """Number of observations in one labeled series."""
        state = self._series.get(_label_key(self.spec, labels))
        return state[1] if state else 0

    def sum(self, **labels: str) -> float:
        """Sum of observed values in one labeled series."""
        state = self._series.get(_label_key(self.spec, labels))
        return state[2] if state else 0.0

    def series(self) -> dict[str, dict[str, Any]]:
        """All series with cumulative buckets, count, and sum."""
        out: dict[str, dict[str, Any]] = {}
        for key, (counts, count, total) in sorted(self._series.items()):
            out[_series_name(self.spec, key)] = {
                "buckets": dict(
                    zip([*map(str, self.buckets), "+inf"], counts)
                ),
                "count": count,
                "sum": total,
            }
        return out


class NullInstrument:
    """Shared no-op instrument returned while observability is off."""

    __slots__ = ()

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Discard."""

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        """Discard."""

    def set(self, value: float, **labels: str) -> None:
        """Discard."""

    def observe(self, value: float, **labels: str) -> None:
        """Discard."""


NULL = NullInstrument()

_KIND_CLASSES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class MetricsRegistry:
    """Instruments instantiated (lazily) from :data:`CATALOG`."""

    def __init__(self, catalog: Mapping[str, MetricSpec] = CATALOG) -> None:
        self.catalog = dict(catalog)
        self._instruments: dict[str, Any] = {}

    def _get(self, name: str, kind: str) -> Any:
        spec = self.catalog.get(name)
        if spec is None:
            raise MetricError(
                f"metric {name!r} is not declared in the catalog; "
                "add a MetricSpec to repro.obs.metrics.CATALOG "
                "(and docs/OBSERVABILITY.md)"
            )
        if spec.kind != kind:
            raise MetricError(
                f"metric {name!r} is a {spec.kind}, requested as {kind}"
            )
        inst = self._instruments.get(name)
        if inst is None:
            inst = _KIND_CLASSES[kind](spec)
            self._instruments[name] = inst
        return inst

    def counter(self, name: str) -> Counter:
        """The named counter (created on first use; name must be cataloged)."""
        return self._get(name, "counter")

    def gauge(self, name: str) -> Gauge:
        """The named gauge (created on first use; name must be cataloged)."""
        return self._get(name, "gauge")

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created on first use; name must be cataloged)."""
        return self._get(name, "histogram")

    def reset(self) -> None:
        """Drop all recorded values (specs stay)."""
        self._instruments.clear()

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-serializable dump of every *touched* instrument."""
        out: dict[str, Any] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            out[name] = {
                "kind": inst.spec.kind,
                "unit": inst.spec.unit,
                "series": inst.series(),
            }
        return out

    def render(self) -> str:
        """Human-readable table of every touched series."""
        rows: list[str] = []
        width = max(
            [len(n) for n in self._instruments] + [len("metric")]
        )
        rows.append(f"{'metric':<{width}}  series / value")
        rows.append("-" * (width + 30))
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            series = inst.series()
            if not series:
                continue
            for label, value in series.items():
                if inst.spec.kind == "histogram":
                    shown = (
                        f"count={value['count']} sum={value['sum']:.6g}"
                    )
                else:
                    shown = f"{value:.6g}"
                unit = f" {inst.spec.unit}" if inst.spec.unit else ""
                label_part = f"{{{label}}} " if label else ""
                rows.append(
                    f"{name:<{width}}  {label_part}{shown}{unit}"
                )
        if len(rows) == 2:
            return "(no metrics recorded)"
        return "\n".join(rows)


# -- module-level state ----------------------------------------------------

_registry = MetricsRegistry()
_enabled = False


def get_registry() -> MetricsRegistry:
    """The process-global registry (records regardless of the flag)."""
    return _registry


# Kept as the oracle for observed() restoring the flag in
# tests/obs/test_metrics.py (test_observed_resets_and_restores) and
# for runs leaving observability off in tests/obs/test_identity.py.
def enabled() -> bool:  # reprolint: disable=RL010
    """Whether observability is currently on."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Turn observability on/off; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


def reset() -> None:
    """Clear every recorded value in the global registry."""
    _registry.reset()


@contextmanager
def observed(fresh: bool = True) -> Iterator[MetricsRegistry]:
    """Enable observability for a ``with`` block (and reset by default)."""
    if fresh:
        reset()
    previous = set_enabled(True)
    try:
        yield _registry
    finally:
        set_enabled(previous)


def counter(name: str) -> Any:
    """The named counter — or :data:`NULL` while observability is off."""
    if not _enabled:
        return NULL
    return _registry.counter(name)


def gauge(name: str) -> Any:
    """The named gauge — or :data:`NULL` while observability is off."""
    if not _enabled:
        return NULL
    return _registry.gauge(name)


def histogram(name: str) -> Any:
    """The named histogram — or :data:`NULL` while observability is off."""
    if not _enabled:
        return NULL
    return _registry.histogram(name)


def snapshot() -> dict[str, Any]:
    """Snapshot of the global registry (empty dict when disabled)."""
    if not _enabled:
        return {}
    return _registry.snapshot()


def render() -> str:
    """Human-readable table of the global registry."""
    return _registry.render()
