"""Declarative description of one chaos experiment.

A :class:`ChaosSpec` is pure data: the scripted domain outages to inject,
the failure-domain layout (blade count), and the resilience-policy knobs
(circuit breakers, brownout controller, config-retry backoff).  It is
frozen and JSON-serializable (:meth:`ChaosSpec.as_dict`) so it can ride
inside the crash-safe journal meta and gate resume compatibility exactly
like :class:`repro.service.tenants.ServiceConfig` does.

A spec with no events and all reactive policies disabled is *inert*
(:attr:`ChaosSpec.inert`): the service executor refuses to arm the chaos
runtime for it, which is what makes rate-0 chaos bit-identical to plain
``repro serve`` by construction rather than by luck.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ChaosEvent", "ChaosSpec"]


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted domain outage.

    Attributes
    ----------
    time:
        Sim time at which the domain fails (after service boot).
    domain:
        Failure-domain name in the run's
        :class:`repro.hardware.domains.DomainTopology`.
    duration:
        How long the domain stays down before recovering.
    kind:
        Event class; only ``"outage"`` today, kept explicit so the
        journal meta stays forward-compatible.
    """

    time: float
    domain: str
    duration: float
    kind: str = "outage"

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"event time must be >= 0: {self.time}")
        if self.duration <= 0:
            raise ValueError(
                f"event duration must be > 0: {self.duration}"
            )
        if self.kind != "outage":
            raise ValueError(f"unknown chaos event kind {self.kind!r}")
        if not self.domain:
            raise ValueError("event domain must be non-empty")

    def as_dict(self) -> dict:
        """JSON-safe form, field order fixed for journal meta."""
        return {
            "time": self.time,
            "domain": self.domain,
            "duration": self.duration,
            "kind": self.kind,
        }


@dataclass(frozen=True)
class ChaosSpec:
    """Full chaos-experiment configuration (events + policy knobs).

    Breaker knobs drive the per-domain
    :class:`repro.chaos.breakers.CircuitBreaker` instances; brownout
    knobs drive the :class:`repro.chaos.brownout.BrownoutController`.
    ``seed`` feeds only the chaos runtime's private RNG (breaker probe
    jitter) and never touches the tenant arrival streams.
    """

    events: tuple[ChaosEvent, ...] = ()
    blades: int = 1
    breakers_enabled: bool = True
    breaker_threshold: int = 3
    breaker_cooldown: float = 0.5
    breaker_probe_jitter: float = 0.25
    brownout_enabled: bool = False
    brownout_enter_p99: float = 0.5
    brownout_exit_p99: float = 0.25
    brownout_enter_shed: float = 0.25
    brownout_exit_shed: float = 0.05
    brownout_window: int = 64
    brownout_min_samples: int = 16
    brownout_hold: float = 1.0
    brownout_max_shed_priority: int = 0
    brownout_quantum_stretch: float = 2.0
    config_retry_backoff: float = 0.01
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))
        if self.blades < 1:
            raise ValueError(f"blades must be >= 1: {self.blades}")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1: {self.breaker_threshold}"
            )
        if self.breaker_cooldown < 0:
            raise ValueError(
                f"breaker_cooldown must be >= 0: {self.breaker_cooldown}"
            )
        if self.breaker_probe_jitter < 0:
            raise ValueError(
                "breaker_probe_jitter must be >= 0: "
                f"{self.breaker_probe_jitter}"
            )
        if self.brownout_window < 1:
            raise ValueError(
                f"brownout_window must be >= 1: {self.brownout_window}"
            )
        if self.brownout_min_samples < 1:
            raise ValueError(
                "brownout_min_samples must be >= 1: "
                f"{self.brownout_min_samples}"
            )
        if self.brownout_hold < 0:
            raise ValueError(
                f"brownout_hold must be >= 0: {self.brownout_hold}"
            )
        if self.brownout_quantum_stretch < 1.0:
            raise ValueError(
                "brownout_quantum_stretch must be >= 1 (brownout never "
                f"shrinks quanta): {self.brownout_quantum_stretch}"
            )
        if self.config_retry_backoff < 0:
            raise ValueError(
                "config_retry_backoff must be >= 0: "
                f"{self.config_retry_backoff}"
            )

    @property
    def inert(self) -> bool:
        """True when arming the runtime could not change the run.

        No scripted events, breakers off, brownout off: every chaos hook
        in the executor would be a no-op, so the executor leaves
        ``self._chaos`` unset and the run stays on the exact plain-serve
        code path.
        """
        return (
            not self.events
            and not self.breakers_enabled
            and not self.brownout_enabled
        )

    def as_dict(self) -> dict:
        """JSON-safe fingerprint for journal meta / resume guards."""
        return {
            "events": [e.as_dict() for e in self.events],
            "blades": self.blades,
            "breakers_enabled": self.breakers_enabled,
            "breaker_threshold": self.breaker_threshold,
            "breaker_cooldown": self.breaker_cooldown,
            "breaker_probe_jitter": self.breaker_probe_jitter,
            "brownout_enabled": self.brownout_enabled,
            "brownout_enter_p99": self.brownout_enter_p99,
            "brownout_exit_p99": self.brownout_exit_p99,
            "brownout_enter_shed": self.brownout_enter_shed,
            "brownout_exit_shed": self.brownout_exit_shed,
            "brownout_window": self.brownout_window,
            "brownout_min_samples": self.brownout_min_samples,
            "brownout_hold": self.brownout_hold,
            "brownout_max_shed_priority": self.brownout_max_shed_priority,
            "brownout_quantum_stretch": self.brownout_quantum_stretch,
            "config_retry_backoff": self.config_retry_backoff,
            "seed": self.seed,
        }
