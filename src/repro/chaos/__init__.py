"""Chaos engineering for the multi-tenant service mode.

The paper's bounds assume a fabric that never fails; this package makes
failure a first-class, *deterministic* input to the service layer:

* :mod:`repro.chaos.spec` — the frozen :class:`ChaosSpec` experiment
  description (scripted domain outages + resilience-policy knobs);
* :mod:`repro.chaos.breakers` — per-failure-domain circuit breakers
  (closed/open/half-open on consecutive configuration failures, seeded
  probe jitter);
* :mod:`repro.chaos.brownout` — the hysteretic SLO-aware brownout
  controller (shed low tiers, stretch quanta, restore with hold-time);
* :mod:`repro.chaos.scenarios` — the named seeded scenario library
  behind ``repro chaos --scenario``;
* :mod:`repro.chaos.harness` — runs a scenario against its fault-free
  baseline and reports availability, MTTR, tail-latency-under-failure
  and goodput retention.

The failure-domain topology itself lives with the hardware model in
:mod:`repro.hardware.domains`.  A spec that is inert (no events, no
reactive policies) never arms the runtime, so rate-0 chaos is
bit-identical to plain ``repro serve``.
"""

from .breakers import CircuitBreaker
from .brownout import BrownoutController
from .scenarios import SCENARIOS, build_scenario, scenario_names
from .spec import ChaosEvent, ChaosSpec

#: harness symbols resolved lazily via ``__getattr__`` — the harness
#: imports the service layer, whose scheduler imports this package, so
#: an eager import here would be a cycle.
_HARNESS_EXPORTS = ("crash_safe_chaos", "run_chaos")


def __getattr__(name: str):
    """Lazily expose :mod:`repro.chaos.harness` symbols (PEP 562)."""
    if name in _HARNESS_EXPORTS:
        from . import harness

        return getattr(harness, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )

__all__ = [
    "BrownoutController",
    "ChaosEvent",
    "ChaosSpec",
    "CircuitBreaker",
    "SCENARIOS",
    "build_scenario",
    "crash_safe_chaos",
    "run_chaos",
    "scenario_names",
]
