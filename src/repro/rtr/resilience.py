"""The one recovery loop: the FRTR and PRTR executors and the service.

:func:`resilient` drives one logical configuration (fetch + write) through
a :class:`~repro.faults.recovery.RecoveryPolicy`: it re-runs the attempt
generator on every injected :class:`~repro.faults.errors
.ReconfigurationFault`, pays the policy's deterministic backoff between
attempts, and reports what happened as a :class:`ConfigOutcome` so the
executor can account retries/fallbacks per call record.  The service
scheduler retries each reconfiguration through it too, under a fixed
budget and a constant backoff, with the chaos runtime's circuit breaker
wrapped around the attempt.

With ``recovery=None`` the first fault propagates unchanged — fail-fast —
which also means the fault-free path adds *zero* events or draws and runs
bit-identical to the pre-fault executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from ..faults.errors import ReconfigurationFault
from ..faults.recovery import RecoveryPolicy
from ..sim.engine import Delay, Simulator

__all__ = ["ConfigOutcome", "resilient"]


@dataclass
class ConfigOutcome:
    """How one logical (re)configuration resolved."""

    #: failed attempts before resolution
    retries: int = 0
    #: retries that re-fetched the bitstream from the server
    refetches: int = 0
    #: the policy gave up on the partial path; the caller must now run a
    #: full (FRTR) reconfiguration
    fallback: bool = False
    #: the policy declared the blade degraded; the caller must abandon
    #: the remaining trace
    degrade: bool = False
    #: simulated seconds burned on failed attempts and backoff
    recovery_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not (self.fallback or self.degrade)


def resilient(
    sim: Simulator,
    attempt: Callable[[bool], Generator[Any, Any, Any]],
    recovery: RecoveryPolicy | None,
    *,
    allow_fallback: bool = False,
) -> Generator[Any, Any, ConfigOutcome]:
    """Drive ``attempt`` until it succeeds or the policy escalates.

    ``attempt(fetch)`` is a generator performing one configuration try;
    ``fetch`` tells it whether to (re)pull the bitstream over the server
    channel first (the first attempt always fetches; plain retries reuse
    the locally buffered copy).  ``allow_fallback=False`` (the full-config
    path, which has nothing coarser to fall back to) downgrades a
    ``fallback_full`` action to a refetching retry.
    """
    if recovery is None:
        yield from attempt(True)
        return ConfigOutcome()
    t_start = sim.now
    failures = 0
    refetches = 0
    fetch = True
    while True:
        attempt_start = sim.now
        try:
            yield from attempt(fetch)
        except ReconfigurationFault as fault:
            failures += 1
            action = recovery.on_failure(failures, fault)
            if action.delay:
                yield Delay(action.delay)
            kind = action.kind
            if kind == "fallback_full" and not allow_fallback:
                kind = "refetch"
            if kind == "retry":
                fetch = False
                continue
            if kind == "refetch":
                refetches += 1
                fetch = True
                continue
            out = ConfigOutcome(
                retries=failures,
                refetches=refetches,
                recovery_time=sim.now - t_start,
            )
            if kind == "fallback_full":
                out.fallback = True
                return out
            if kind == "degrade":
                out.degrade = True
                return out
            raise fault  # "giveup"
        else:
            return ConfigOutcome(
                retries=failures,
                refetches=refetches,
                recovery_time=attempt_start - t_start,
            )
