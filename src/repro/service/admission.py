"""Admission control: token buckets, bounded queues, load shedding.

Every arrival gets exactly one explicit decision — ``admit`` (a PRR
grant is free right now), ``queue`` (admitted, waits its turn), or
``shed`` — and every decision is accounted into epoch-indexed counters
that travel with the run journal, so a post-mortem can reconstruct *when*
the service started pushing back, not just how often.

Shedding is graceful and ordered:

* ``brownout`` — the chaos-mode brownout controller has browned the
  tenant's tier out (only when a chaos spec arms it; see
  :mod:`repro.chaos.brownout`);
* ``power_cap`` — granting the arrival would push the node's projected
  power draw above :attr:`~repro.service.tenants.ServiceConfig
  .power_cap_w` (only when a cap is configured; the scheduler computes
  the projection from the :mod:`repro.power` model);
* ``rate_limit`` — the tenant's token bucket is empty (sustained rate
  above its contract);
* ``queue_full`` — the tenant's own bounded backlog is at capacity;
* ``overload`` — the *service-wide* backlog passed the high-water mark
  and a strictly higher-priority tenant has work pending: under
  overload the lowest-priority traffic is shed first, while the highest
  pending priority keeps being served.

The overload check takes the higher-priority-pending predicate as a
callable so the scheduler can answer it from an incrementally maintained
per-priority backlog census — O(distinct active priorities) per
arrival — instead of this module scanning every configured tenant.

With :attr:`~repro.service.tenants.ServiceConfig.admission` off the
controller is a pass-through (every arrival decides ``admit``/``queue``
purely on grant availability), as
:func:`~repro.rtr.multitask.compare_multitask` runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..obs import metrics as obsm
from .tenants import ServiceConfig, TenantSpec

__all__ = ["AdmissionController", "Decision", "TokenBucket"]


@dataclass
class TokenBucket:
    """Sim-time token bucket with lazy refill.

    ``rate`` tokens arrive per simulated second up to ``capacity``;
    :meth:`try_take` refills from the elapsed simulation time and takes
    one token if available.  A zero rate disables the bucket (always
    allows).
    """

    rate: float
    capacity: float
    tokens: float = field(init=False)
    _last: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"token rate must be >= 0: {self.rate}")
        if self.capacity < 1:
            raise ValueError(f"bucket capacity must be >= 1: {self.capacity}")
        self.tokens = self.capacity

    def try_take(self, now: float) -> bool:
        """Refill to ``now`` and consume one token if available."""
        if self.rate == 0:
            return True
        elapsed = max(now - self._last, 0.0)
        self._last = now
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class Decision:
    """One admission outcome: the verdict and (for sheds) the reason."""

    verdict: str  # "admit" | "queue" | "shed"
    reason: str = ""


class AdmissionController:
    """Per-tenant token buckets plus service-wide overload shedding.

    The controller is pure bookkeeping over simulation state handed in
    by the scheduler (backlogs, grant availability) — it never touches
    the DES directly, which keeps decisions synchronous and free of
    event-ordering side effects.
    """

    def __init__(
        self, tenants: Sequence[TenantSpec], config: ServiceConfig
    ) -> None:
        self.config = config
        self.tenants = {t.name: t for t in tenants}
        self.buckets = {
            t.name: TokenBucket(rate=t.rate_limit, capacity=t.bucket)
            for t in tenants
            if t.rate_limit > 0
        }
        #: epoch index -> tenant -> decision/reason -> count
        self.epochs: dict[int, dict[str, dict[str, int]]] = {}

    def _account(self, now: float, tenant: str, key: str) -> None:
        """Bump the epoch-indexed decision counter for ``tenant``."""
        epoch = int(now // self.config.epoch)
        per_tenant = self.epochs.setdefault(epoch, {})
        counts = per_tenant.setdefault(tenant, {})
        counts[key] = counts.get(key, 0) + 1

    def decide(
        self,
        tenant: str,
        now: float,
        *,
        backlog_of: Callable[[str], int],
        total_backlog: int,
        grant_free: bool,
        higher_pending: Callable[[int], bool] | None = None,
        brownout_shed: bool = False,
        power_capped: bool = False,
    ) -> Decision:
        """Decide one arrival; accounts the decision and emits metrics.

        ``backlog_of`` reports a tenant's queued (admitted, not yet
        granted) requests; ``total_backlog`` is the service-wide sum;
        ``grant_free`` whether a PRR grant is available right now.
        ``higher_pending(priority)`` answers whether any strictly
        higher-priority request is queued (``None`` falls back to a
        ``backlog_of`` scan over all configured tenants);
        ``brownout_shed`` is the chaos brownout controller's verdict for
        this arrival's tier; ``power_capped`` the scheduler's verdict on
        whether granting this arrival would exceed the power budget.
        """
        spec = self.tenants[tenant]
        decision = self._decide(
            spec, now,
            backlog_of=backlog_of,
            total_backlog=total_backlog,
            grant_free=grant_free,
            higher_pending=higher_pending,
            brownout_shed=brownout_shed,
            power_capped=power_capped,
        )
        self._account(now, tenant, decision.verdict)
        obsm.counter("repro_service_decisions_total").inc(
            tenant=tenant, decision=decision.verdict
        )
        if decision.verdict == "shed":
            self._account(now, tenant, f"shed:{decision.reason}")
            obsm.counter("repro_service_shed_total").inc(
                tenant=tenant, reason=decision.reason
            )
        return decision

    def _decide(
        self,
        spec: TenantSpec,
        now: float,
        *,
        backlog_of: Callable[[str], int],
        total_backlog: int,
        grant_free: bool,
        higher_pending: Callable[[int], bool] | None = None,
        brownout_shed: bool = False,
        power_capped: bool = False,
    ) -> Decision:
        """The decision logic proper (no accounting side effects)."""
        if not self.config.admission:
            return Decision("admit" if grant_free else "queue")
        if brownout_shed:
            return Decision("shed", "brownout")
        if power_capped:
            return Decision("shed", "power_cap")
        bucket = self.buckets.get(spec.name)
        if bucket is not None and not bucket.try_take(now):
            return Decision("shed", "rate_limit")
        if backlog_of(spec.name) >= spec.queue_capacity:
            return Decision("shed", "queue_full")
        if total_backlog >= self.config.overload_backlog:
            if higher_pending is not None:
                blocked = higher_pending(spec.priority)
            else:
                blocked = any(
                    other.priority > spec.priority and backlog_of(name) > 0
                    for name, other in self.tenants.items()
                )
            if blocked:
                return Decision("shed", "overload")
        return Decision("admit" if grant_free else "queue")

    def shed_post_admission(
        self, tenant: str, now: float, reason: str
    ) -> None:
        """Account a post-admission shed (e.g. repeated config faults)."""
        self._account(now, tenant, f"shed:{reason}")
        obsm.counter("repro_service_shed_total").inc(
            tenant=tenant, reason=reason
        )

    def epochs_as_dict(self) -> dict[str, dict[str, dict[str, int]]]:
        """JSON-able epoch counters (string epoch keys, sorted)."""
        return {
            str(epoch): {
                tenant: dict(sorted(counts.items()))
                for tenant, counts in sorted(per_tenant.items())
            }
            for epoch, per_tenant in sorted(self.epochs.items())
        }
