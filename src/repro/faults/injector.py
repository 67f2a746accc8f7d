"""Deterministic, seeded fault processes.

The injector is the single source of randomness for the whole fault
subsystem.  It owns one :class:`numpy.random.Generator` on PCG64, built
from a seed by :func:`repro.model.stochastic.resolve_rng` (so
``seed=None`` means seed 0, never OS entropy), and is consulted by the
hardware models at well-defined points:

* :meth:`FaultInjector.transfer_corrupted` — once per
  :class:`~repro.sim.resources.BandwidthChannel` transfer carrying a
  bitstream (per-byte Bernoulli error rate, aggregated in closed form);
* :meth:`FaultInjector.chunk_aborted` — once per BRAM chunk the ICAP
  controller drains (state-machine write abort), or
  :meth:`FaultInjector.chunk_abort_index` once for a folded stream's
  chunks;
* :meth:`FaultInjector.port_aborted` — once per full-device write
  (:meth:`~repro.hardware.node.XD1Node.configure_full`);
* :meth:`FaultInjector.span_aborted` — once per wire-only partial write
  (:meth:`~repro.hardware.node.XD1Node.configure_partial` with
  ``estimated``).

Determinism contract: the DES engine is single-threaded and its event
order is fully deterministic, so the *call order* into the injector is
deterministic too; same seed + same workload → bit-identical fault
realizations.  Rates that are exactly zero never consume a draw, so a
zero-rate injector leaves the stream untouched and any run with it is
bit-identical to a run with no injector at all.

A folded ICAP stream makes its whole window's draws at once: one vector
of chunk-abort uniforms (:meth:`FaultInjector.chunk_abort_index`), whose
uniforms past the first abort go back to the stream, then that abort's
``abort_fraction``.  That leaves the stream where the per-chunk path's
``chunk_aborted`` / ``abort_fraction`` draws leave it.  The fold then
holds the injector until the window ends (:meth:`FaultInjector.reserve`):
a draw by anyone else inside the window would have interleaved with the
per-chunk draws, so it raises :class:`~repro.sim.engine.SimulationError`
instead of silently diverging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..model.stochastic import resolve_rng
from ..sim.engine import SimulationError, Simulator

__all__ = ["FaultConfig", "FaultStats", "FaultInjector"]


@dataclass(frozen=True)
class FaultConfig:
    """Rates of the modeled fault processes (all default to 0 = fault-free).

    Attributes
    ----------
    transfer_ber:
        Per-byte corruption probability on bitstream-carrying transfers
        (host link into the BRAM buffer, cluster bitstream-server fetches).
        A transfer of ``n`` bytes is corrupted with ``1 - (1 - ber)^n``.
    chunk_abort_rate:
        Probability that the ICAP state machine aborts while draining one
        BRAM chunk — the custom-controller risk the paper's Fig. 7 path
        takes on by bypassing the vendor API.
    port_abort_rate:
        Probability that a full-device write through a vendor config port
        aborts.  Defaults to 0 separately from the ICAP rate because the
        vendor path is validated end-to-end (DONE-pin polling).
    seu_rate:
        Configuration-memory single-event upsets per second *per
        configured region*.  No model draws upsets, so the rate does
        not clear :attr:`fault_free` and
        :attr:`FaultStats.seus_injected` stays 0.
    seed:
        Seed for the injector's private random stream.
    """

    transfer_ber: float = 0.0
    chunk_abort_rate: float = 0.0
    port_abort_rate: float = 0.0
    seu_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in ("transfer_ber", "chunk_abort_rate", "port_abort_rate"):
            v = getattr(self, f)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{f} must be a probability in [0,1]: {v}")
        if self.seu_rate < 0:
            raise ValueError(f"seu_rate must be >= 0: {self.seu_rate}")

    @property
    def fault_free(self) -> bool:
        return (
            self.transfer_ber == 0.0
            and self.chunk_abort_rate == 0.0
            and self.port_abort_rate == 0.0
        )

    def span_abort_probability(self, n_chunks: int) -> float:
        """``1 - (1 - chunk_abort_rate)^n``: an ``n_chunks`` write aborts."""
        p_chunk = self.chunk_abort_rate
        if p_chunk <= 0.0 or n_chunks <= 0:
            return 0.0
        if p_chunk >= 1.0:
            return 1.0
        return -math.expm1(n_chunks * math.log1p(-p_chunk))

    def transfer_corruption_probability(self, nbytes: float) -> float:
        """``1 - (1 - ber)^n``, evaluated stably for tiny ``ber``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        if self.transfer_ber <= 0.0 or nbytes == 0:
            return 0.0
        if self.transfer_ber >= 1.0:
            return 1.0
        return -math.expm1(nbytes * math.log1p(-self.transfer_ber))

    def reseeded(self, seed: int) -> "FaultConfig":
        """The same rates under a different seed (per-blade streams)."""
        return replace(self, seed=seed)


@dataclass
class FaultStats:
    """Counters of *injected* faults (detection/recovery count elsewhere)."""

    transfers_corrupted: int = 0
    chunk_aborts: int = 0
    port_aborts: int = 0
    seus_injected: int = 0

    @property
    def total(self) -> int:
        return (
            self.transfers_corrupted
            + self.chunk_aborts
            + self.port_aborts
            + self.seus_injected
        )

    def as_dict(self) -> dict[str, int]:
        return {
            "transfers_corrupted": self.transfers_corrupted,
            "chunk_aborts": self.chunk_aborts,
            "port_aborts": self.port_aborts,
            "seus_injected": self.seus_injected,
            "total": self.total,
        }


class FaultInjector:
    """Seeded fault oracle shared by one node's hardware models."""

    def __init__(self, config: FaultConfig, rng: int | None = None) -> None:
        self.config = config
        #: PCG64, whose ``advance`` gives back undrawn uniforms
        #: (:meth:`chunk_abort_index`); ``rng`` seeds it instead of
        #: ``config.seed``
        self.rng = resolve_rng(config.seed if rng is None else rng)
        self.stats = FaultStats()
        #: a folded stream's owner, end time and clock (:meth:`reserve`)
        self._hold: tuple[str, float, Simulator] | None = None

    def reserve(self, owner: str, until: float, clock: Simulator) -> None:
        """Hold the stream for ``owner``'s folded window until ``until``.

        The fold has already drawn everything the per-chunk path would
        draw inside the window; that is exact only if nobody else draws
        before ``until``.  Any draw while ``clock.now < until`` therefore
        raises :class:`SimulationError` naming the draw and the holder,
        the way :meth:`~repro.sim.resources.BandwidthChannel.reserve`
        refuses transfers.
        """
        self._hold = (owner, until, clock)

    def _stream(self, draw: str) -> np.random.Generator:
        """The random stream for one ``draw``, refused inside a hold."""
        if self._hold is not None:
            owner, until, clock = self._hold
            if clock.now < until:
                raise SimulationError(
                    f"{draw}() drew on the fault injector inside the folded "
                    f"stream of {owner!r} (held until t={until!r})"
                )
            self._hold = None
        return self.rng

    # -- per-fault-domain draws ------------------------------------------

    def transfer_corrupted(self, nbytes: float) -> bool:
        """Did this bitstream transfer arrive corrupted?"""
        p = self.config.transfer_corruption_probability(nbytes)
        if p <= 0.0:
            return False
        hit = bool(self._stream("transfer_corrupted").random() < p)
        if hit:
            self.stats.transfers_corrupted += 1
        return hit

    def chunk_aborted(self) -> bool:
        """Does the ICAP state machine abort draining this chunk?"""
        p = self.config.chunk_abort_rate
        if p <= 0.0:
            return False
        hit = bool(self._stream("chunk_aborted").random() < p)
        if hit:
            self.stats.chunk_aborts += 1
        return hit

    def chunk_abort_index(self, n_chunks: int) -> int | None:
        """The first of ``n_chunks`` chunk drains that aborts, or ``None``.

        :meth:`chunk_aborted` over the chunks in order until the first
        abort, as one vector draw: the uniforms after that abort's go
        back to the stream (``bit_generator.advance``), so the next draw
        is the one the per-chunk path would make next.  A zero rate
        draws nothing.
        """
        p = self.config.chunk_abort_rate
        if p <= 0.0:
            return None
        hits = self._stream("chunk_aborted").random(n_chunks) < p
        k = int(hits.argmax())
        if not hits[k]:
            return None
        self.stats.chunk_aborts += 1
        self.rng.bit_generator.advance(k + 1 - n_chunks)
        return k

    def span_aborted(self, n_chunks: int) -> bool:
        """Abort draw for an ``n_chunks``-chunk write collapsed into one
        draw — used by the wire-only ("estimated") configuration path,
        which does not simulate individual chunks."""
        p = self.config.span_abort_probability(n_chunks)
        if p <= 0.0:
            return False
        hit = bool(self._stream("span_aborted").random() < p)
        if hit:
            self.stats.chunk_aborts += 1
        return hit

    def port_aborted(self) -> bool:
        """Does this vendor-port full configuration abort?"""
        p = self.config.port_abort_rate
        if p <= 0.0:
            return False
        hit = bool(self._stream("port_aborted").random() < p)
        if hit:
            self.stats.port_aborts += 1
        return hit

    def abort_fraction(self) -> float:
        """How far through the write the abort struck (uniform in (0,1))."""
        return float(self._stream("abort_fraction").uniform(0.0, 1.0))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<FaultInjector {self.config!r} injected={self.stats.total}>"
