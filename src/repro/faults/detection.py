"""Fault *detection*: per-chunk CRC checks.

Every :class:`~repro.hardware.bitstream.Bitstream` carries a
deterministic CRC-32 per BRAM chunk (see ``Bitstream.chunk_crcs``).
:class:`CrcChecker` models the *cost* and *coverage* of verifying it:
checking is free by default (the Fig. 7 state machine can fold a CRC
into the drain at wire speed), and coverage below 1.0 models checksum
escapes — corrupted chunks that slip through and become silent data
corruption.
"""

from __future__ import annotations

from dataclasses import dataclass

from .injector import FaultInjector

__all__ = ["CrcChecker"]


@dataclass(frozen=True)
class CrcChecker:
    """Cost/coverage model of a per-chunk CRC verification stage.

    Parameters
    ----------
    bandwidth:
        Bytes/second the checker can hash; ``0`` means the check is free
        (pipelined into the chunk drain) — the default, which keeps
        fault-free runs bit-identical to the pre-fault baseline.
    coverage:
        Probability a corrupted chunk is actually flagged.  Below 1.0 the
        checker can miss, turning an injected corruption into silent data
        corruption (counted by the caller, not retried).
    """

    bandwidth: float = 0.0
    coverage: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth < 0:
            raise ValueError(f"bandwidth must be >= 0: {self.bandwidth}")
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError(f"coverage must be in [0,1]: {self.coverage}")

    def check_time(self, nbytes: float) -> float:
        """Seconds to verify ``nbytes`` (0 when the check is pipelined)."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        if self.bandwidth <= 0:
            return 0.0
        return nbytes / self.bandwidth

    def detects(self, injector: FaultInjector | None) -> bool:
        """Does the checker flag a (known-corrupted) chunk?

        Full coverage never consumes a draw; partial coverage draws from
        the injector's stream (falling back to certain detection when no
        stream is available, to stay deterministic).
        """
        if self.coverage >= 1.0 or injector is None:
            return True
        return bool(injector.rng.random() < self.coverage)
