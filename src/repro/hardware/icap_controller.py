"""The BRAM-buffered ICAP partial-reconfiguration controller (paper Fig. 7).

The Cray XD1 vendor API refuses partial bitstreams, so the paper routes
them through the FPGA's Internal Configuration Access Port (ICAP) behind a
custom control circuit:

* the host streams the partial bitstream over the (dual-channel,
  1.6 GB/s) link into a small BRAM buffer on the fabric;
* a state machine drains the buffer into the ICAP (8 bit @ 66 MHz);
* buffering lets the link transfer of chunk *i+1* overlap the ICAP write
  of chunk *i* (double buffering).

The controller is *slower than the dedicated external port*: each buffered
chunk pays a handshake/state-machine overhead on top of the raw ICAP wire
time.  Calibrating the per-chunk handshake against the published single-PRR
measurement (43.48 ms for 887,784 bytes) predicts the dual-PRR measurement
(19.77 ms for 404,168 bytes) to within 0.05% — strong evidence this is the
mechanism behind the paper's numbers.  See
:func:`repro.analysis.calibration.fit_icap_handshake`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator

from ..faults.detection import CrcChecker
from ..faults.errors import TransferCorruption, WriteAbort
from ..faults.injector import FaultInjector
from ..obs import metrics as obsm
from ..sim.engine import AllOf, Delay, Simulator, WaitUntil, left_sum
from ..sim.resources import BandwidthChannel, MutexResource
from .bitstream import Bitstream
from .catalog import MB, MS

__all__ = ["IcapController", "IcapTimings", "DEFAULT_ICAP_TIMINGS"]


def _draws_nothing(injector: Any, rate: str) -> bool:
    """True when ``injector`` is absent or its ``config.<rate>`` is zero."""
    return injector is None or getattr(
        getattr(injector, "config", None), rate, None
    ) == 0.0


@dataclass(frozen=True)
class IcapTimings:
    """Timing parameters of the ICAP controller datapath."""

    #: raw ICAP wire throughput (bytes/s)
    icap_bandwidth: float
    #: BRAM staging buffer size (bytes per chunk)
    chunk_bytes: int
    #: state-machine handshake overhead per chunk (seconds)
    chunk_handshake: float
    #: per-chunk drain times by (chunk count, last-chunk size)
    _drain_cache: dict[tuple[int, int], tuple[float, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.icap_bandwidth <= 0:
            raise ValueError("icap_bandwidth must be positive")
        if self.chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if self.chunk_handshake < 0:
            raise ValueError("chunk_handshake must be >= 0")

    def n_chunks(self, nbytes: int) -> int:
        return max(1, math.ceil(nbytes / self.chunk_bytes))

    def drain_time(self, nbytes: int) -> float:
        """BRAM->ICAP time for a whole bitstream (handshake + wire)."""
        return (
            self.n_chunks(nbytes) * self.chunk_handshake
            + nbytes / self.icap_bandwidth
        )

    def effective_bandwidth(self, nbytes: int) -> float:
        """End-to-end controller throughput for an ``nbytes`` image."""
        return nbytes / self.drain_time(nbytes)

    def chunk_sizes(self, nbytes: int) -> list[int]:
        """The BRAM chunks an ``nbytes`` bitstream streams in, in order."""
        full, rem = divmod(nbytes, self.chunk_bytes)
        sizes = [self.chunk_bytes] * full
        if rem:
            sizes.append(rem)
        return sizes or [nbytes]

    def configure_time(
        self, nbytes: int, transfer_time: Callable[[int], float]
    ) -> float:
        """Unloaded time over a link: first chunk fill + pipelined drain."""
        first = min(self.chunk_bytes, nbytes)
        return transfer_time(first) + self.drain_time(nbytes)

    def _chunk_drains(self, sizes: list[int]) -> tuple[float, ...]:
        """Each chunk's BRAM->ICAP drain time, for :meth:`chunk_sizes` chunks.

        Cached per (chunk count, last-chunk size): all other chunks are
        full.
        """
        key = (len(sizes), sizes[-1])
        drains = self._drain_cache.get(key)
        if drains is None:
            drains = self._drain_cache[key] = tuple(
                self.chunk_handshake + size / self.icap_bandwidth
                for size in sizes
            )
        return drains

    def fold_stream(
        self,
        sizes: list[int],
        t: float,
        transfer_time: Callable[[int], float],
        prefetches: list[tuple[float, float, int]] | None = None,
        abort: Callable[[int], float | None] | None = None,
    ) -> float:
        """End time of the double-buffered drain once bank 0 is full at ``t``.

        The one fold of the per-chunk pipeline over the chunks
        :meth:`chunk_sizes` gives, shared by the DES fast path and
        :func:`repro.model.hybrid.replay_cell`: per chunk, the drain and
        the next chunk's prefetch over the link (``transfer_time``) both
        start at the barrier ``t`` and the next barrier is the later of
        their ends — the same float additions and ``max`` the per-chunk
        processes of :meth:`IcapController._chunk_stream` perform.
        ``prefetches`` collects each prefetch's ``(start, end, chunk
        index)``.

        When a full chunk drains no faster than it crosses the link,
        every barrier is ``t + drain``, and the end is one left fold of
        the drains: rounding to nearest is monotone, so ``drain >=
        fetch`` gives ``t + drain >= t + fetch`` for every ``t``, and no
        chunk is larger than a full one.  The fold is
        :func:`~repro.sim.engine.left_sum`, never the builtin ``sum``,
        whose compensated float sums (Python 3.12+) round differently.

        ``abort(i)`` is the per-chunk path's write-abort draw, made at
        chunk ``i``'s barrier before its drain: ``None`` drains on, a
        fraction ends the stream at ``t + fraction * drain`` (the float
        that path's ``Delay`` schedules) before chunk ``i+1``'s prefetch
        starts.
        """
        drains = self._chunk_drains(sizes)
        if (
            prefetches is None
            and abort is None
            and drains[0] >= transfer_time(self.chunk_bytes)
        ):
            return left_sum(drains, t)
        last = len(sizes) - 1
        for i, drain in enumerate(drains):
            if abort is not None:
                fraction = abort(i)
                if fraction is not None:
                    return t + fraction * drain
            if i < last:
                t_prefetch = t + transfer_time(sizes[i + 1])
                if prefetches is not None:
                    prefetches.append((t, t_prefetch, i + 1))
                t_drain = t + drain
                t = t_drain if t_drain >= t_prefetch else t_prefetch
            else:
                t = t + drain
        return t


def _calibrated_handshake() -> float:
    """Per-chunk handshake solved from the published single-PRR row.

    43.48 ms total = first-chunk link fill (negligible) +
    n_chunks * handshake + bytes / 66 MB/s.  The fill is timed at the
    raw 1.6 GB/s link rate; the DES and the replay fill over the 1.4 GB/s
    inbound channel, 1.463 us later per configuration (``docs/MODEL.md``
    section 7).
    """
    nbytes = 887_784
    measured = 43.48 * MS
    chunk = 16 * 1024
    n = max(1, math.ceil(nbytes / chunk))
    wire = nbytes / (66 * MB)
    first_fill = chunk / (1600 * MB)
    return (measured - wire - first_fill) / n


DEFAULT_ICAP_TIMINGS = IcapTimings(
    icap_bandwidth=66 * MB,
    chunk_bytes=16 * 1024,
    chunk_handshake=_calibrated_handshake(),
)


class IcapController:
    """DES model of the Fig. 7 control circuit.

    The controller owns the ICAP mutex (one reconfiguration at a time) and
    shares the host->FPGA *input* channel with data transfers — the
    architectural constraint Section 4.1 highlights: partial
    reconfiguration can only start once input data transfer is done, and
    overlaps computation or output transfer instead.
    """

    def __init__(
        self,
        sim: Simulator,
        in_link: BandwidthChannel,
        timings: IcapTimings = DEFAULT_ICAP_TIMINGS,
        *,
        injector: FaultInjector | None = None,
        crc: CrcChecker | None = None,
        max_chunk_retries: int = 3,
    ) -> None:
        if max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be >= 0")
        self.sim = sim
        self.in_link = in_link
        self.timings = timings
        #: fault oracle for chunk-drain write aborts; link-transfer
        #: corruption is drawn by ``in_link``'s own injector hook
        self.injector = injector
        #: per-chunk CRC verification model (free + full-coverage default)
        self.crc = crc or CrcChecker()
        #: retransmits tolerated per corrupted chunk before the whole
        #: configuration attempt fails with :class:`TransferCorruption`
        self.max_chunk_retries = max_chunk_retries
        self.icap_mutex = MutexResource(sim, name="icap")
        self.configurations = 0
        self.bytes_configured = 0
        self.chunk_retransmits = 0
        self.write_aborts = 0
        self.silent_corruptions = 0

    # -- pure time model (no queueing) ------------------------------------

    def configure_time(self, bitstream: Bitstream) -> float:
        """Unloaded end-to-end time: first chunk fill + pipelined drain."""
        return self.timings.configure_time(
            bitstream.nbytes, self.in_link.transfer_time
        )

    # -- DES process -------------------------------------------------------

    def configure(
        self, bitstream: Bitstream, owner: str
    ) -> Generator[Any, Any, float]:
        """Stream a partial bitstream through the controller.

        Double-buffered: while the state machine drains chunk ``i`` into
        the ICAP, the link prefetches chunk ``i+1`` into the second BRAM
        bank.  Both the link channel and the ICAP mutex serialize against
        other users, so contention with data transfers emerges naturally.

        Fault semantics (inert without an injector): each chunk arriving
        over the link is CRC-checked and retransmitted up to
        ``max_chunk_retries`` times (:class:`TransferCorruption` when the
        budget runs out); the state machine may abort mid-drain
        (:class:`WriteAbort`).  Either fault aborts the whole attempt with
        the ICAP mutex cleanly released, leaving recovery to the caller.

        After the first-chunk fill the rest of the stream is *folded*
        into one wake-up when the link is free and cannot corrupt a
        prefetch (:meth:`_can_fold`); otherwise it runs the per-chunk
        processes (:meth:`_chunk_stream`).  Both give bit-identical
        times, link intervals, counters, raised faults and injector
        draws.
        """
        if not bitstream.is_partial:
            raise ValueError(
                "the ICAP controller path is for partial bitstreams; "
                "full configuration goes through the vendor SelectMap API"
            )
        sizes = self.timings.chunk_sizes(bitstream.nbytes)

        yield from self.icap_mutex.acquire(owner)
        held_at = self.sim.now
        try:
            # Fill the first BRAM bank.
            yield from self._fill_chunk(bitstream, 0, sizes[0], owner)
            if self._can_fold():
                yield from self._folded_stream(bitstream, sizes, owner)
            else:
                yield from self._chunk_stream(bitstream, sizes, owner)
            self.configurations += 1
            self.bytes_configured += bitstream.nbytes
            obsm.counter("repro_icap_configurations_total").inc()
            obsm.counter("repro_icap_bytes_total").inc(bitstream.nbytes)
        finally:
            # Busy time covers failed attempts too: the mutex was held
            # either way, which is what occupancy reports care about.
            obsm.counter("repro_icap_busy_seconds_total").inc(
                self.sim.now - held_at
            )
            self.icap_mutex.release(owner)
        return self.sim.now

    def count_write_abort(self) -> None:
        """Count one ICAP write abort: the attribute and the metric."""
        self.write_aborts += 1
        obsm.counter("repro_icap_write_aborts_total").inc()

    def _can_fold(self) -> bool:
        """May the rest of the stream skip its per-chunk events?

        Only when the link is free (no other owner won it during the
        fill) and its injector cannot corrupt a prefetch: a zero
        ``transfer_ber`` never draws, so the only draws left in the
        window are the chunk aborts, whose order the fold reproduces.
        """
        return not self.in_link.busy and _draws_nothing(
            self.in_link.injector, "transfer_ber"
        )

    def _folded_stream(
        self, bitstream: Bitstream, sizes: list[int], owner: str
    ) -> Generator[Any, Any, None]:
        """The rest of the stream in one wake-up at its exact end time.

        The end time is :meth:`IcapTimings.fold_stream` over this
        controller's link, making the per-chunk path's abort draws in its
        order.  The link is reserved for the window (a competing transfer
        raises), and so is the injector once the fold has drawn (a
        competing draw raises).  The prefetches that ran are recorded
        afterwards in one :meth:`BandwidthChannel.record_fold` record,
        which rebuilds their intervals from the same fold when they are
        read, and an abort is counted and raised at its instant.
        """
        link = self.in_link
        injector = self.injector
        fold = functools.partial(self.timings.fold_stream, sizes, self.sim.now)
        aborted: list[int] = []

        def abort(i: int) -> float | None:
            if not injector.chunk_aborted():
                return None
            aborted.append(i)
            return injector.abort_fraction()

        draws = not _draws_nothing(injector, "chunk_abort_rate")
        end = fold(link.transfer_time, None, abort if draws else None)
        link.reserve(owner, end)
        if draws:
            injector.reserve(owner, end, self.sim)
        yield WaitUntil(end)
        # Chunk i+1's prefetch starts once chunk i has drawn no abort.
        ran = aborted[0] if aborted else len(sizes) - 1
        link.record_fold(fold, sizes[1 : ran + 1], f"{owner}:bs")
        if aborted:
            self.count_write_abort()
            raise WriteAbort(
                f"ICAP write abort on chunk {aborted[0]} of {bitstream.name!r}"
            )

    def _chunk_stream(
        self, bitstream: Bitstream, sizes: list[int], owner: str
    ) -> Generator[Any, Any, None]:
        """The per-chunk pipeline: one prefetch process per chunk.

        The path whenever the link is contended or can corrupt a
        prefetch, and the reference the folded stream is tested against.
        """
        t = self.timings
        for i, size in enumerate(sizes):
            drain = t.chunk_handshake + size / t.icap_bandwidth
            if self.injector is not None and self.injector.chunk_aborted():
                # The state machine died partway through the write;
                # pay the wasted fraction of the drain, then fail.
                self.count_write_abort()
                yield Delay(self.injector.abort_fraction() * drain)
                raise WriteAbort(
                    f"ICAP write abort on chunk {i} of {bitstream.name!r}"
                )
            if i + 1 < len(sizes):
                arrived: dict[str, bool] = {}

                def prefetch(
                    idx: int = i + 1, nb: int = sizes[i + 1]
                ) -> Generator[Any, Any, None]:
                    _, ok = yield from self.in_link.transfer_ok(
                        nb, f"{owner}:bs{idx}"
                    )
                    arrived["ok"] = ok

                nxt = self.sim.spawn(prefetch(), name=f"icap-prefetch-{i+1}")
                yield Delay(drain)
                yield AllOf([nxt.done])
                if not arrived.get("ok", True):
                    yield from self._retransmit(
                        bitstream, i + 1, sizes[i + 1], owner
                    )
            else:
                yield Delay(drain)

    def _fill_chunk(
        self, bitstream: Bitstream, idx: int, nbytes: int, owner: str
    ) -> Generator[Any, Any, None]:
        """Stream chunk ``idx`` into a BRAM bank, retransmitting on CRC fail."""
        _, ok = yield from self.in_link.transfer_ok(nbytes, f"{owner}:bs{idx}")
        if not ok:
            yield from self._retransmit(bitstream, idx, nbytes, owner)

    def _retransmit(
        self, bitstream: Bitstream, idx: int, nbytes: int, owner: str
    ) -> Generator[Any, Any, None]:
        """Handle a corrupted chunk: CRC verdict, then bounded retransmits.

        The steady-state CRC is pipelined into the drain (free); the
        checker's ``check_time`` models the *re-verification* of each
        retransmitted chunk.  A checker with coverage < 1 may miss, in
        which case the corruption goes through silently (counted).
        """
        injector = self.injector or getattr(self.in_link, "injector", None)
        if not self.crc.detects(injector):
            self.silent_corruptions += 1
            return
        for _attempt in range(self.max_chunk_retries):
            self.chunk_retransmits += 1
            obsm.counter("repro_icap_chunk_retransmits_total").inc()
            check = self.crc.check_time(nbytes)
            if check:
                yield Delay(check)
            _, ok = yield from self.in_link.transfer_ok(
                nbytes, f"{owner}:bs{idx}:rt"
            )
            if ok:
                return
            if not self.crc.detects(injector):
                self.silent_corruptions += 1
                return
        raise TransferCorruption(
            f"chunk {idx} of {bitstream.name!r} failed CRC after "
            f"{self.max_chunk_retries} retransmits"
        )
