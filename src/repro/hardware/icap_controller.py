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
from .catalog import PUBLISHED_TABLE2, XD1_NODE, Table2Row

__all__ = ["IcapController", "IcapTimings", "DEFAULT_ICAP_TIMINGS"]


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

    @classmethod
    def solved(
        cls,
        row: Table2Row,
        *,
        icap_bandwidth: float = XD1_NODE.icap_bandwidth,
        chunk_bytes: int = XD1_NODE.icap_buffer_bytes,
        link_bandwidth: float = XD1_NODE.link_raw_bandwidth,
    ) -> "IcapTimings":
        """The timings whose handshake explains a measured partial ``row``
        (:meth:`measured_time`).  The DES and the replay fill over the
        1.4 GB/s inbound channel, 1.463 us later (``docs/MODEL.md`` §7).
        """
        nbytes = row.bitstream_bytes
        n_chunks = max(1, math.ceil(nbytes / chunk_bytes))
        wire = nbytes / icap_bandwidth
        first_fill = min(chunk_bytes, nbytes) / link_bandwidth
        handshake = (row.measured_time_s - wire - first_fill) / n_chunks
        if handshake < 0:
            raise ValueError(
                "measured partial time is below the wire time; the chunked "
                "model cannot explain it with a non-negative handshake"
            )
        return cls(icap_bandwidth, chunk_bytes, handshake)

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

    def measured_time(
        self, nbytes: int, link_bandwidth: float = XD1_NODE.link_raw_bandwidth
    ) -> float:
        """``first_chunk_fill + n_chunks * handshake + bytes / icap``:
        the Table 2 time :meth:`solved` explains, filled over the link."""
        return self.configure_time(nbytes, lambda n: n / link_bandwidth)

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
        abort: tuple[int, float] | None = None,
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

        ``abort = (chunk, fraction)`` is a write abort on ``chunk``: the
        stream ends at its barrier ``t`` plus ``fraction * drain`` (the
        float the per-chunk path's ``Delay`` schedules), before the next
        chunk's prefetch starts.  On a drain-bound link that end is
        ``left_sum(drains[:chunk], t) + fraction * drains[chunk]``.
        """
        drains = self._chunk_drains(sizes)
        if prefetches is None and drains[0] >= transfer_time(self.chunk_bytes):
            if abort is None:
                return left_sum(drains, t)
            chunk, fraction = abort
            return left_sum(drains[:chunk], t) + fraction * drains[chunk]
        last = len(sizes) - 1
        for i, drain in enumerate(drains):
            if abort is not None and i == abort[0]:
                return t + abort[1] * drain
            if i < last:
                t_prefetch = t + transfer_time(sizes[i + 1])
                if prefetches is not None:
                    prefetches.append((t, t_prefetch, i + 1))
                t_drain = t + drain
                t = t_drain if t_drain >= t_prefetch else t_prefetch
            else:
                t = t + drain
        return t


#: the node's controller, its handshake solved from the published
#: single-PRR row
DEFAULT_ICAP_TIMINGS = IcapTimings.solved(PUBLISHED_TABLE2["single_prr"])


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
        #: :meth:`IcapTimings.chunk_sizes` per bitstream size (never
        #: mutated: folded link records keep a reference)
        self._sizes: dict[int, list[int]] = {}

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

        One generator per attempt: a free ICAP is taken without an
        event, and a free link that cannot corrupt fills the first bank
        here.  After that fill the rest of the stream is *folded* into
        one wake-up when the link is free and cannot corrupt a prefetch
        (:meth:`_can_fold`); otherwise it runs the per-chunk processes
        (:meth:`_chunk_stream`).  Both give bit-identical times, link
        intervals, counters, raised faults and injector draws.
        """
        if not bitstream.is_partial:
            raise ValueError(
                "the ICAP controller path is for partial bitstreams; "
                "full configuration goes through the vendor SelectMap API"
            )
        nbytes = bitstream.nbytes
        sizes = self._sizes.get(nbytes)
        if sizes is None:
            sizes = self._sizes[nbytes] = self.timings.chunk_sizes(nbytes)
        sim = self.sim
        link = self.in_link
        if not self.icap_mutex.try_acquire(owner):
            yield from self.icap_mutex.acquire(owner)
        held_at = sim.now
        try:
            # Fill the first BRAM bank.
            fill = f"{owner}:bs0"
            if self._link_clean() and link.try_start(fill):
                yield Delay(link.transfer_time(sizes[0]))
                link.finish(sizes[0], fill)
            else:
                yield from self._fill_chunk(bitstream, 0, sizes[0], owner)
            if self._can_fold():
                # The rest of the stream in one wake-up at its exact end
                # (IcapTimings.fold_stream), with the per-chunk path's
                # abort draws.  The link is reserved for the window (a
                # competing transfer raises), and so is the injector once
                # the fold has drawn (a competing draw raises).
                t = sim.now
                timings = self.timings
                injector = self.injector
                drew = (
                    injector is not None
                    and injector.config.chunk_abort_rate > 0.0
                )
                abort = None
                if drew:
                    chunk = injector.chunk_abort_index(len(sizes))
                    if chunk is not None:
                        abort = (chunk, injector.abort_fraction())
                end = timings.fold_stream(
                    sizes, t, link.transfer_time, None, abort
                )
                link.reserve(owner, end)
                if drew:
                    injector.reserve(owner, end, sim)
                yield WaitUntil(end)
                # Chunk i+1's prefetch starts once chunk i has drawn no
                # abort; the link rebuilds their intervals when read.
                ran = len(sizes) - 1 if abort is None else abort[0]
                link.record_fold(
                    functools.partial(timings.fold_stream, sizes, t),
                    sizes[1 : ran + 1],
                    f"{owner}:bs",
                )
                if abort is not None:
                    self.count_write_abort()
                    raise WriteAbort(
                        f"ICAP write abort on chunk {abort[0]} of "
                        f"{bitstream.name!r}"
                    )
            else:
                yield from self._chunk_stream(bitstream, sizes, owner)
            self.configurations += 1
            self.bytes_configured += nbytes
            obsm.counter("repro_icap_configurations_total").inc()
            obsm.counter("repro_icap_bytes_total").inc(nbytes)
        finally:
            # Busy time covers failed attempts too: the mutex was held
            # either way, which is what occupancy reports care about.
            obsm.counter("repro_icap_busy_seconds_total").inc(
                sim.now - held_at
            )
            self.icap_mutex.release(owner)
        return sim.now

    def count_write_abort(self) -> None:
        """Count one ICAP write abort: the attribute and the metric."""
        self.write_aborts += 1
        obsm.counter("repro_icap_write_aborts_total").inc()

    def _link_clean(self) -> bool:
        """Can no link transfer be corrupted?  A zero ``transfer_ber``
        never draws."""
        injector = self.in_link.injector
        return injector is None or injector.config.transfer_ber == 0.0

    def _can_fold(self) -> bool:
        """May the rest of the stream skip its per-chunk events?

        Only when the link is free (no other owner won it during the
        fill) and cannot corrupt a prefetch, so the only draws left in
        the window are the chunk aborts, whose order the fold reproduces.
        """
        return not self.in_link.busy and self._link_clean()

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
