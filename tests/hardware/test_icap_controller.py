"""Unit tests for the BRAM-buffered ICAP controller (paper Fig. 7)."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import re
import weakref

import pytest

from repro.hardware import (
    Bitstream,
    DEFAULT_ICAP_TIMINGS,
    IcapController,
    IcapTimings,
    MB,
    MS,
    PUBLISHED_TABLE2,
    full_bitstream,
    XC2VP50,
    icap_controller,
    single_prr_floorplan,
)
from repro.analysis.reliability import fault_cell_spec, trace_with_hit_ratio
from repro.experiments import fig9
from repro.faults import FaultConfig, FaultInjector, WriteAbort
from repro.rtr.frtr import FrtrExecutor
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import make_node
from repro.sim import (
    BandwidthChannel,
    Delay,
    SimulationError,
    Simulator,
    left_sum,
    resources,
)
from repro.sim.engine import WaitUntil
from repro.sim.resources import ChannelTiming, Interval
from repro.workloads.task import CallTrace, HardwareTask


def make_controller(sim=None):
    sim = sim or Simulator()
    link = BandwidthChannel(sim, "link.in", rate=1600 * MB)
    return IcapController(sim, in_link=link), sim


def partial(nbytes: int) -> Bitstream:
    return Bitstream("p", nbytes, region="prr0", kind="module")


class TestTimings:
    def test_validation(self):
        with pytest.raises(ValueError):
            IcapTimings(icap_bandwidth=0, chunk_bytes=16, chunk_handshake=0)
        with pytest.raises(ValueError):
            IcapTimings(icap_bandwidth=1, chunk_bytes=0, chunk_handshake=0)
        with pytest.raises(ValueError):
            IcapTimings(icap_bandwidth=1, chunk_bytes=16, chunk_handshake=-1)

    def test_n_chunks(self):
        t = DEFAULT_ICAP_TIMINGS
        assert t.n_chunks(1) == 1
        assert t.n_chunks(t.chunk_bytes) == 1
        assert t.n_chunks(t.chunk_bytes + 1) == 2

    def test_calibration_reproduces_single_prr_row(self):
        """The handshake was solved from this row — closes exactly."""
        row = PUBLISHED_TABLE2["single_prr"]
        t = DEFAULT_ICAP_TIMINGS
        first_fill = t.chunk_bytes / (1600 * MB)
        predicted = first_fill + t.drain_time(row.bitstream_bytes)
        assert predicted == pytest.approx(row.measured_time_s, rel=1e-9)

    def test_out_of_sample_predicts_dual_prr_row(self):
        """The dual-PRR row was NOT used in fitting; the chunked model
        still predicts its measured time to within 0.1%."""
        row = PUBLISHED_TABLE2["dual_prr"]
        t = DEFAULT_ICAP_TIMINGS
        first_fill = t.chunk_bytes / (1600 * MB)
        predicted = first_fill + t.drain_time(row.bitstream_bytes)
        assert predicted == pytest.approx(row.measured_time_s, rel=1e-3)

    def test_effective_bandwidth_below_wire_rate(self):
        t = DEFAULT_ICAP_TIMINGS
        eff = t.effective_bandwidth(887_784)
        assert eff < t.icap_bandwidth
        # The paper's implied effective controller rate is ~20.4 MB/s.
        assert 19 * MB < eff < 22 * MB


class TestDesConfigure:
    def test_pure_model_matches_des(self):
        ctrl, sim = make_controller()
        bs = partial(PUBLISHED_TABLE2["dual_prr"].bitstream_bytes)
        expected = ctrl.configure_time(bs)
        ends = []

        def proc():
            end = yield from ctrl.configure(bs, owner="cfg")
            ends.append(end)

        sim.spawn(proc())
        sim.run()
        assert ends[0] == pytest.approx(expected, rel=1e-12)

    def test_small_bitstream_single_chunk(self):
        ctrl, sim = make_controller()
        bs = partial(100)

        def proc():
            yield from ctrl.configure(bs, owner="cfg")

        sim.spawn(proc())
        end = sim.run()
        t = ctrl.timings
        expected = (
            100 / ctrl.in_link.rate + t.chunk_handshake + 100 / t.icap_bandwidth
        )
        assert end == pytest.approx(expected, rel=1e-12)

    def test_full_bitstream_rejected(self):
        ctrl, _ = make_controller()
        with pytest.raises(ValueError, match="partial"):
            list(ctrl.configure(full_bitstream(XC2VP50), owner="x"))

    def test_configurations_serialize_on_icap(self):
        ctrl, sim = make_controller()
        bs = partial(100_000)
        single = ctrl.configure_time(bs)
        ends = []

        def proc(tag):
            end = yield from ctrl.configure(bs, owner=tag)
            ends.append(end)

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        assert ends[1] >= 2 * single * 0.99
        ctrl.icap_mutex.assert_no_overlap()
        assert ctrl.configurations == 2
        assert ctrl.bytes_configured == 200_000

    def test_shares_link_with_data_transfers(self):
        """A long data transfer on the inbound link delays configuration —
        the Section 4.1 architectural constraint."""
        ctrl, sim = make_controller()
        bs = partial(PUBLISHED_TABLE2["dual_prr"].bitstream_bytes)
        data_time = 50 * MS
        ends = {}

        def data():
            yield from ctrl.in_link.transfer(
                data_time * ctrl.in_link.rate, owner="data-in"
            )
            ends["data"] = sim.now

        def cfg():
            end = yield from ctrl.configure(bs, owner="cfg")
            ends["cfg"] = end

        sim.spawn(data())
        sim.spawn(cfg())
        sim.run()
        unloaded = ctrl.configure_time(bs)
        # Config couldn't stream its first chunk until the data was done.
        assert ends["cfg"] >= data_time + unloaded * 0.9

    def test_chunk_sizes_cover_exact_bytes(self):
        ctrl, _ = make_controller()
        for nbytes in (1, 100, 16 * 1024, 16 * 1024 + 1, 404_168):
            sizes = ctrl.timings.chunk_sizes(nbytes)
            assert sum(sizes) == nbytes
            assert all(0 < s <= ctrl.timings.chunk_bytes for s in sizes)


CHUNK = DEFAULT_ICAP_TIMINGS.chunk_bytes
DUAL = PUBLISHED_TABLE2["dual_prr"].bitstream_bytes
#: below one chunk, an exact multiple, a multiple plus a remainder, and
#: the Table 2 single- and dual-PRR bitstreams
STREAM_SIZES = (
    100,
    4 * CHUNK,
    5 * CHUNK + 123,
    PUBLISHED_TABLE2["single_prr"].bitstream_bytes,
    DUAL,
)
#: a link slower than the drain, so the prefetch sets every barrier
SLOW_LINK = 2 * MB


def run_stream(
    nbytes, *, per_chunk=False, injector=None, rate=1600 * MB, contender=None
):
    """Two configurations contending for the ICAP: what they leave, and
    the events.

    Each retries a write abort after a deterministic backoff, four
    attempts in all.  ``per_chunk`` forces the per-chunk reference path.
    ``injector`` arms both the link and the ICAP.  ``contender`` (bytes)
    queues a data transfer during the first fill, so the link is still
    held by another owner when that fill ends.
    """
    sim = Simulator()
    link = BandwidthChannel(sim, "link.in", rate=rate, injector=injector)
    ctrl = IcapController(sim, in_link=link, injector=injector)
    ends = []

    def cfg(tag):
        for attempt in range(4):
            try:
                end = yield from ctrl.configure(partial(nbytes), owner=tag)
            except WriteAbort as exc:
                ends.append((sim.now, str(exc)))
                yield Delay(attempt * 1e-4)
            else:
                ends.append(end)
                return

    def data():
        yield Delay(1e-9)
        yield from link.transfer(contender, owner="data-in")

    sim.spawn(cfg("a"))
    sim.spawn(cfg("b"))
    if contender is not None:
        sim.spawn(data())
    with pytest.MonkeyPatch.context() as mp:
        if per_chunk:
            mp.setattr(IcapController, "_can_fold", lambda self: False)
        sim.run()
    if injector is None:
        assert ctrl.write_aborts == 0
        assert ctrl.configurations == 2
    state = {
        "ends": ends,
        "now": sim.now,
        "icap": [(i.start, i.end, i.owner) for i in ctrl.icap_mutex.intervals],
        "link": [(i.start, i.end, i.owner) for i in link.intervals],
        "bytes_moved": link.bytes_moved,
        "transfer_count": link.transfer_count,
        "write_aborts": ctrl.write_aborts,
        "chunk_retransmits": ctrl.chunk_retransmits,
        "silent_corruptions": ctrl.silent_corruptions,
        "configurations": ctrl.configurations,
    }
    return state, sim.events_processed


class TestFoldedStream:
    """The folded fast path against the per-chunk reference, bit for bit."""

    @pytest.mark.parametrize("rate", [1600 * MB, SLOW_LINK])
    @pytest.mark.parametrize("nbytes", STREAM_SIZES)
    def test_fold_matches_per_chunk_reference(self, nbytes, rate):
        folded, folded_events = run_stream(nbytes, rate=rate)
        reference, reference_events = run_stream(
            nbytes, per_chunk=True, rate=rate
        )
        assert folded == reference
        assert len(folded["link"]) == 2 * DEFAULT_ICAP_TIMINGS.n_chunks(nbytes)
        if nbytes > CHUNK:
            assert folded_events < reference_events

    def test_slow_link_is_slower_than_the_drain(self):
        t = DEFAULT_ICAP_TIMINGS
        assert CHUNK / SLOW_LINK > t.chunk_handshake + CHUNK / t.icap_bandwidth

    def test_link_held_after_fill_takes_the_per_chunk_path(self):
        # "data-in" wins the link as the first fill releases it, so
        # configuration "a" cannot fold; only "b" does.
        contended, events = run_stream(DUAL, contender=64 * 1024)
        reference, reference_events = run_stream(
            DUAL, per_chunk=True, contender=64 * 1024
        )
        assert contended == reference
        assert "data-in" in [owner for *_, owner in contended["link"]]
        _, unloaded_events = run_stream(DUAL)
        assert unloaded_events < events < reference_events

    def test_transfer_inside_folded_window_raises(self):
        ctrl, sim = make_controller()

        def intruder():
            yield Delay(1 * MS)
            yield from ctrl.in_link.transfer(1024, owner="data-in")

        sim.spawn(ctrl.configure(partial(DUAL), owner="cfg"))
        sim.spawn(intruder())
        with pytest.raises(SimulationError, match="'data-in'.*'cfg'"):
            sim.run()

    def test_rate_zero_injector_folds_without_drawing(self):
        injector = FaultInjector(FaultConfig(seed=3))
        assert run_stream(DUAL, injector=injector) == run_stream(DUAL)
        fresh = FaultInjector(FaultConfig(seed=3))
        assert injector.rng.random() == fresh.rng.random()

    # Exact kernel event counts.  With one prefetch process per chunk
    # the fig9 run made 9,353 events and the faulty run 4,205.  Folded,
    # but with each PRTR stage built from a spawned task and
    # configuration joined by an AllOf, they made 809 and 357, the
    # config-bound run 809 and the single-PRR run 542.  The pipeline
    # process now runs each task itself.

    def test_fig9_prtr_run_event_budget(self):
        node = make_node()
        fig9_prtr_run(node)
        assert node.sim.events_processed == 449

    def test_config_bound_fig9_prtr_run_event_budget(self):
        # The configuration outlasts the task, so every stage also waits
        # on the configuration's done.
        node = make_node()
        fig9_prtr_run(node, x_task=0.001)
        assert node.sim.events_processed == 538

    def test_single_prr_fig9_prtr_run_event_budget(self):
        # One PRR: each stage runs its task, then configures serially.
        node = make_node(single_prr_floorplan())
        single = PUBLISHED_TABLE2["single_prr"].bitstream_bytes
        fig9_prtr_run(node, bitstream_bytes=single)
        assert node.sim.events_processed == 360

    def test_fig9_frtr_run_event_budget(self):
        # No overlapped branch, so nothing to save: as before the change.
        panel = fig9.panel("measured")
        node = make_node()
        FrtrExecutor(
            node, estimated=panel.estimated, control_time=panel.t_control
        ).run(fig9._cyclic_trace(0.1 * panel.t_frtr, 90))
        assert node.sim.events_processed == 271

    def test_faulty_prtr_run_event_budget(self):
        # The PRTR half of a rate-0.03 fault cell.
        spec = fault_cell_spec(0.03, 0)
        node = make_node(
            spec.floorplan, fault_injector=FaultInjector(spec.faults)
        )
        PrtrExecutor(node, recovery=spec.recovery).run(
            trace_with_hit_ratio(0.0, 30, 0.1)
        )
        assert node.icap.write_aborts == 34
        assert node.sim.events_processed == 248


#: per-chunk abort probabilities the faulty fold is checked at
ABORT_RATES = (1e-3, 0.05, 0.5)


class TestFoldedFaultyStream:
    """Under chunk aborts the fold draws as the per-chunk path does."""

    def test_fold_matches_per_chunk_reference(self):
        # 150 cases: every abort rate, stream size, link and seed 0-4.
        aborts = folded_events = reference_events = 0
        for case in itertools.product(
            STREAM_SIZES, ABORT_RATES, (1600 * MB, SLOW_LINK), range(5)
        ):
            nbytes, abort_rate, rate, seed = case
            runs = []
            for per_chunk in (False, True):
                injector = FaultInjector(
                    FaultConfig(chunk_abort_rate=abort_rate, seed=seed)
                )
                state, events = run_stream(
                    nbytes, per_chunk=per_chunk, injector=injector, rate=rate
                )
                state["injected"] = injector.stats.as_dict()
                state["rng"] = injector.rng.bit_generator.state
                runs.append((state, events))
            (folded, n_folded), (reference, n_reference) = runs
            assert folded == reference, case
            assert n_folded <= n_reference, case
            aborts += folded["write_aborts"]
            folded_events += n_folded
            reference_events += n_reference
        assert aborts > 100
        assert folded_events < reference_events / 5

    @staticmethod
    def intrude(after_window):
        """Another process's ``port_aborted()`` draw while configuration
        ``cfg`` folds: inside its window, or once it has ended.  Returns
        the draw's time and the configuration's end."""
        injector = FaultInjector(
            FaultConfig(chunk_abort_rate=1e-12, port_abort_rate=0.5, seed=0)
        )
        sim = Simulator()
        link = BandwidthChannel(sim, "link.in", rate=1600 * MB)
        ctrl = IcapController(sim, in_link=link, injector=injector)
        cfg = sim.spawn(ctrl.configure(partial(DUAL), owner="cfg"))
        drawn = []

        def intruder():
            yield cfg if after_window else Delay(1 * MS)
            injector.port_aborted()
            drawn.append(sim.now)

        sim.spawn(intruder())
        sim.run()
        return drawn, cfg.result

    def test_injector_draw_inside_folded_window_raises(self):
        with pytest.raises(
            SimulationError, match=r"port_aborted\(\).*'cfg'.*held until"
        ):
            self.intrude(after_window=False)

    def test_injector_draw_after_folded_window_is_allowed(self):
        drawn, end = self.intrude(after_window=True)
        assert drawn == [end]


SINGLE = PUBLISHED_TABLE2["single_prr"].bitstream_bytes
#: the calibrated controller and one with a smaller, faster buffer
TIMINGS = (DEFAULT_ICAP_TIMINGS, IcapTimings(50 * MB, 4096, 2e-5))


@pytest.fixture
def left_folds(monkeypatch):
    """The start of every left fold ``fold_stream`` ends a stream with."""
    starts = []

    def spy(values, start):
        starts.append(start)
        return left_sum(values, start)

    monkeypatch.setattr(icap_controller, "left_sum", spy)
    return starts


def loop_end(timings, sizes, t, transfer_time):
    """The barrier loop's end: asking for the prefetches always runs it."""
    return timings.fold_stream(sizes, t, transfer_time, [])


class TestLeftFold:
    """The left fold of the drains against the barrier loop, bit for bit."""

    def test_fold_matches_loop_on_random_draws(self, left_folds):
        rng = random.Random(19)
        folded = 0
        for _ in range(2400):
            timings = rng.choice(TIMINGS)
            chunk = timings.chunk_bytes
            k = rng.randrange(2, 60)
            nbytes = rng.choice(
                (1, chunk, k * chunk, k * chunk + 1, SINGLE, DUAL)
            )
            # 1 MB/s to 10 GB/s: the break-even link is near 20 MB/s.
            rate = 10 ** rng.uniform(6, 10)
            overhead = rng.choice((0.0, rng.uniform(0.0, 1e-3)))
            link = ChannelTiming(rate, overhead).transfer_time
            t = 10 ** rng.uniform(-9, 4)
            sizes = timings.chunk_sizes(nbytes)
            before = len(left_folds)
            end = timings.fold_stream(sizes, t, link)
            assert end.hex() == loop_end(timings, sizes, t, link).hex()
            first = timings.chunk_handshake + sizes[0] / timings.icap_bandwidth
            assert len(left_folds) - before == (first >= link(chunk))
            folded += len(left_folds) - before
        assert 600 < folded < 1800

    @pytest.mark.parametrize("timings", TIMINGS)
    def test_drain_equal_to_link_time_folds(self, timings, left_folds):
        # The link pays the handshake and the ICAP wire time per transfer,
        # so every chunk's prefetch ends exactly with its drain.
        link = ChannelTiming(
            timings.icap_bandwidth, timings.chunk_handshake
        ).transfer_time
        chunk = timings.chunk_bytes
        drain = timings.chunk_handshake + chunk / timings.icap_bandwidth
        assert link(chunk) == drain
        rng = random.Random(7)
        streams = [n for n in STREAM_SIZES if n > timings.chunk_bytes]
        for nbytes in streams:
            sizes = timings.chunk_sizes(nbytes)
            for _ in range(20):
                t = 10 ** rng.uniform(-9, 4)
                end = timings.fold_stream(sizes, t, link)
                assert end.hex() == loop_end(timings, sizes, t, link).hex()
        assert len(left_folds) == 20 * len(streams)

    def test_slow_link_runs_the_loop(self, left_folds):
        timings = DEFAULT_ICAP_TIMINGS
        sizes = timings.chunk_sizes(DUAL)
        for rate in (SLOW_LINK, 1600 * MB):
            link = ChannelTiming(rate).transfer_time
            end = timings.fold_stream(sizes, 0.25, link)
            assert end == loop_end(timings, sizes, 0.25, link)
        # Only the fast link folded.
        assert left_folds == [0.25]


def hexed_ends(state):
    """Each attempt's end time as ``float.hex``."""
    return [
        (end[0] if isinstance(end, tuple) else end).hex()
        for end in state["ends"]
    ]


class TestFaultyLeftFold:
    """A faulty fold on a drain-bound link ends in one left fold too."""

    def test_faulty_fold_runs_no_barrier_loop(self, left_folds):
        t = DEFAULT_ICAP_TIMINGS
        drain = t.chunk_handshake + CHUNK / t.icap_bandwidth
        assert drain >= ChannelTiming(1600 * MB).transfer_time(CHUNK)
        rng = random.Random(23)
        aborts = 0
        for nbytes in (SINGLE, DUAL):
            for _ in range(15):
                config = FaultConfig(
                    chunk_abort_rate=10 ** rng.uniform(-3, 0),
                    seed=rng.randrange(2**31),
                )
                runs = []
                for per_chunk in (False, True):
                    injector = FaultInjector(config)
                    before = len(left_folds)
                    state, _ = run_stream(
                        nbytes, per_chunk=per_chunk, injector=injector
                    )
                    state["rng"] = injector.rng.bit_generator.state
                    runs.append((state, len(left_folds) - before))
                (folded, folds), (reference, reference_folds) = runs
                # Every folded attempt, aborted or not, ended in one
                # left fold; the per-chunk path folds nothing.
                assert folds == len(folded["ends"]), config
                assert reference_folds == 0
                assert folded == reference, config
                assert hexed_ends(folded) == hexed_ends(reference)
                aborts += folded["write_aborts"]
        assert aborts > 20


#: owners of the prefetched chunks 1, 2, ... (chunk 0 is the first fill)
PREFETCH = re.compile(r":bs[1-9]\d*$")


def fig9_prtr_run(node, per_chunk=False, x_task=0.1, bitstream_bytes=DUAL):
    """The 90-call force_miss PRTR run of the event-budget tests."""
    panel = fig9.panel("measured")
    with pytest.MonkeyPatch.context() as mp:
        if per_chunk:
            mp.setattr(IcapController, "_can_fold", lambda self: False)
        return PrtrExecutor(
            node,
            estimated=panel.estimated,
            control_time=panel.t_control,
            force_miss=True,
            bitstream_bytes=bitstream_bytes,
        ).run(fig9._cyclic_trace(x_task * panel.t_frtr, 90))


def link_state(link):
    """What a reader of the link sees: intervals, counters, utilization."""
    return {
        "intervals": [(iv.start, iv.end, iv.owner) for iv in link.intervals],
        "bytes_moved": link.bytes_moved,
        "transfer_count": link.transfer_count,
        "utilization": link.utilization(),
    }


def detailed_io_run(per_chunk, read_at=None):
    """A PRTR run whose data-in transfers share the link with the
    configurations, and the link state a process read at ``read_at``."""
    node = make_node()
    lib = {
        n: HardwareTask(
            n, time=0.2, data_in_bytes=0.1 * 1400e6,
            data_out_bytes=0.0, compute_time=0.1,
        )
        for n in ("m0", "m1", "m2")
    }
    trace = CallTrace([lib[f"m{i % 3}"] for i in range(12)], name="io")
    link = node.link.inbound
    seen = {}

    def reader():
        yield WaitUntil(read_at)
        seen.update(link_state(link))

    if read_at is not None:
        node.sim.spawn(reader(), name="reader")
    with pytest.MonkeyPatch.context() as mp:
        if per_chunk:
            mp.setattr(IcapController, "_can_fold", lambda self: False)
        result = PrtrExecutor(
            node, detailed_io=True, force_miss=True, bitstream_bytes=DUAL
        ).run(trace)
    return result.total_time, link, seen, node.sim.events_processed


class TestDeferredLinkRecord:
    """A folded stream leaves one link record, expanded when read."""

    def test_fig9_run_builds_no_prefetch_interval(self, monkeypatch):
        owners = []

        def counting(start, end, owner):
            owners.append(owner)
            return Interval(start, end, owner)

        monkeypatch.setattr(resources, "Interval", counting)
        node = make_node()
        fig9_prtr_run(node)
        assert [o for o in owners if PREFETCH.search(o)] == []
        folded = link_state(node.link.inbound)
        prefetches = [o for o in owners if PREFETCH.search(o)]
        assert len(prefetches) == 89 * 24
        monkeypatch.undo()
        reference = make_node()
        fig9_prtr_run(reference, per_chunk=True)
        assert folded == link_state(reference.link.inbound)

    def test_detailed_io_reads_mid_run_and_at_the_end(self):
        _, reference, _, _ = detailed_io_run(per_chunk=True)
        data_in = [
            iv for iv in reference.intervals if iv.owner.endswith(":in")
        ]
        # A data-in transfer holds the link, so no folded window is open
        # when it ends: both paths have recorded the same transfers.
        read_at = data_in[len(data_in) // 2].end
        total, link, seen, events = detailed_io_run(False, read_at)
        ref_total, ref_link, ref_seen, ref_events = detailed_io_run(
            True, read_at
        )
        owners = [owner for *_, owner in seen["intervals"]]
        assert any(PREFETCH.search(o) for o in owners)
        assert any(o.endswith(":in") for o in owners)
        assert seen == ref_seen
        final = link_state(link)
        assert final["intervals"][: len(owners)] == seen["intervals"]
        assert final == link_state(ref_link)
        assert total == ref_total
        link.assert_no_overlap()
        assert events < ref_events

    def test_finished_nodes_link_dies_by_refcount(self):
        # The record holds the stream's fold, never the channel: a cycle
        # through the channel's own interval list would outlive the node.
        gc.disable()
        try:
            node = make_node()
            fig9_prtr_run(node)
            link = weakref.ref(node.link.inbound)
            del node
            assert link() is None
        finally:
            gc.enable()


#: ``(count, SHA-256)`` of the holds the fig9 PRTR run leaves on the ICAP
#: mutex and on the link, one ``"<start.hex()> <end.hex()> <owner>"``
#: line each, recorded while every hold built its ``Interval`` at release
ICAP_HOLDS = (
    89, "bdc3f41256ea9e5c633e0657a604f71c92c834b0161e1fca7dcb64eaaa9d7f6f"
)
LINK_HOLDS = (
    2225, "d9638827d45b043d7e6565be48b648d812c3b4bab729809719cf4d4ab8f8bd6c"
)


def hold_digest(intervals):
    text = "\n".join(
        f"{iv.start.hex()} {iv.end.hex()} {iv.owner}" for iv in intervals
    )
    return len(intervals), hashlib.sha256(text.encode()).hexdigest()


class TestDeferredHolds:
    """Mutex holds are recorded as tuples and built on first read."""

    def test_fig9_run_builds_holds_on_first_read(self, monkeypatch):
        built = []

        def counting(start, end, owner):
            built.append(owner)
            return Interval(start, end, owner)

        monkeypatch.setattr(resources, "Interval", counting)
        node = make_node()
        fig9_prtr_run(node)
        assert built == []
        icap, link = node.icap.icap_mutex, node.link.inbound
        assert hold_digest(icap.intervals) == ICAP_HOLDS
        assert hold_digest(link.intervals) == LINK_HOLDS
        assert len(built) == ICAP_HOLDS[0] + LINK_HOLDS[0]
        # A second read, of any kind, builds nothing.
        assert hold_digest(icap.intervals) == ICAP_HOLDS
        assert hold_digest(link.intervals) == LINK_HOLDS
        icap.assert_no_overlap()
        link.assert_no_overlap()
        assert 0.0 < icap.utilization() < 1.0
        assert 0.0 < link.utilization() < 1.0
        assert len(built) == ICAP_HOLDS[0] + LINK_HOLDS[0]
