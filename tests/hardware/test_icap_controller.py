"""Unit tests for the BRAM-buffered ICAP controller (paper Fig. 7)."""

from __future__ import annotations

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
)
from repro.experiments import fig9
from repro.faults import FaultConfig, FaultInjector
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import make_node
from repro.sim import BandwidthChannel, Delay, SimulationError, Simulator


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
            sizes = ctrl._chunk_sizes(nbytes)
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


def never_firing_injector():
    """A positive abort rate forces the per-chunk loop; seed 0 never hits."""
    return FaultInjector(FaultConfig(chunk_abort_rate=1e-12, seed=0))


def run_stream(nbytes, *, injector=None, rate=1600 * MB, contender=None):
    """Two back-to-back configurations: what they leave, and the events.

    ``injector`` arms both the link and the ICAP.  ``contender`` (bytes)
    queues a data transfer during the first fill, so the link is still
    held by another owner when that fill ends.
    """
    sim = Simulator()
    link = BandwidthChannel(sim, "link.in", rate=rate, injector=injector)
    ctrl = IcapController(sim, in_link=link, injector=injector)
    ends = []

    def cfg(tag):
        ends.append((yield from ctrl.configure(partial(nbytes), owner=tag)))

    def data():
        yield Delay(1e-9)
        yield from link.transfer(contender, owner="data-in")

    sim.spawn(cfg("a"))
    sim.spawn(cfg("b"))
    if contender is not None:
        sim.spawn(data())
    sim.run()
    assert ctrl.write_aborts == 0
    assert ctrl.configurations == 2
    state = {
        "ends": ends,
        "now": sim.now,
        "icap": [(i.start, i.end, i.owner) for i in ctrl.icap_mutex.intervals],
        "link": [(i.start, i.end, i.owner) for i in link.intervals],
        "bytes_moved": link.bytes_moved,
        "transfer_count": link.transfer_count,
    }
    return state, sim.events_processed


class TestFoldedStream:
    """The folded fast path against the per-chunk reference, bit for bit."""

    @pytest.mark.parametrize("rate", [1600 * MB, SLOW_LINK])
    @pytest.mark.parametrize("nbytes", STREAM_SIZES)
    def test_fold_matches_per_chunk_reference(self, nbytes, rate):
        folded, folded_events = run_stream(nbytes, rate=rate)
        reference, reference_events = run_stream(
            nbytes, injector=never_firing_injector(), rate=rate
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
            DUAL, injector=never_firing_injector(), contender=64 * 1024
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

    def test_fig9_prtr_run_event_budget(self):
        # A 90-call force_miss dual-PRR run made 9,353 kernel events with
        # one prefetch process per chunk; folded it needs under 1,000.
        panel = fig9.panel("measured")
        node = make_node()
        PrtrExecutor(
            node,
            estimated=panel.estimated,
            control_time=panel.t_control,
            force_miss=True,
            bitstream_bytes=DUAL,
        ).run(fig9._cyclic_trace(0.1 * panel.t_frtr, 90))
        assert node.sim.events_processed <= 1000
