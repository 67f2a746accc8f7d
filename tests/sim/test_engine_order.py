"""Event-order regression for the specialized DES hot path.

The engine keeps ``(time, seq, process, value)`` heap tuples plus a
zero-delay side queue, and its one event loop resumes a process in
place when its ``Delay`` wakes before every queued event
(docs/PERFORMANCE.md section 2). The ordering contract did not change:
events fire in strict ``(time, seq)`` order, where ``seq`` is
assignment order at schedule time. This suite replays seeded random
schedules — mixed zero and nonzero delays, relative ``Delay`` and
absolute ``WaitUntil`` wake-ups, scheduling from inside running
processes — against a naive sorted-list reference kernel and
asserts the exact firing order, so the heap specialization can never
silently reorder ties.  It also runs whole experiments with and
without a per-event hook and asserts identical results, checks that an
event budget tripped inside an in-place chain leaves every pending
wake-up queued, and pins the log a hook keeps of whole runs against
``tests/golden/hook_log/logs.json``.

To re-record that golden (only for a change meant to move it)::

    PYTHONPATH=src python tests/sim/test_engine_order.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import heapq
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.reliability import fault_cell_spec, trace_with_hit_ratio
from repro.chaos import build_scenario
from repro.experiments import fig9
from repro.faults import FallbackPolicy, FaultConfig
from repro.hardware import PUBLISHED_TABLE2
from repro.obs.profile import event_type
from repro.rtr import cluster, runner
from repro.runtime.watchdog import Watchdog, WatchdogExpired
from repro.service import ServiceConfig, default_tenants, run_service
from repro.sim.engine import Delay, Simulator, WaitUntil
from repro.workloads import CallTrace, HardwareTask

HOOK_GOLDEN = (
    Path(__file__).resolve().parents[1] / "golden" / "hook_log" / "logs.json"
)


class ReferenceKernel:
    """The old semantics: one sorted list of ``(time, seq)`` entries."""

    def __init__(self):
        self.now = 0.0
        self._entries: list[tuple[float, int, str]] = []
        self._seq = 0
        self.fired: list[tuple[float, str]] = []

    def schedule(self, delay: float, label: str) -> None:
        self._entries.append((self.now + delay, self._seq, label))
        self._seq += 1

    def run(self) -> None:
        while self._entries:
            self._entries.sort()
            time, _seq, label = self._entries.pop(0)
            self.now = time
            self.fired.append((time, label))


def _random_plan(seed: int, n_roots: int = 12):
    """A seeded tree of follow-up schedules: label -> (delay, children)."""
    rng = np.random.default_rng(seed)
    plan = {}
    counter = [0]

    def make(depth: int):
        children = []
        if depth < 3:
            for _ in range(int(rng.integers(0, 3))):
                counter[0] += 1
                label = f"n{counter[0]}"
                # zero delays with high probability to stress the side
                # queue; duplicate nonzero delays to stress heap ties
                delay = float(rng.choice([0.0, 0.0, 0.5, 0.5, 1.25]))
                plan[label] = (delay, make(depth + 1))
                children.append(label)
        return children

    roots = []
    for _ in range(n_roots):
        counter[0] += 1
        label = f"n{counter[0]}"
        delay = float(rng.choice([0.0, 0.25, 0.25, 2.0]))
        plan[label] = (delay, make(0))
        roots.append(label)
    return roots, plan


def _run_engine(roots, plan):
    sim = Simulator()
    fired: list[tuple[float, str]] = []

    def proc(label):
        delay, children = plan[label]
        # every third node wakes at an absolute time instead: same
        # instant, same (time, seq) ordering contract
        if int(label[1:]) % 3 == 0:
            yield WaitUntil(sim.now + delay)
        else:
            yield Delay(delay)
        fired.append((sim.now, label))
        for child in children:
            sim.spawn(proc(child))

    for label in roots:
        sim.spawn(proc(label))
    sim.run()
    return fired


def _run_reference(roots, plan):
    ref = ReferenceKernel()
    for label in roots:
        delay, _ = plan[label]
        ref.schedule(delay, label)
    fired: list[tuple[float, str]] = []
    while ref._entries:
        ref._entries.sort()
        time, _seq, label = ref._entries.pop(0)
        ref.now = time
        fired.append((time, label))
        for child in plan[label][1]:
            ref.schedule(plan[child][0], child)
    return fired


@pytest.mark.parametrize("seed", range(12))
def test_same_seed_same_event_order(seed):
    roots, plan = _random_plan(seed)
    engine = _run_engine(roots, plan)
    reference = _run_reference(roots, plan)
    assert engine == reference


def test_zero_delay_fifo_among_themselves():
    sim = Simulator()
    fired = []

    def waker(label):
        fired.append((sim.now, label))
        yield Delay(0.0)
        fired.append((sim.now, f"{label}-post"))

    def root():
        yield Delay(1.0)
        for label in ("a", "b", "c"):
            sim.spawn(waker(label))

    sim.spawn(root())
    sim.run()
    assert fired == [
        (1.0, "a"), (1.0, "b"), (1.0, "c"),
        (1.0, "a-post"), (1.0, "b-post"), (1.0, "c-post"),
    ]


def test_heap_tie_beats_later_zero_delay():
    # An event scheduled *earlier* for time T (via the heap) must fire
    # before a zero-delay event scheduled *at* time T (side queue):
    # smaller seq wins on time ties.
    sim = Simulator()
    fired = []

    def early():
        yield Delay(1.0)
        fired.append("early-heap")

    def trigger():
        yield Delay(1.0)
        fired.append("trigger")
        sim.spawn(late_zero())

    def late_zero():
        yield Delay(0.0)
        fired.append("late-zero")

    sim.spawn(trigger())
    sim.spawn(early())
    sim.run()
    assert fired == ["trigger", "early-heap", "late-zero"]


def test_pool_reuse_does_not_leak_state():
    # Heavy heap churn (the kernel once pooled its event records): the
    # clock and counters still advance exactly.
    sim = Simulator()
    hits = []

    def ticker(i):
        yield Delay(0.125 * (i % 7))
        hits.append(sim.now)

    for i in range(5000):
        sim.spawn(ticker(i))
    sim.run()
    assert len(hits) == 5000
    assert sim.events_processed >= 5000
    assert hits == sorted(hits)


class PassThrough:
    """A per-event hook that does nothing."""

    def after_event(self, sim):
        pass


def _lone_run_plan(seed: int):
    """Six one-shot wake-ups around one chain of 40 fine delays.

    The chain is one process (each child is its next ``Delay``), so the
    kernel can resume it in place between the others' events.
    """
    rng = np.random.default_rng(seed)
    plan = {
        f"o{i}": (float(rng.choice([0.5, 1.0, 1.0, 2.5, 4.0])), [])
        for i in range(6)
    }
    for k in range(40):
        delay = float(rng.choice([0.0, 0.0, 0.125, 0.25, 0.5, 1.0]))
        plan[f"r{k}"] = (delay, [f"r{k + 1}"] if k < 39 else [])
    return ["o0", "o1", "o2", "r0", "o3", "o4", "o5"], plan


def _spawn_chains(roots, plan):
    sim = Simulator()
    fired: list[tuple[float, str]] = []

    def chain(label):
        while True:
            delay, children = plan[label]
            yield Delay(delay)
            fired.append((sim.now, label))
            if not children:
                return
            (label,) = children

    procs = [sim.spawn(chain(label)) for label in roots]
    return sim, procs, fired


def _run_chains(roots, plan, hooked):
    sim, _procs, fired = _spawn_chains(roots, plan)
    if hooked:
        sim.watchdog = PassThrough()
    sim.run()
    return fired, sim.events_processed


@pytest.mark.parametrize("seed", range(12))
def test_in_place_resume_keeps_order_and_count(seed, monkeypatch):
    roots, plan = _lone_run_plan(seed)
    pushes = []
    real_push = heapq.heappush

    def push(queue, entry):
        pushes.append(entry)
        real_push(queue, entry)

    monkeypatch.setattr(heapq, "heappush", push)
    hot = _run_chains(roots, plan, hooked=False)
    hot_pushes = len(pushes)
    hooked = _run_chains(roots, plan, hooked=True)
    hooked_pushes = len(pushes) - hot_pushes
    reference = _run_reference(roots, plan)
    # The kernel counts each spawn and each wake-up as one event.
    assert hot == hooked == (reference, len(reference) + len(roots))
    # A kernel without in-place resume pushes one heap entry per
    # positive Delay; both runs resumed the chain in place at least once.
    positive_delays = sum(1 for delay, _ in plan.values() if delay > 0)
    assert hot_pushes == hooked_pushes < positive_delays


@pytest.mark.parametrize("seed", range(12))
def test_event_budget_trips_inside_in_place_chains(seed):
    roots, plan = _lone_run_plan(seed)
    total = len(plan) + len(roots)
    for budget in range(1, total):
        sim, procs, _fired = _spawn_chains(roots, plan)
        sim.watchdog = Watchdog(max_events=budget).start(sim)
        with pytest.raises(WatchdogExpired, match="budget"):
            sim.run()
        assert sim.events_processed == budget
        # A trip leaves every unfinished process its one pending wake-up.
        queued = [entry[2] for entry in sim._queue]
        queued += [proc for proc, _value in sim._zero]
        for proc in procs:
            assert queued.count(proc) == (0 if proc.finished else 1)


# -- whole runs, with and without a hook --------------------------------------


def _result_doc(result):
    def render(obj):
        return "|".join(
            value.hex() if isinstance(value, float) else str(value)
            for value in (
                getattr(obj, f.name) for f in dataclasses.fields(obj)
            )
        )

    return {
        "total": result.total_time.hex(),
        "records": [render(r) for r in result.records],
        "spans": [render(s) for s in result.timeline],
    }


def _fig9_pair():
    panel = fig9.panel("measured")
    comparison = runner.compare(
        fig9._cyclic_trace(0.1 * panel.t_frtr, 90),
        estimated=panel.estimated,
        control_time=panel.t_control,
        force_miss=True,
        bitstream_bytes=PUBLISHED_TABLE2["dual_prr"].bitstream_bytes,
    )
    return [comparison.frtr, comparison.prtr]


def _faulty_cell():
    spec = fault_cell_spec(0.03, 0)
    return list(runner.simulate(spec, trace_with_hit_ratio(0.5, 30, 0.1)))


def _tied_cluster():
    lib = {n: HardwareTask(n, 0.05) for n in "abc"}
    trace = CallTrace([lib["abc"[i % 3]] for i in range(8)], name="tied")
    result = cluster.run_cluster(
        [trace] * 4,
        "prtr",
        force_miss=True,
        server_bandwidth=float("inf"),
        fault_config=FaultConfig(
            transfer_ber=1e-7, chunk_abort_rate=0.02, port_abort_rate=0.3,
            seed=3,
        ),
        recovery=FallbackPolicy(),
    )
    return result.blades + result.redistributed


def _observed(case, monkeypatch, hook=None):
    """Run ``case``, ``hook`` on every simulator; results, counts, streams."""
    sims, injectors = [], []
    real_init = Simulator.__init__

    def init(sim):
        real_init(sim)
        sims.append(sim)
        sim.watchdog = hook

    with monkeypatch.context() as patch:
        patch.setattr(Simulator, "__init__", init)
        for module in (runner, cluster):
            real = module.FaultInjector

            def build(*args, real=real, **kwargs):
                injectors.append(real(*args, **kwargs))
                return injectors[-1]

            patch.setattr(module, "FaultInjector", build)
        results = case()
    return {
        "results": [_result_doc(r) for r in results],
        "events": [sim.events_processed for sim in sims],
        "streams": [inj.rng.bit_generator.state for inj in injectors],
    }


WHOLE_RUNS = {
    "fig9-pair": _fig9_pair,
    "faulty-cell": _faulty_cell,
    "tied-cluster": _tied_cluster,
}


@pytest.mark.parametrize("case", sorted(WHOLE_RUNS))
def test_hot_and_hooked_loops_agree(case, monkeypatch):
    """A per-event hook changes no result, count or fault stream."""
    hot = _observed(WHOLE_RUNS[case], monkeypatch)
    hooked = _observed(WHOLE_RUNS[case], monkeypatch, PassThrough())
    assert hot["events"] and all(hot["events"])
    assert hot == hooked


# -- the hook's view of a run, pinned -----------------------------------------


class HookLog:
    """A per-event hook that logs what it sees of the event just run."""

    def __init__(self):
        self.lines: list[str] = []

    def after_event(self, sim):
        name = getattr(sim.last_process, "name", "")
        self.lines.append(
            f"{sim.events_processed}|{sim.now.hex()}|{event_type(name)}"
        )

    def digest(self):
        text = "".join(line + "\n" for line in self.lines)
        return {
            "length": len(self.lines),
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
        }


def _whole_run_log(case, patch):
    log = HookLog()
    _observed(WHOLE_RUNS[case], patch, log)
    return log.digest()


def _serve_log(config, seed, patch):
    """A short service run, logged through its own watchdog's hook."""
    log = HookLog()
    real = Watchdog.after_event

    def after_event(watchdog, sim):
        log.after_event(sim)
        real(watchdog, sim)

    with patch.context() as inner:
        inner.setattr(Watchdog, "after_event", after_event)
        result = run_service(default_tenants(), config, seed=seed)
    assert result.interrupted is None
    return log.digest()


#: chunk aborts under the ``icap-flap`` scenario: the configuration
#: path's breaker counts real faults, refuses attempts while open and
#: sheds requests with reason ``fault``
_FAULTS_BREAKER = ServiceConfig(
    horizon=5.0,
    prrs=4,
    fault=FaultConfig(chunk_abort_rate=0.1, seed=3),
    chaos=build_scenario("icap-flap", seed=1, horizon=5.0, prrs=4, blades=2),
)

HOOK_LOGS = {
    **{case: functools.partial(_whole_run_log, case) for case in WHOLE_RUNS},
    **{
        f"serve-seed{seed}": functools.partial(
            _serve_log, ServiceConfig(horizon=2.0), seed
        )
        for seed in range(3)
    },
    "serve-faults-breaker": functools.partial(
        _serve_log, _FAULTS_BREAKER, 1
    ),
}


@pytest.mark.parametrize("case", sorted(HOOK_LOGS))
def test_hook_log_is_pinned(case, monkeypatch):
    """The hook sees every event once, with that event's clock and count.

    ``tests/golden/hook_log/logs.json`` was recorded on a kernel that
    resumed no process in place while a hook was installed, except
    ``serve-faults-breaker``, which pins the configuration path's
    circuit breaker under real chunk aborts: at recording it saw 31
    failed attempts, 169 refusals and 64 requests shed for ``fault``.
    """
    golden = json.loads(HOOK_GOLDEN.read_text(encoding="utf-8"))
    assert HOOK_LOGS[case](monkeypatch) == golden[case]


if __name__ == "__main__":
    HOOK_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with pytest.MonkeyPatch.context() as mp:
        logs = {case: run(mp) for case, run in sorted(HOOK_LOGS.items())}
    HOOK_GOLDEN.write_text(
        json.dumps(logs, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(logs, indent=1, sort_keys=True))
