"""Layer spans for the traced round, and the wall-time ledger built on them.

The traced round records a span around each public call into a layer:
name, start, end, parent span and op index.  :func:`install` replaces
each callable in :data:`TRACED` both where it is defined (module or class)
and at every ``repro.*`` module attribute bound to the same object, so
calls made through re-exports and ``from``-imports are seen too.  Spans
stay in memory and the round writes them out when it ends.

:func:`install_profiler` is the second traced sub-round: it wraps only
``Simulator.run``, installing :class:`repro.obs.profile.EventProfiler`
on every simulator, and folds DES wall time into process families.

The ledger half (:func:`self_times`, :func:`ledger`,
:func:`layer_metrics`) is plain arithmetic on the recorded spans and runs
in the harness process, which never imports :mod:`repro`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable

#: span name of the root span the round opens around every op
OP = "op"

#: ``(module, attribute path, span name)`` for every traced callable
TRACED: tuple[tuple[str, str, str], ...] = (
    ("repro.sim.engine", "Simulator.run", "sim.run"),
    ("repro.rtr.frtr", "FrtrExecutor.run", "rtr.exec"),
    ("repro.rtr.prtr", "PrtrExecutor.run", "rtr.exec"),
    ("repro.rtr.runner", "compare", "rtr.compare"),
    ("repro.rtr.runner", "make_node", "hardware.make_node"),
    ("repro.analysis.reliability", "effective_speedup_under_faults",
     "faults.cell"),
    ("repro.analysis.reliability", "trace_with_hit_ratio",
     "workloads.trace_build"),
    ("repro.power.ledger", "EnergyLedger.from_components", "power.ledger"),
    ("repro.power.ledger", "EnergyLedger.from_notes", "power.ledger"),
    ("repro.power.pareto", "measure_power_point", "power.cell"),
    ("repro.power.pareto", "crash_safe_power_sweep", "power.sweep"),
    ("repro.runtime.journal", "RunJournal.record", "journal.append"),
    ("repro.runtime.journal", "RunJournal.create", "journal.create"),
    ("repro.runtime.journal", "RunJournal.seal", "journal.seal"),
    ("repro.runtime.journal", "RunJournal.load", "journal.load"),
    ("repro.runtime.journal", "atomic_write_text", "journal.atomic_write"),
    ("repro.runtime.crashsafe", "run_checkpointed", "crashsafe.run"),
    ("repro.service.scheduler", "ServiceExecutor.__init__", "service.setup"),
    ("repro.service.scheduler", "ServiceExecutor.run", "service.run"),
    ("repro.service.slo", "slo_report", "service.report"),
    ("repro.service.slo", "report_json", "service.report"),
)

#: modules whose every public ``<prefix>*`` function is traced as one span
TRACED_FAMILIES: tuple[tuple[str, str, str], ...] = (
    ("repro.model.hybrid", "replay_", "hybrid.replay"),
    ("repro.runtime.invariants", "audit_", "invariants.audit"),
)

#: spans whose calls are single grid cells of a hybrid-capable sweep
HYBRID_CELLS = ("faults.cell", "power.cell")

_ICAP_COUNTERS = (
    ("hardware.icap_configs", "configurations"),
    ("hardware.icap_bytes", "bytes_configured"),
    ("hardware.chunk_retransmits", "chunk_retransmits"),
    ("hardware.write_aborts", "write_aborts"),
)


class Tracer:
    """In-memory span recorder plus the counters read at span boundaries.

    A span is ``[name, start, end, parent index, op index]``; ``parent``
    is ``-1`` for a root.  Single-threaded by construction: the round
    runs one op at a time in one thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.counters: Counter[str] = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        probe: Callable[[tuple], Any] | None = None,
        count: Callable[[Counter, tuple, Any, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recording a span; ``count`` reads counters afterwards."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            state = probe(args) if probe is not None else None
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, self.op]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if count is not None:
                count(self.counters, args, result, state)
            return result

        return traced

    def run_op(self, index: int, fn: Callable[[], Any]) -> Any:
        """Run one op under a root :data:`OP` span tagged ``index``."""
        self.op = index
        return self.wrap(fn, OP)()


# -- counters read at span boundaries ---------------------------------------


def _icap_state(node: Any) -> tuple[int, ...]:
    return tuple(getattr(node.icap, attr) for _, attr in _ICAP_COUNTERS)


def _count_icap(counters: Counter, node: Any, before: tuple) -> None:
    for (key, _), old, new in zip(_ICAP_COUNTERS, before, _icap_state(node)):
        counters[key] += new - old


def _count_exec(counters: Counter, args: tuple, result: Any, before: Any):
    counters["rtr.calls"] += result.n_calls
    counters["rtr.configs"] += result.n_configs
    counters["faults.retries"] += result.n_retries
    counters["faults.fallbacks"] += result.n_fallbacks
    if result.mode == "prtr":
        counters["caching.lookups"] += result.n_calls
        counters["caching.hits"] += sum(1 for r in result.records if r.hit)
    _count_icap(counters, args[0].node, before)


def _count_service(counters: Counter, args: tuple, result: Any, before: Any):
    counters["service.arrived"] += result.total_arrived
    counters["service.completed"] += result.total_completed
    counters["service.shed"] += result.total_shed
    counters["caching.lookups"] += result.cache_hits + result.cache_misses
    counters["caching.hits"] += result.cache_hits
    _count_icap(counters, args[0].node, before)


def _count_sim(counters: Counter, args: tuple, result: Any, before: int):
    counters["sim.events"] += args[0].events_processed - before


def _journal_state(args: tuple) -> tuple[int, int]:
    return args[0].fsyncs, args[0].bytes_written


def _count_journal(counters: Counter, args: tuple, result: Any, before):
    journal = args[0] if before is not None else result
    old = before or (0, 0)
    counters["journal.fsyncs"] += journal.fsyncs - old[0]
    counters["journal.bytes"] += journal.bytes_written - old[1]


def _node_state(args: tuple) -> tuple[int, ...]:
    return _icap_state(args[0].node)


_HOOKS: dict[str, tuple[Callable | None, Callable]] = {
    "Simulator.run": (lambda args: args[0].events_processed, _count_sim),
    "FrtrExecutor.run": (_node_state, _count_exec),
    "PrtrExecutor.run": (_node_state, _count_exec),
    "ServiceExecutor.run": (_node_state, _count_service),
    "RunJournal.record": (_journal_state, _count_journal),
    "RunJournal.seal": (_journal_state, _count_journal),
    "RunJournal.create": (None, _count_journal),
}


# -- installing the wrappers -------------------------------------------------


def _targets() -> Iterable[tuple[str, str, str]]:
    yield from TRACED
    for module_name, prefix, span in TRACED_FAMILIES:
        module = importlib.import_module(module_name)
        for attr in module.__all__:
            if attr.startswith(prefix):
                yield module_name, attr, span


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro.*`` module attribute bound to ``original`` at
    ``wrapped`` (re-exports and ``from``-imports)."""
    for name, module in list(sys.modules.items()):
        if module is None or name.split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced callable so calls record spans on ``tracer``."""
    for module_name, path, span in _targets():
        owner: Any = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        probe, count = _HOOKS.get(path, (None, None))
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            traced = tracer.wrap(raw.__func__, span, probe, count)
            setattr(owner, attr, classmethod(traced))
            continue
        traced = tracer.wrap(raw, span, probe, count)
        setattr(owner, attr, traced)
        if not classes:
            _rebind(raw, traced)


# -- the EventProfiler sub-round ---------------------------------------------

#: process families of the DES, by the event type's leading characters
DES_FAMILIES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("icap", ("icap", "cfg")),
    ("prtr", ("prtr", "task")),
    ("frtr", ("frtr",)),
    ("service", ("req:", "src:", "startup", "degrade", "chaos")),
)


def des_family(event_type: str) -> str:
    """The process family an EventProfiler event type belongs to."""
    for family, prefixes in DES_FAMILIES:
        if event_type.startswith(prefixes):
            return family
    return "other"


def install_profiler(seconds: dict[str, float]) -> None:
    """Profile every ``Simulator.run``; fold wall time into ``seconds``."""
    from repro.obs.profile import profiled
    from repro.sim.engine import Simulator

    original = Simulator.run

    @functools.wraps(original)
    def run(sim: Any, *args: Any, **kwargs: Any) -> Any:
        with profiled(sim) as profiler:
            try:
                return original(sim, *args, **kwargs)
            finally:
                for event_type, (_n, wall) in profiler.stats.items():
                    family = des_family(event_type)
                    seconds[family] = seconds.get(family, 0.0) + wall

    Simulator.run = run


# -- the ledger (harness side) ----------------------------------------------


def _children(spans: list[list[Any]]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        kids[span[3]].append(index)
    return kids


def self_times(spans: list[list[Any]]) -> list[float]:
    """Each span's duration minus the part its children's intervals cover."""
    kids = _children(spans)
    out = []
    for index, (_name, start, end, _parent, _op) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(kids.get(index, ()), key=lambda c: spans[c][1]):
            c_start = max(spans[child][1], reach)
            c_end = min(spans[child][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def nesting_errors(spans: list[list[Any]]) -> int:
    """Spans outside their parent, overlapping a sibling, or in another op."""
    errors = 0
    for siblings in _children(spans).values():
        ordered = sorted(siblings, key=lambda c: spans[c][1])
        for prev, cur in zip(ordered, ordered[1:]):
            errors += spans[cur][1] < spans[prev][2]
    for name, start, end, parent, op in spans:
        if parent == -1:
            errors += name != OP
            continue
        _, p_start, p_end, _, p_op = spans[parent]
        errors += start < p_start or end > p_end or op != p_op or end < start
    return errors


def ledger(spans: list[list[Any]], op_walls: list[float]) -> dict[str, Any]:
    """Check that the layer self times add up to the measured op wall.

    ``op_walls`` are timed by the round loop outside the tracer.  The
    self times of all spans, op roots included, must sum to their total
    within 1%; spans must nest; and the layer spans (everything but the
    op roots, whose self time is the benchmark's own glue) must cover at
    least 90% of it.
    """
    selfs = self_times(spans)
    wall = sum(op_walls)
    total = sum(selfs)
    layers = sum(s for s, span in zip(selfs, spans) if span[0] != OP)
    result = {
        "op_wall_s": wall,
        "self_sum_s": total,
        "balance_error": abs(total - wall) / wall,
        "coverage": layers / wall,
        "nesting_errors": nesting_errors(spans),
    }
    result["ok"] = (
        result["nesting_errors"] == 0
        and result["balance_error"] <= 0.01
        and result["coverage"] >= 0.90
    )
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_names() -> list[str]:
    """Every layer span name, in :data:`TRACED` order."""
    names = [span for _, _, span in TRACED + TRACED_FAMILIES]
    return list(dict.fromkeys(names))


def layer_metrics(
    spans: list[list[Any]],
    counters: dict[str, int],
    op_walls: list[float],
    des_seconds: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics of one traced round (all but the tracing
    overhead, which needs the untraced rounds).

    ``<span>_share`` is the summed self time of that span name over the
    round's op wall: the shares and the uncovered glue add up to 1, and
    ``share x trace.op_wall_s`` gives seconds.  Entry counts
    (``sim.runs``, ``journal.appends``...) count outermost calls only, so
    an audit that calls another audit is one audit.
    """
    selfs = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    entries: Counter[str] = Counter()
    for span, s in zip(spans, selfs):
        self_s[span[0]] += s
        parent = span[3]
        if parent == -1 or spans[parent][0] != span[0]:
            entries[span[0]] += 1
    # A hybrid cell ran the DES when a sim.run span sits beneath it.
    ran_des: set[int] = set()
    for span in spans:
        if span[0] == "sim.run":
            parent = span[3]
            while parent != -1 and parent not in ran_des:
                ran_des.add(parent)
                parent = spans[parent][3]
    cells = [i for i, s in enumerate(spans) if s[0] in HYBRID_CELLS]
    cells_des = sum(1 for i in cells if i in ran_des)
    c = Counter(counters)
    wall = sum(op_walls)
    des_total = sum(des_seconds.values())
    metrics = {
        f"{name}_share": _ratio(self_s[name], wall) for name in span_names()
    }
    metrics.update({
        "sim.runs": entries["sim.run"],
        "sim.events": c["sim.events"],
        "sim.events_per_s": _ratio(c["sim.events"], self_s["sim.run"]),
        "rtr.exec_runs": entries["rtr.exec"],
        "rtr.calls": c["rtr.calls"],
        "rtr.configs": c["rtr.configs"],
        "hardware.nodes": entries["hardware.make_node"],
        "hardware.icap_configs": c["hardware.icap_configs"],
        "hardware.icap_mb": c["hardware.icap_bytes"] / 2**20,
        "hardware.chunk_retransmits": c["hardware.chunk_retransmits"],
        "hardware.write_aborts": c["hardware.write_aborts"],
        "caching.lookups": c["caching.lookups"],
        "caching.hit_ratio": _ratio(c["caching.hits"], c["caching.lookups"]),
        "faults.retries": c["faults.retries"],
        "faults.fallbacks": c["faults.fallbacks"],
        "faults.config_success_ratio": _ratio(
            c["rtr.configs"], c["rtr.configs"] + c["faults.retries"]
        ),
        "hybrid.cells_analytic": len(cells) - cells_des,
        "hybrid.cells_des": cells_des,
        "hybrid.analytic_ratio": _ratio(len(cells) - cells_des, len(cells)),
        "power.ledgers": entries["power.ledger"],
        "invariants.audits": entries["invariants.audit"],
        "journal.appends": entries["journal.append"],
        "journal.fsyncs": c["journal.fsyncs"],
        "journal.bytes": c["journal.bytes"],
        "service.arrived": c["service.arrived"],
        "service.completed": c["service.completed"],
        "service.shed": c["service.shed"],
        "service.completion_ratio": _ratio(
            c["service.completed"], c["service.arrived"]
        ),
        "trace.op_wall_s": wall,
        "trace.coverage": _ratio(sum(selfs) - self_s[OP], wall),
    })
    for family, _ in DES_FAMILIES + (("other", ()),):
        metrics[f"des.{family}_share"] = _ratio(
            des_seconds.get(family, 0.0), des_total
        )
    return metrics
