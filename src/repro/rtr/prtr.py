"""The PRTR executor: pipelined partial reconfiguration (Fig. 4).

Execution follows the paper's model: after an initial pre-fetch decision
and one full configuration (the static design plus the first module), the
calls stream through a two-resource pipeline —

* stage *i* runs task *i* on its PRR (serially: transfer of control, the
  task itself, then the pre-fetch decision about call *i+1*);
* concurrently, if call *i+1*'s module is not resident, its partial
  bitstream is pushed through the ICAP controller into another PRR.

The stage ends when both finish: a missed successor costs
``max(T_task + T_decision, T_PRTR)``, a hit successor nothing — exactly
the accounting of Eq. (3).  With a single PRR no overlap is possible and
the executor falls back to serial configure-then-execute.

Hits and misses are decided by PRR residency, tracked by a
:class:`~repro.caching.base.ConfigCache` whose replacement policy is
pluggable.  ``force_miss=True`` reproduces the paper's experimental
configuration (the hypothetical always-missing prefetcher: ``M = 1``).

With ``detailed_io=True`` tasks split into data-in / compute / data-out on
the node's dual-channel link, and partial reconfiguration *shares the
inbound channel* — the Section 4.1 architectural constraint (configuration
can only overlap compute or data-out) emerges from channel serialization
rather than being hard-coded.
"""

from __future__ import annotations

from typing import Any, Generator

from ..caching.base import ConfigCache
from ..caching.policies import LruPolicy
from ..faults.recovery import RecoveryPolicy
from ..hardware.bitstream import Bitstream
from ..obs import metrics as obsm
from ..hardware.node import XD1Node
from ..sim.engine import Delay
from ..sim.trace import Phase, Timeline
from ..sim.resources import BandwidthChannel
from ..workloads.task import CallTrace, FunctionCall
from .events import CallRecord, RunResult
from .frtr import PendingRun, run_audited
from .resilience import ConfigOutcome, resilient

__all__ = ["PrtrExecutor"]


class PrtrExecutor:
    """Pipelined partial-reconfiguration execution on one node.

    Parameters
    ----------
    node:
        Hardware model; its floorplan's PRR count sets the cache slots.
    estimated:
        Wire-only configuration times (Table 2 "estimated") instead of the
        vendor-API + ICAP-controller measured models.
    control_time, decision_time:
        ``T_control`` and ``T_decision`` per call.
    cache:
        Residency tracker; defaults to LRU over the floorplan's PRRs.
    bitstream_bytes:
        Partial bitstream size override (e.g. the published Table 2 value);
        defaults to the floorplan's geometric size for PRR 0.
    force_miss:
        Reconfigure on every call regardless of residency (the paper's
        ``M = 1`` experiment).
    detailed_io:
        Split tasks into data-in/compute/data-out over the link channels.
    bitstream_source:
        Optional shared channel every bitstream (initial full image and
        partials) is fetched over first — the cluster bitstream-server
        model of :mod:`repro.rtr.cluster`.
    recovery:
        Optional :class:`~repro.faults.recovery.RecoveryPolicy` applied
        when a (re)configuration fails: retries/refetches happen inside
        the overlapped configuration branch; a ``fallback_full`` action
        stalls the pipeline after the current stage and reconfigures the
        whole device (wiping every PRR); ``degrade`` abandons the rest of
        the trace.  ``None`` (default) lets faults propagate — fail fast.
    """

    def __init__(
        self,
        node: XD1Node,
        *,
        estimated: bool = False,
        control_time: float | None = None,
        decision_time: float = 0.0,
        cache: ConfigCache | None = None,
        bitstream_bytes: int | None = None,
        force_miss: bool = False,
        detailed_io: bool = False,
        bitstream_source: BandwidthChannel | None = None,
        recovery: RecoveryPolicy | None = None,
    ) -> None:
        if not node.floorplan.n_prrs:
            raise ValueError(
                "PRTR needs at least one PRR; use a single/dual PRR floorplan"
            )
        self.node = node
        self.estimated = estimated
        self.control_time = (
            node.params.control_time if control_time is None else control_time
        )
        self.decision_time = decision_time
        if self.control_time < 0 or self.decision_time < 0:
            raise ValueError("overhead times must be >= 0")
        self.cache = cache or ConfigCache(
            slots=node.floorplan.n_prrs, policy=LruPolicy()
        )
        if self.cache.slots != node.floorplan.n_prrs:
            raise ValueError(
                f"cache has {self.cache.slots} slots but the floorplan has "
                f"{node.floorplan.n_prrs} PRRs"
            )
        self._bitstream_bytes = bitstream_bytes
        self.force_miss = force_miss
        self.detailed_io = detailed_io
        #: optional shared backplane bitstreams are fetched over before
        #: each (re)configuration — the cluster bitstream-server model
        self.bitstream_source = bitstream_source
        self.recovery = recovery

    # -- bitstream/config helpers -------------------------------------------

    def bitstream_for(self, module: str) -> Bitstream:
        """The partial bitstream configured for ``module``."""
        return self.node.prr_bitstream(0, module, self._bitstream_bytes)

    def partial_config_time(self, module: str) -> float:
        """Unloaded partial configuration time for one module."""
        return self.node.partial_config_time(
            self.bitstream_for(module), estimated=self.estimated
        )

    def _task_body(
        self, call: FunctionCall, timeline: Timeline, lane: str
    ) -> Generator[Any, Any, None]:
        """A ``detailed_io`` task's data-in, compute and data-out."""
        sim = self.node.sim
        task = call.task
        t0 = sim.now
        if task.data_in_bytes:
            yield from self.node.link.inbound.transfer(
                task.data_in_bytes, owner=f"{call.name}#{call.index}:in"
            )
            timeline.add(Phase.DATA_IN, t0, sim.now, task=call.name, lane=lane)
        t0 = sim.now
        yield Delay(task.compute_time)
        timeline.add(Phase.COMPUTE, t0, sim.now, task=call.name, lane=lane)
        t0 = sim.now
        if task.data_out_bytes:
            yield from self.node.link.outbound.transfer(
                task.data_out_bytes, owner=f"{call.name}#{call.index}:out"
            )
            timeline.add(
                Phase.DATA_OUT, t0, sim.now, task=call.name, lane=lane
            )

    # -- main run -------------------------------------------------------------

    def launch(self, trace: CallTrace, lane: str = "prr") -> PendingRun:
        """Spawn the execution pipeline; does not advance the clock."""
        node = self.node
        sim = node.sim
        timeline = Timeline()
        records: list[CallRecord] = []
        calls = list(trace)
        n = len(calls)
        #: hit flag per call, decided at lookahead (residency) time
        hit: list[bool] = [False] * n
        config_attr: list[float] = [0.0] * n
        #: per-call recovery accounting (filled when faults are recovered)
        outcomes: dict[int, ConfigOutcome] = {}
        fallback_attr: list[bool] = [False] * n

        # Observability instruments — the shared no-op NULL while
        # observability is disabled, so the hot path stays untouched.
        m_cache = obsm.counter("repro_cache_events_total")
        m_prefetch = obsm.counter("repro_prefetch_outcomes_total")
        m_calls = obsm.counter("repro_calls_total")
        m_configs = obsm.counter("repro_configurations_total")
        m_config_s = obsm.histogram("repro_config_seconds")
        m_stage_s = obsm.histogram("repro_stage_seconds")
        m_recovery_s = obsm.counter("repro_recovery_seconds_total")

        def full_config(owner: str) -> Generator[Any, Any, ConfigOutcome]:
            """A full-device configuration, retried under the policy."""
            return resilient(
                sim,
                lambda fetch: node.configure_full(
                    owner,
                    estimated=self.estimated,
                    source=self.bitstream_source if fetch else None,
                ),
                self.recovery,
            )

        def partial_config(idx: int, note: str) -> Generator[Any, Any, None]:
            """Configure call ``idx``'s module into a PRR (``note`` span)."""
            module = calls[idx].name
            c0 = sim.now
            out = yield from resilient(
                sim,
                lambda fetch: node.configure_partial(
                    self.bitstream_for(module),
                    f"cfg{idx}",
                    estimated=self.estimated,
                    source=self.bitstream_source if fetch else None,
                ),
                self.recovery,
                allow_fallback=True,
            )
            outcomes[idx] = out
            config_attr[idx] = sim.now - c0
            if out.ok:
                timeline.add(
                    Phase.CONFIG, c0, sim.now, task=module, lane="icap",
                    note=note,
                )
                m_configs.inc(kind="partial")
                m_config_s.observe(sim.now - c0, kind="partial")

        def startup() -> Generator[Any, Any, tuple[float, ConfigOutcome]]:
            t_start = sim.now
            if self.decision_time:
                t0 = sim.now
                yield Delay(self.decision_time)
                timeline.add(Phase.SETUP, t0, sim.now, note="initial decision")
            t0 = sim.now
            outcome = yield from full_config(lane)
            if outcome.degrade:
                timeline.add(Phase.CONFIG, t0, sim.now, note="degraded")
                return sim.now - t_start, outcome
            timeline.add(Phase.CONFIG, t0, sim.now, note="initial full")
            m_configs.inc(kind="full")
            m_config_s.observe(sim.now - t0, kind="full")
            # The full bitstream instantiates the first module in PRR 0.
            self.cache.fill(calls[0].name)
            hit[0] = not self.force_miss
            if hit[0]:
                self.cache.stats.hits += 1
            else:
                self.cache.stats.misses += 1
            m_cache.inc(result="hit" if hit[0] else "miss")
            return sim.now - t_start, outcome

        def degrade_run(index: int, outcome: ConfigOutcome) -> None:
            """Record the call that never ran and flag the run degraded.

            The failed record carries the seconds its configuration
            took, which contain its recovery.
            """
            records.append(
                CallRecord(
                    index=calls[index].index,
                    task=calls[index].name,
                    hit=False,
                    start=sim.now,
                    end=sim.now,
                    config_time=config_attr[index],
                    retries=outcome.retries,
                    refetches=outcome.refetches,
                    recovery_time=outcome.recovery_time,
                    failed=True,
                )
            )
            main_result["degraded"] = 1.0
            main_result["degraded_at"] = float(index)

        def main() -> Generator[Any, Any, None]:
            startup_time, startup_outcome = yield from startup()
            main_result["startup_time"] = startup_time
            main_result["startup_config"] = startup_time
            if startup_outcome.retries:
                main_result["startup_retries"] = float(
                    startup_outcome.retries
                )
                main_result["startup_recovery_time"] = (
                    startup_outcome.recovery_time
                )
            if startup_outcome.degrade:
                # The startup notes already hold its retries and
                # recovery, so call 0's failed record carries none.
                degrade_run(0, ConfigOutcome())
                return

            cache = self.cache
            control = self.control_time
            decision = self.decision_time
            force_miss = self.force_miss
            detailed_io = self.detailed_io
            overlap_possible = cache.slots > 1
            add = timeline.add
            for i, call in enumerate(calls):
                stage_start = sim.now
                if control:
                    t0 = sim.now
                    yield Delay(control)
                    add(Phase.CONTROL, t0, sim.now, task=call.name)

                branch_cfg = None
                serial_cfg = False
                if i + 1 < n:
                    nxt = calls[i + 1]
                    resident = cache.contains(nxt.name)
                    is_hit = resident and not force_miss
                    hit[i + 1] = is_hit
                    m_cache.inc(result="hit" if is_hit else "miss")
                    m_prefetch.inc(result="hit" if is_hit else "miss")
                    if is_hit:
                        cache.stats.hits += 1
                        cache.policy.on_access(nxt.name)
                    else:
                        cache.stats.misses += 1
                        if overlap_possible:
                            if not resident:
                                cache.fill(nxt.name, pinned={call.name})
                            branch_cfg = sim.spawn(
                                partial_config(i + 1, "partial"),
                                name=f"cfg{i+1}",
                            )
                        else:
                            # Single PRR: the target region is the one
                            # executing; configure serially after the stage.
                            serial_cfg = True

                # This process runs the task, then the pre-fetch
                # decision, itself.  The configuration branch starts only
                # once this yields, so the task acts first (its delay,
                # or its data-in request on the shared inbound link) and
                # its wake-up wins an exact time tie.  The stage ends at
                # the later of the two branch ends.
                task = call.task
                if detailed_io and (task.data_in_bytes or task.data_out_bytes):
                    yield from self._task_body(call, timeline, lane)
                else:
                    t0 = sim.now
                    yield Delay(task.time)
                    add(Phase.TASK, t0, sim.now, task=call.name, lane=lane)
                if decision:
                    t0 = sim.now
                    yield Delay(decision)
                    add(Phase.SETUP, t0, sim.now, task=call.name)
                if branch_cfg is not None and not branch_cfg.finished:
                    yield branch_cfg.done

                if serial_cfg:
                    yield from partial_config(i + 1, "partial-serial")
                    module = calls[i + 1].name
                    if outcomes[i + 1].ok and not cache.contains(module):
                        cache.fill(module)

                out_i = outcomes.get(i)
                records.append(
                    CallRecord(
                        index=call.index,
                        task=call.name,
                        hit=hit[i],
                        start=stage_start,
                        end=sim.now,
                        config_time=config_attr[i],
                        slot=(
                            cache.slot_of(call.name)
                            if cache.contains(call.name)
                            else -1
                        ),
                        retries=out_i.retries if out_i else 0,
                        refetches=out_i.refetches if out_i else 0,
                        fallback_full=fallback_attr[i],
                        recovery_time=out_i.recovery_time if out_i else 0.0,
                    )
                )
                m_calls.inc(mode="prtr", lane=lane)
                m_stage_s.observe(sim.now - stage_start, mode="prtr")
                if out_i is not None and out_i.recovery_time:
                    m_recovery_s.inc(out_i.recovery_time)

                # Resolve a failed overlapped/serial configuration of the
                # next call *after* the stage barrier: the fallback full
                # reconfiguration holds the whole device in reset, so it
                # cannot overlap execution and stalls the pipeline here.
                out_next = outcomes.get(i + 1)
                if out_next is not None and not out_next.ok:
                    nxt = calls[i + 1]
                    # Undo the speculative residency fill — the partial
                    # write never completed.
                    if cache.contains(nxt.name):
                        cache.evict(nxt.name)
                    if out_next.fallback:
                        fallback_attr[i + 1] = True
                        t0 = sim.now
                        out2 = yield from full_config(f"cfg{i+1}-full")
                        out_next.retries += out2.retries
                        out_next.refetches += out2.refetches
                        out_next.recovery_time += out2.recovery_time
                        config_attr[i + 1] += sim.now - t0
                        if out2.degrade:
                            out_next.degrade = True
                        else:
                            timeline.add(
                                Phase.CONFIG,
                                t0,
                                sim.now,
                                task=nxt.name,
                                lane=lane,
                                note="fallback-full",
                            )
                            m_configs.inc(kind="full")
                            m_config_s.observe(sim.now - t0, kind="full")
                            # The full image wipes every PRR and leaves
                            # the next module instantiated in PRR 0.
                            for resident in cache.residents:
                                cache.evict(resident)
                            cache.fill(nxt.name)
                    if out_next.degrade:
                        degrade_run(i + 1, out_next)
                        return

        main_result: dict[str, float] = {}
        start = sim.now

        def wrapped() -> Generator[Any, Any, None]:
            yield from main()
            main_result["done_at"] = sim.now

        sim.spawn(wrapped(), name=f"prtr:{lane}")

        def build(interrupted: str | None = None) -> RunResult:
            end = main_result.get("done_at")
            if end is None:
                # Cancelled mid-run: the last stage barrier is the
                # honest partial makespan (zero if nothing finished).
                end = records[-1].end if records else start
            result = RunResult(
                mode="prtr",
                trace_name=trace.name,
                total_time=end - start,
                records=records,
                # Freeze: the executor is done writing, and aliased
                # references must not corrupt the finalized result.
                timeline=timeline.freeze(),
                startup_time=main_result.get("startup_time", 0.0),
                interrupted=interrupted is not None,
                interrupt_reason=interrupted or "",
            )
            result.notes["mean_task_time"] = trace.mean_task_time()
            result.notes["startup_config"] = main_result.get(
                "startup_config", 0.0
            )
            result.notes["t_config_full"] = self.node.full_config_time(
                estimated=self.estimated
            )
            for key in (
                "startup_retries",
                "startup_recovery_time",
                "degraded",
                "degraded_at",
            ):
                if key in main_result:
                    result.notes[key] = main_result[key]
            if calls:
                result.notes["t_config_partial"] = self.partial_config_time(
                    calls[0].name
                )
            return result

        return PendingRun(build)

    def run(self, trace: CallTrace) -> RunResult:
        """Execute the trace; the audited result of :func:`run_audited`."""
        return run_audited(self, trace)
