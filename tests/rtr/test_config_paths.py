"""Configuration paths no other golden covers, pinned byte for byte.

Each case drives one way a configuration attempt is fetched, timed and
fault-drawn: cluster bitstream-server fetches under corruption with port
and chunk aborts (fallback, degrade and redistribution), the wire-only
(``estimated``) path's span aborts, the per-chunk ICAP stream under link
contention, the single-PRR serial path and both halves of
``compare_multitask`` (the FRTR executor and the service run).  Its
outcome is written as canonical JSON: totals and every time as
``float.hex()``, call records, timeline spans, notes, node and port
counters, and each fault injector's stats and stream state.  The test
compares those bytes with ``tests/golden/config_paths/<case>.json`` and
asserts the counters that prove the case's path fired.

To re-record the goldens (only for a change meant to move these bytes)::

    PYTHONPATH=src python tests/rtr/test_config_paths.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

from repro.faults import FallbackPolicy, FaultConfig, FaultInjector
from repro.faults import RecoveryPolicy
from repro.hardware import (
    PUBLISHED_TABLE2,
    IcapController,
    single_prr_floorplan,
    uniform_prr_floorplan,
)
from repro.rtr import cluster, runner
from repro.rtr.cluster import run_cluster
from repro.rtr.frtr import FrtrExecutor
from repro.rtr.multitask import compare_multitask
from repro.rtr.prtr import PrtrExecutor
from repro.rtr.runner import make_node
from repro.workloads import CallTrace, HardwareTask

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "config_paths"
EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
DUAL_BYTES = PUBLISHED_TABLE2["dual_prr"].bitstream_bytes


# -- canonical documents ------------------------------------------------------


def _hex(value: float) -> str:
    return float(value).hex()


def _field(value: Any) -> str:
    return _hex(value) if isinstance(value, float) else str(value)


def _run_doc(result: Any) -> dict[str, Any]:
    return {
        "mode": result.mode,
        "total": _hex(result.total_time),
        "startup": _hex(result.startup_time),
        "interrupted": result.interrupted,
        "records": [
            "|".join(
                _field(getattr(r, f.name)) for f in dataclasses.fields(r)
            )
            for r in result.records
        ],
        "spans": [_span(s) for s in result.timeline],
        "notes": {k: _hex(v) for k, v in sorted(result.notes.items())},
    }


def _span(span: Any) -> str:
    return "|".join(
        [span.phase, _hex(span.start), _hex(span.end), span.lane,
         span.task, span.note]
    )


def _channel_doc(channel: Any) -> dict[str, Any]:
    """Bytes, transfers and interval times (owners are labels only)."""
    times = "\n".join(
        f"{_hex(iv.start)} {_hex(iv.end)}" for iv in channel.intervals
    )
    return {
        "bytes_moved": _hex(channel.bytes_moved),
        "transfer_count": channel.transfer_count,
        "intervals": len(channel.intervals),
        "interval_times_sha256": hashlib.sha256(times.encode()).hexdigest(),
    }


def _injector_doc(injector: FaultInjector | None) -> dict[str, Any] | None:
    if injector is None:
        return None
    return {
        "stats": injector.stats.as_dict(),
        "stream": str(injector.rng.bit_generator.state["state"]),
    }


def _node_doc(node: Any) -> dict[str, Any]:
    icap = node.icap
    return {
        "icap": {
            name: getattr(icap, name)
            for name in (
                "configurations", "bytes_configured", "chunk_retransmits",
                "write_aborts", "silent_corruptions",
            )
        },
        "ports": {
            port.name: port.write_aborts
            for port in (node.selectmap, node.jtag, node.icap_raw)
        },
        "link": {
            ch.name: _channel_doc(ch)
            for ch in (node.link.inbound, node.link.outbound)
        },
        "faults": _injector_doc(node.fault_injector),
    }


def _dump(doc: dict[str, Any]) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@contextlib.contextmanager
def _built(module: Any, name: str) -> Iterator[list[Any]]:
    """Collect every object ``module.<name>(...)`` builds meanwhile."""
    real = getattr(module, name)
    made: list[Any] = []

    def build(*args: Any, **kwargs: Any) -> Any:
        made.append(real(*args, **kwargs))
        return made[-1]

    setattr(module, name, build)
    try:
        yield made
    finally:
        setattr(module, name, real)


# -- the cases ----------------------------------------------------------------


def _trace(n_calls: int, names: str = "abc", **task: Any) -> CallTrace:
    lib = {n: HardwareTask(n, **{"time": 0.05, **task}) for n in names}
    return CallTrace(
        [lib[names[i % len(names)]] for i in range(n_calls)], name="paths"
    )


#: every fault process a cluster blade and its server draw from
CLUSTER_FAULTS = FaultConfig(
    transfer_ber=1e-7, chunk_abort_rate=0.02, port_abort_rate=0.3, seed=0
)


def _cluster_case(
    mode: str,
    recovery: Any,
    *,
    blades: int = 3,
    faults: FaultConfig | None = CLUSTER_FAULTS,
    lockstep: bool = False,
    estimated: bool = False,
) -> Callable[[], tuple]:
    """Identical-trace blades sharing one bitstream server.

    ``lockstep`` gives the server unlimited bandwidth: fetches take no
    time but still queue on it, so the blades run in lockstep until a
    fault sets one apart.  Their stage joins then fall on the same
    instants, which pins the order of same-time events across blades.
    """
    bandwidth = float("inf") if lockstep else cluster.DEFAULT_SERVER_BANDWIDTH

    def case() -> tuple[dict[str, Any], dict[str, Any]]:
        traces = [_trace(8) for _ in range(blades)]
        with _built(cluster, "XD1Node") as nodes, _built(
            cluster, "FaultInjector"
        ) as injectors:
            result = run_cluster(
                traces, mode, fault_config=faults, recovery=recovery,
                force_miss=True, estimated=estimated,
                server_bandwidth=bandwidth,
            )
        server = injectors[0] if injectors else None
        doc = {
            "makespan": _hex(result.makespan),
            "server_bytes": _hex(result.server_bytes),
            "server_busy": _hex(result.server_busy_time),
            "server_faults": _injector_doc(server),
            "notes": {k: _hex(v) for k, v in sorted(result.notes.items())},
            "degraded": result.degraded,
            "interrupted": result.interrupted,
            "blades": [_run_doc(b) for b in result.blades],
            "redistributed": [_run_doc(w) for w in result.redistributed],
            "nodes": [_node_doc(n) for n in nodes],
        }
        runs = result.blades + result.redistributed
        #: distinct blade end times of each stage
        per_blade = ([r.end for r in b.records] for b in result.blades)
        ends = [len(set(stage)) for stage in zip(*per_blade)]
        if server is None:
            return doc, {"every stage end tied": set(ends) == {1}}
        proofs = {
            "server fetch corrupted": server.stats.transfers_corrupted,
            "port aborts": sum(n.selectmap.write_aborts for n in nodes),
            "retries": sum(b.n_retries for b in runs),
        }
        if lockstep:
            proofs["a tie in every stage"] = max(ends) < blades
        if recovery.exhausted == "degrade":
            proofs["degraded blades"] = len(result.degraded)
            proofs["redistributed runs"] = len(result.redistributed)
        elif mode == "prtr":
            proofs["fallbacks"] = sum(b.n_fallbacks for b in runs)
            proofs["icap write aborts"] = sum(
                n.icap.write_aborts for n in nodes
            )
        return doc, proofs

    return case


def _tied_case(
    faults: FaultConfig | None = None, recovery: Any = None, **kwargs: Any
) -> Callable[[], tuple]:
    """Four lockstep PRTR blades (see :func:`_cluster_case`)."""
    return _cluster_case(
        "prtr", recovery, blades=4, faults=faults, lockstep=True, **kwargs
    )


def _degrade() -> RecoveryPolicy:
    return RecoveryPolicy(3, backoff=1e-3, cap=0.1, exhausted="degrade")


def _estimated_case(mode: str) -> Callable[[], tuple]:
    def case() -> tuple[dict[str, Any], dict[str, Any]]:
        node = make_node(fault_injector=FaultInjector(FaultConfig(
            chunk_abort_rate=0.03, port_abort_rate=0.3, seed=2
        )))
        if mode == "frtr":
            executor: Any = FrtrExecutor(
                node, estimated=True, recovery=FallbackPolicy()
            )
        else:
            executor = PrtrExecutor(
                node, estimated=True, force_miss=True,
                recovery=FallbackPolicy(),
            )
        result = executor.run(_trace(30))
        proofs = {"port aborts": node.selectmap.write_aborts}
        if mode == "prtr":
            proofs["span aborts"] = node.icap.write_aborts
            proofs["fallbacks"] = result.n_fallbacks
        return {"run": _run_doc(result), "node": _node_doc(node)}, proofs

    return case


def _detailed_io_case() -> tuple[dict[str, Any], dict[str, Any]]:
    node = make_node(fault_injector=FaultInjector(
        FaultConfig(transfer_ber=1e-7, chunk_abort_rate=0.01, seed=3)
    ))
    trace = _trace(
        12, time=0.2, data_in_bytes=0.1 * 1400e6, compute_time=0.1
    )
    with _built(IcapController, "_chunk_stream") as streams:
        result = PrtrExecutor(
            node, detailed_io=True, force_miss=True,
            bitstream_bytes=DUAL_BYTES,
            recovery=RecoveryPolicy(8, backoff=1e-3, cap=0.1),
        ).run(trace)
    proofs = {
        "per-chunk streams": len(streams),
        "chunk retransmits": node.icap.chunk_retransmits,
        "icap write aborts": node.icap.write_aborts,
    }
    return {"run": _run_doc(result), "node": _node_doc(node)}, proofs


def _single_prr_case() -> tuple[dict[str, Any], dict[str, Any]]:
    node = make_node(
        single_prr_floorplan(),
        fault_injector=FaultInjector(
            FaultConfig(chunk_abort_rate=0.02, seed=1)
        ),
    )
    result = PrtrExecutor(node, recovery=FallbackPolicy()).run(_trace(16))
    notes = [s.note for s in result.timeline]
    proofs = {
        "serial partials": notes.count("partial-serial"),
        "fallbacks": notes.count("fallback-full"),
    }
    return {"run": _run_doc(result), "node": _node_doc(node)}, proofs


def _example_apps() -> list[Any]:
    path = EXAMPLES / "multitasking.py"
    spec = importlib.util.spec_from_file_location("_multitasking", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_apps()


def _multitask_case(estimated: bool) -> Callable[[], tuple]:
    def case() -> tuple[dict[str, Any], dict[str, Any]]:
        with _built(runner, "make_node") as nodes:
            results = compare_multitask(
                _example_apps(),
                floorplan=uniform_prr_floorplan(4, 6),
                bitstream_bytes=DUAL_BYTES,
                control_time=1e-5,
                estimated=estimated,
            )
        doc = {
            r.mode: {
                "makespan": _hex(r.makespan),
                "apps": [
                    [a.name, _hex(a.arrival_time), _hex(a.completion_time),
                     a.n_calls, a.n_configs]
                    for a in r.apps
                ],
                "spans": [_span(s) for s in r.timeline],
                "notes": {k: _hex(v) for k, v in sorted(r.notes.items())},
                "node": _node_doc(node),
            }
            for r, node in zip(results, nodes)
        }
        icap = nodes[1].icap.configurations
        proofs = {
            "partial configs": results[1].total_configs,
            "ICAP path taken iff not estimated": (icap > 0) != estimated,
        }
        return doc, proofs

    return case


CASES: dict[str, Callable[[], tuple[dict[str, Any], dict[str, Any]]]] = {
    "cluster-frtr-fallback": _cluster_case("frtr", FallbackPolicy()),
    "cluster-prtr-fallback": _cluster_case("prtr", FallbackPolicy()),
    "cluster-frtr-degrade": _cluster_case("frtr", _degrade()),
    "cluster-prtr-degrade": _cluster_case("prtr", _degrade()),
    "cluster-prtr-tied-measured": _tied_case(),
    "cluster-prtr-tied-estimated": _tied_case(estimated=True),
    "cluster-prtr-tied-faulty": _tied_case(
        faults=CLUSTER_FAULTS.reseeded(3), recovery=FallbackPolicy()
    ),
    "estimated-frtr": _estimated_case("frtr"),
    "estimated-prtr": _estimated_case("prtr"),
    "detailed-io-prtr": _detailed_io_case,
    "single-prr-serial": _single_prr_case,
    "multitask-measured": _multitask_case(False),
    "multitask-estimated": _multitask_case(True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_config_path_is_pinned(case: str) -> None:
    doc, proofs = CASES[case]()
    assert all(proofs.values()), proofs
    golden = (GOLDEN / f"{case}.json").read_text(encoding="utf-8")
    assert _dump(doc) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, run in sorted(CASES.items()):
        doc, proofs = run()
        (GOLDEN / f"{name}.json").write_text(_dump(doc), encoding="utf-8")
        print(name, proofs)
