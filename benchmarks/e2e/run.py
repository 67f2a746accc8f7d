"""The repository's benchmark of record: seeded workloads, fresh rounds.

Usage, from the repository root::

    python benchmarks/e2e/run.py [--workload W ...] [--seed N]
                                 [--seconds S] [--trace [0|1]] [--out DIR]

Tools that read ``BENCHMARK.json`` call the command as ``--workload W
--seed N --seconds S --trace 0|1``, so ``--seconds`` is accepted; the op
counts are sized for the spec's ``run_seconds``, the only value taken.

Each workload runs as ``--rounds`` (default 5) rounds.  A round is a
fresh single-threaded ``python`` child (``round.py``) with its own
scratch directory, deleted afterwards, so no round can read what another
wrote and no in-process cache survives between rounds.  Children run
one at a time, and rounds are interleaved across workloads so a slow
spell on a shared machine touches every workload a little.  The op list
is the same in every round; an op's time is its fastest round, and
percentiles are taken over ops.  The loop is closed: one client, the
next op starting when the previous one returns.

``--trace 1`` is a separate run that reports the per-layer metrics
instead: plain rounds and rounds recording layer spans (checked by the
wall-time ledger in ``spans.py``), two of each, interleaved, then one
round under the EventProfiler.  With ``--out`` the results land in
``DIR/<workload>.json`` (and ``DIR/trace-<workload>.json``), which
``compare.py`` reads.

Every round's per-op output digests must agree, and for seed 0 equal
the committed ``expected/<workload>.sha256``; a mismatch, a raised
exception or a failed model check counts as a failed op.  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` metrics of ``BENCHMARK.json``, or
its ``per_layer`` ones under ``--trace 1``).  Exit status is 0 when the
outputs are correct, 1 when not, 2 on a usage or environment error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".bench_build" / "e2e-rounds"
EXPECTED = HERE / "expected"
ROUNDS = 5
#: the rounds of a ``--trace 1`` run, plain and spans interleaved so the
#: overhead ratio compares like with like on a machine that drifts
TRACE_MODES = ("plain", "spans", "plain", "spans", "profile")
#: ops per round: sized so five rounds and their set-up fill about the
#: spec's ``run_seconds`` on a 2-core Xeon VM, with at least 100 ops, so
#: ten or more lie beyond the reported 90th percentile
OPS_PER_ROUND = {
    "fig9-des": 100,
    "fault-grid": 320,
    "serve-saturated": 100,
    "power-journal": 100,
}
#: wall budget per workload of one invocation; a round still running at
#: the deadline is killed
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """A round could not run at all (not an op failure)."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]).

    The harness process never imports :mod:`repro` (a broken program
    must not take its measuring tool down with it), hence no reuse of
    ``repro.service.slo.percentile``.
    """
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    # Single-threaded children; a fixed hash seed so every round runs
    # the very same program, which is what fastest-of-k assumes.
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_round(
    workload: str, seed: int, n_ops: int, mode: str, deadline: float
) -> dict:
    """One child process; returns its result dict."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=SCRATCH)
    result_path = os.path.join(run_dir, "result.json")
    cmd = [
        sys.executable, str(HERE / "round.py"), workload, str(seed),
        str(n_ops), mode, run_dir, result_path,
    ]
    try:
        try:
            proc = subprocess.run(
                cmd, env=child_env(), stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(
                f"{workload} {mode} round passed the deadline"
            ) from exc
        if proc.returncode != 0:
            raise HarnessError(
                f"{workload} {mode} round exited {proc.returncode}:\n"
                f"{proc.stderr[-2000:]}"
            )
        with open(result_path, encoding="utf-8") as fh:
            return {**json.load(fh), "mode": mode}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def read_expected(directory: Path, workload: str) -> list[str]:
    path = directory / f"{workload}.sha256"
    if not path.exists():
        return []
    return path.read_text(encoding="ascii").split()


def check_digests(rounds: list[dict], expected: list[str]) -> tuple[list, int]:
    """Digest per op as the rounds produced it, and (op, round) pairs
    that miss the reference.

    An op's produced digest is the one most rounds agree on (``None``
    when most rounds raised).  The reference is the committed digest
    where one exists, else the produced one.  A round with no digest
    (the op raised) always misses.
    """
    produced, failed = [], 0
    for i, seen in enumerate(zip(*(r["digests"] for r in rounds))):
        majority = Counter(seen).most_common(1)[0][0]
        ref = expected[i] if i < len(expected) else majority
        produced.append(majority)
        failed += sum(1 for d in seen if d is None or d != ref)
    return produced, failed


def fastest_per_op(rounds: list[dict]) -> list[float]:
    """Each op's fastest time across ``rounds``."""
    return list(map(min, zip(*(r["times"] for r in rounds))))


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """The end-to-end metrics from the untraced rounds."""
    fastest = fastest_per_op(rounds)
    return {
        "sim_calls_per_s": sum(rounds[0]["calls"]) / sum(fastest),
        "op_p50_ms": 1e3 * percentile(fastest, 50),
        "op_p90_ms": 1e3 * percentile(fastest, 90),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }


def per_layer(rounds: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics and the ledger check of a traced run.

    The layer numbers come from the last spans round; the tracing
    overhead compares fastest-of-2 traced against fastest-of-2 plain.
    """
    by_mode = {m: [r for r in rounds if r["mode"] == m] for m in TRACE_MODES}
    traced = by_mode["spans"][-1]
    ledger = spans.ledger(traced["spans"], traced["times"])
    metrics = spans.layer_metrics(
        traced["spans"], traced["counters"], traced["times"],
        by_mode["profile"][-1]["des_seconds"],
    )
    metrics["trace.overhead_ratio"] = (
        sum(fastest_per_op(by_mode["spans"]))
        / sum(fastest_per_op(by_mode["plain"]))
    )
    return metrics, ledger


def summarize(
    workload: str, rounds: list[dict], expected: list[str], trace: bool
) -> dict:
    """Correctness and metrics of one workload's rounds."""
    produced, failed = check_digests(rounds, expected)
    errors = [e for r in rounds for e in r["errors"]]
    attempted = len(produced) * len(rounds)
    summary = {
        "workload": workload,
        "ops": len(produced),
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "digest": hashlib.sha256("\n".join(map(str, produced)).encode())
        .hexdigest(),
        "op_digests": produced,
        "errors": errors[:5],
        "model_error_max": max(
            (r["model_error_max"] for r in rounds
             if r["model_error_max"] is not None),
            default=None,
        ),
    }
    if trace:
        metrics, ledger = per_layer(rounds)
        summary["ledger"] = ledger
        summary["correct"] = failed == 0 and ledger["ok"]
    else:
        metrics = end_to_end(rounds)
        summary["correct"] = failed == 0
    summary["metrics"] = metrics
    return summary


def report(summary: dict, wanted: list[dict]) -> dict:
    """Print one workload's metrics; returns ``{name: {value, unit}}``."""
    print(
        f"{summary['workload']}: {summary['ops']} ops x "
        f"{summary['rounds']} rounds, attempted {summary['attempted']}, "
        f"failed {summary['failed']} "
        f"(failed_frac {summary['failed_frac']:.4g} ratio), "
        f"digest {summary['digest'][:16]}"
    )
    if summary["model_error_max"] is not None:
        print(
            f"  max relative error vs Figure 9 finite-n Eq. (6): "
            f"{summary['model_error_max']:.4g}"
        )
    if "ledger" in summary:
        led = summary["ledger"]
        print(
            f"  ledger: self times {led['self_sum_s']:.4f} s vs op wall "
            f"{led['op_wall_s']:.4f} s (off by {led['balance_error']:.2%}), "
            f"layer coverage {led['coverage']:.2%}, nesting errors "
            f"{led['nesting_errors']} -> {'OK' if led['ok'] else 'FAIL'}"
        )
    for error in summary["errors"]:
        print("  " + error.strip().replace("\n", "\n  "))
    out = {}
    for spec in wanted:
        value = summary["metrics"][spec["name"]]
        print(f"  {spec['name']:<30} {value:>14.6g} {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return out


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", dest="workloads", nargs="+", choices=names,
        default=names,
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="run length; the op counts are sized for the spec's "
        "run_seconds, the only value accepted",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
    )
    parser.add_argument("--out", type=Path, help="write results here")
    parser.add_argument("--rounds", type=int, default=ROUNDS)
    parser.add_argument("--ops", type=int, help="ops per round (override)")
    parser.add_argument(
        "--expected", type=Path, default=EXPECTED,
        help="directory of per-op seed-0 digests",
    )
    parser.add_argument(
        "--write-expected", action="store_true",
        help="record this seed-0 run's digests into --expected",
    )
    args = parser.parse_args(argv)
    if args.seconds != spec["run_seconds"]:
        parser.error(f"--seconds must be {spec['run_seconds']}, the run "
                     "length the op counts are sized for")
    if args.rounds < 1 or (args.ops is not None and args.ops < 1):
        parser.error("--rounds and --ops must be >= 1")
    if args.write_expected and (
        args.seed != 0 or args.trace or args.ops is not None
    ):
        parser.error("--write-expected needs an untraced seed-0 run at "
                     "the default op count")
    return args


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    workloads = args.workloads
    modes = TRACE_MODES if args.trace else ("plain",) * args.rounds
    deadline = time.monotonic() + len(workloads) * DEADLINE_S
    rounds: dict[str, list[dict]] = {w: [] for w in workloads}
    try:
        for mode in modes:
            for w in workloads:
                n_ops = args.ops or OPS_PER_ROUND[w]
                rounds[w].append(
                    run_round(w, args.seed, n_ops, mode, deadline)
                )
    except HarnessError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    totals = {"correct": True, "attempted": 0, "failed": 0}
    printed = {}
    for w in workloads:
        expected = (
            [] if args.seed != 0 or args.write_expected
            else read_expected(args.expected, w)
        )
        summary = summarize(w, rounds[w], expected, bool(args.trace))
        printed[w] = report(summary, wanted)
        totals["correct"] &= summary["correct"]
        totals["attempted"] += summary["attempted"]
        totals["failed"] += summary["failed"]
        if args.write_expected and summary["correct"]:
            args.expected.mkdir(parents=True, exist_ok=True)
            (args.expected / f"{w}.sha256").write_text(
                "\n".join(summary["op_digests"]) + "\n", encoding="ascii"
            )
        if args.out is not None:
            name = f"trace-{w}.json" if args.trace else f"{w}.json"
            payload = {"seed": args.seed, **summary}
            if args.trace:
                payload["spans"] = [
                    r["spans"] for r in rounds[w] if r["mode"] == "spans"
                ][-1]
            write_json(args.out / name, payload)
    if len(workloads) == 1:
        line = {**totals, "metrics": printed[workloads[0]]}
    else:
        line = {**totals, "workloads": printed}
    print(json.dumps(line))
    return 0 if totals["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
