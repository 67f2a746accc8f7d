"""Self-test of the benchmark harness: ``pytest benchmarks/e2e``.

Drives the real command at toy size (3 ops per round) and checks what a
reader of its numbers relies on: every metric of ``BENCHMARK.json`` is
printed with its unit, rounds agree on every output digest (and with the
committed seed-0 digests), the traced run's wall-time ledger holds, a
wrong expected digest and a raising op are reported as failures,
``compare.py`` flags disagreement and failed ops, and a checkout without
the sources fails cleanly.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OPS = 3


def bench(*args: str, script: str = "run.py", root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / script), *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def printed_units(stdout: str) -> dict[str, dict[str, str]]:
    """``{workload: {metric: unit}}`` from the human-readable report."""
    out: dict[str, dict[str, str]] = {}
    current = None
    for line in stdout.splitlines():
        head = line.split(":", 1)[0]
        if head in WORKLOADS:
            current = out.setdefault(head, {})
        elif current is not None and line.startswith("  "):
            parts = line.split()
            if len(parts) == 3:
                current[parts[0]] = parts[2]
    return out


def assert_all_printed(stdout: str, metrics: list[dict]) -> None:
    units = printed_units(stdout)
    assert sorted(units) == sorted(WORKLOADS)
    for workload in WORKLOADS:
        for metric in metrics:
            assert units[workload].get(metric["name"]) == metric["unit"], (
                workload, metric["name"],
            )


@pytest.fixture(scope="module")
def plain(tmp_path_factory):
    out = tmp_path_factory.mktemp("plain")
    proc = bench("--ops", str(OPS), "--rounds", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc, out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    proc = bench("--ops", str(OPS), "--trace", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc, out


def test_every_end_to_end_metric_is_printed_with_its_unit(plain):
    proc, _ = plain
    assert_all_printed(proc.stdout, SPEC["end_to_end"])
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] is True
    assert last["attempted"] == len(WORKLOADS) * OPS * 2
    assert last["failed"] == 0


def test_rounds_agree_on_every_digest_and_match_expected(plain):
    _, out = plain
    for workload in WORKLOADS:
        result = json.loads((out / f"{workload}.json").read_text())
        assert result["rounds"] == 2 and result["failed"] == 0
        committed = (HERE / "expected" / f"{workload}.sha256").read_text()
        assert result["op_digests"] == committed.split()[:OPS]
        for value in result["metrics"].values():
            assert value > 0


def test_trace_ledger_holds_on_every_workload(traced):
    proc, out = traced
    assert_all_printed(proc.stdout, SPEC["per_layer"])
    for workload in WORKLOADS:
        result = json.loads((out / f"trace-{workload}.json").read_text())
        ledger = result["ledger"]
        assert ledger["ok"] and ledger["nesting_errors"] == 0
        assert ledger["balance_error"] <= 0.01
        assert ledger["coverage"] >= 0.90
        assert result["failed"] == 0 and result["spans"]
        assert result["metrics"]["trace.overhead_ratio"] > 0


def test_tampered_expected_digest_counts_as_failed(tmp_path):
    expected = tmp_path / "expected"
    shutil.copytree(HERE / "expected", expected)
    path = expected / "fig9-des.sha256"
    digests = path.read_text().split()
    digests[0] = "0" * 64
    path.write_text("\n".join(digests) + "\n")
    proc = bench(
        "--workload", "fig9-des", "--ops", str(OPS), "--rounds", "1",
        "--expected", str(expected), "--out", str(tmp_path / "out"),
    )
    assert proc.returncode == 1
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False and last["failed"] == 1
    result = json.loads((tmp_path / "out" / "fig9-des.json").read_text())
    assert result["failed_frac"] > 0
    # The reported digests are what the program produced, not the
    # (tampered) reference they were checked against.
    committed = (HERE / "expected" / "fig9-des.sha256").read_text().split()
    assert result["op_digests"] == committed[:OPS]


def test_a_raising_op_is_counted_not_fatal(tmp_path):
    script = (
        "import dataclasses, sys\n"
        "import round, workloads\n"
        "def broken(op, run_dir):\n"
        "    raise RuntimeError('broken program')\n"
        "wl = workloads.WORKLOADS['fig9-des']\n"
        "workloads.WORKLOADS['fig9-des'] = dataclasses.replace(wl, run=broken)\n"
        "sys.exit(round.main(sys.argv[1:]))\n"
    )
    result_path = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, "-c", script, "fig9-des", "0", "2", "plain",
         str(tmp_path), str(result_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join((str(HERE), str(ROOT / "src")))},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_path.read_text())
    assert result["digests"] == [None, None]
    assert result["errors"][0].startswith("warm-up:")
    assert len(result["errors"]) == 3


def test_parse_rejects_other_run_lengths_and_partial_expected():
    for args in (
        ("--seconds", "1"),
        ("--write-expected", "--ops", str(OPS)),
    ):
        proc = bench(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == ""


def test_compare_accepts_itself_and_flags_drift(plain, tmp_path):
    _, out = plain
    assert bench(str(out), str(out), script="compare.py").returncode == 0
    for field, change in (
        ("digest", lambda r: r.update(digest="0" * 64)),
        ("metric", lambda r: r["metrics"].update(op_p50_ms=2 * r["metrics"]
                                                  ["op_p50_ms"])),
        ("failed", lambda r: r.update(failed=1, correct=False)),
    ):
        drifted = tmp_path / field
        shutil.copytree(out, drifted)
        path = drifted / "fig9-des.json"
        result = json.loads(path.read_text())
        change(result)
        path.write_text(json.dumps(result))
        proc = bench(str(out), str(drifted), script="compare.py")
        assert proc.returncode == 1, field


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = bench("--workload", "fig9-des", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
