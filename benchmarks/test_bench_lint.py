"""Analyzer throughput: reprolint cold vs warm over the live tree.

Not a paper artifact — the whole-program pass (symbol table, call
graph, taint) runs on every CI push, so its cost is tracked like any
other kernel.  The warm benchmark also *asserts* the incremental
cache's contract: zero files re-parsed, identical findings, and a
measurably smaller wall than the cold pass.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from conftest import record, write_bench_json

REPO = Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
if str(TOOLS) not in sys.path:
    sys.path.insert(0, str(TOOLS))

from reprolint import run_lint  # noqa: E402

SRC = REPO / "src" / "repro"


def test_bench_lint_cold(benchmark) -> None:
    """Full two-pass analysis, no cache: every file through ast.parse."""
    result = benchmark.pedantic(
        run_lint, args=(SRC, REPO), rounds=3, iterations=1
    )
    assert result.parsed == result.files > 0
    assert not result.errors
    record(benchmark, files=result.files, parsed=result.parsed)


def test_bench_lint_warm(benchmark, tmp_path, bench_json_dir) -> None:
    """Warm-cache run: re-parse zero files, and beat the cold wall."""
    cache = tmp_path / "reprolint-cache.json"
    run_lint(SRC, REPO, cache_path=cache)  # prime

    t0 = time.perf_counter()
    cold = run_lint(SRC, REPO)
    cold_wall = time.perf_counter() - t0

    result = benchmark.pedantic(
        run_lint, args=(SRC, REPO),
        kwargs={"cache_path": cache}, rounds=5, iterations=1,
    )
    assert result.parsed == 0
    assert result.findings == cold.findings
    assert result.suppressed == cold.suppressed

    if benchmark.stats is None:
        # --benchmark-disable ran one untimed round: time a warm pass here.
        t0 = time.perf_counter()
        run_lint(SRC, REPO, cache_path=cache)
        warm_wall = time.perf_counter() - t0
    else:
        warm_wall = benchmark.stats.stats.mean
    assert warm_wall < cold_wall, (
        f"warm lint ({warm_wall:.3f}s) not faster than cold "
        f"({cold_wall:.3f}s): the cache is not paying for itself"
    )
    files_per_sec = result.files / warm_wall
    record(
        benchmark, files=result.files, cold_wall_s=cold_wall,
        lint_files_per_sec=files_per_sec,
    )
    write_bench_json(bench_json_dir, "lint", {
        "files": result.files,
        "cold_wall_s": cold_wall,
        "warm_wall_s": warm_wall,
        "lint_files_per_sec": files_per_sec,
    })
