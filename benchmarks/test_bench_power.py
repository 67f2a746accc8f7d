"""Benchmark: power sweep throughput (energy grid points/sec).

Measures the time-vs-energy sweep harness (``repro power``): how many
``(n_prrs, hit_ratio)`` power points per wall-clock second the engine
sustains with the pure DES and with the closed-form energy replay
(``hybrid="on"``) — byte-identity of the two point lists asserted,
since an energy number that depends on the evaluation path would be a
bug, not a speedup.  With ``--bench-json DIR`` the numbers land in
``DIR/BENCH_power.json`` for the ``bench-trajectory`` CI job.
"""

from __future__ import annotations

import time

from repro.power.pareto import (
    DEFAULT_POWER_HIT_RATIOS,
    DEFAULT_PRR_COUNTS,
    measure_power_point,
)

from conftest import record, write_bench_json

N_CALLS = 30
SEED = 0


def _grid(hybrid: str) -> list:
    return [
        measure_power_point(n, h, n_calls=N_CALLS, hybrid=hybrid)
        for n in DEFAULT_PRR_COUNTS
        for h in DEFAULT_POWER_HIT_RATIOS
    ]


def test_bench_power(benchmark, bench_json_dir) -> None:
    n_points = len(DEFAULT_PRR_COUNTS) * len(DEFAULT_POWER_HIT_RATIOS)

    t0 = time.perf_counter()
    des_points = _grid("off")
    des_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    hyb_points = _grid("on")
    hyb_wall = time.perf_counter() - t0
    assert des_points == hyb_points, "hybrid changed the energy answers"

    benchmark(_grid, "on")
    wall = benchmark.stats.stats.mean if benchmark.stats else hyb_wall

    summary = {
        "grid_points": n_points,
        "n_calls": N_CALLS,
        "seed": SEED,
        "des_wall_s": des_wall,
        "hybrid_wall_s": hyb_wall,
        "power_hybrid_speedup": des_wall / hyb_wall if hyb_wall else None,
        "power_points_per_sec": n_points / wall if wall else None,
    }
    record(benchmark, **summary)
    write_bench_json(bench_json_dir, "power", summary)
    assert len(des_points) == n_points
