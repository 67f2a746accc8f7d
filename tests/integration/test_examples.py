"""Every example script must run clean from a fresh process-like entry.

Run via runpy in-process (fast, coverage-friendly); stdout is captured
and spot-checked for the banner each example prints.  The multitasking
example's whole stdout is pinned by ``tests/golden/examples/``.
"""

from __future__ import annotations

import os
import runpy
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")
GOLDEN = os.path.join(
    os.path.dirname(__file__), "..", "golden", "examples"
)


def run_example(name: str, capsys) -> str:
    path = os.path.abspath(os.path.join(EXAMPLES, name))
    assert os.path.exists(path), path
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_example("quickstart.py", capsys)
    assert "simulator agrees with the analytical model" in out
    assert "87x" in out


def test_image_pipeline(capsys):
    out = run_example("image_pipeline.py", capsys)
    assert "FRTR vs PRTR across frame sizes" in out
    assert "16384x16384" in out


def test_prefetch_study(capsys):
    out = run_example("prefetch_study.py", capsys)
    assert "Prefetch ablation" in out
    assert "oracle" in out


def test_design_space(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the example writes a CSV to cwd
    out = run_example("design_space.py", capsys)
    assert "Best granularity per task time" in out
    assert (tmp_path / "fig5_xprtr0.17.csv").exists()


def test_multitasking(capsys):
    out = run_example("multitasking.py", capsys)
    path = os.path.join(GOLDEN, "multitasking-stdout.txt")
    with open(path, encoding="utf-8") as fh:
        assert out == fh.read()


def test_crash_safe_sweep(capsys):
    out = run_example("crash_safe_sweep.py", capsys)
    assert "Crash-safe sweep" in out
    assert "bit-identical" in out
    assert "DIVERGED" not in out


def test_capacity_planning(capsys):
    out = run_example("capacity_planning.py", capsys)
    assert "Recommended design" in out
    assert "the analytic capacity plan holds in simulation" in out


def test_cluster_storm(capsys):
    out = run_example("cluster_storm.py", capsys)
    assert "Configuration storm" in out
    assert "FRTR efficiency has fallen" in out


def test_service_tour(capsys):
    out = run_example("service_tour.py", capsys)
    assert "Multi-tenant service mode" in out
    assert "shed lowest-priority first" in out
    assert "INTERRUPTED" not in out
