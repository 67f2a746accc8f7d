"""tools/bench_ab.py: the verdict on canned benchmark outputs.

No benchmark runs here: each side's result is a canned last stdout line
of ``benchmarks/e2e/run.py``, so the statistics, the pair order, the
bounds and the exit status are checked exactly.  ``build_trees`` is
checked on a throwaway git repository.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
TOOLS = REPO / "tools"

if str(TOOLS) not in sys.path:  # the tool lives outside src/
    sys.path.insert(0, str(TOOLS))

import bench_ab  # noqa: E402

SPEC = {
    "end_to_end": [
        {"name": "sim_calls_per_s", "unit": "calls/s", "better": "higher",
         "bound": 0.2},
        {"name": "op_p50_ms", "unit": "ms", "better": "lower",
         "bound": 0.2},
    ],
}


def line(calls_per_s, p50_ms, failed=0):
    """One canned result line, as the harness prints it last."""
    return json.dumps({
        "correct": failed == 0, "attempted": 500, "failed": failed,
        "metrics": {
            "sim_calls_per_s": {"value": calls_per_s, "unit": "calls/s"},
            "op_p50_ms": {"value": p50_ms, "unit": "ms"},
        },
    })


def results(base, change, workload="fig9-des"):
    """``run_pairs``'s shape from canned ``(calls/s, p50, failed)``s."""
    return {workload: {
        "base": [bench_ab.parse_result(line(*r)) for r in base],
        "change": [bench_ab.parse_result(line(*r)) for r in change],
    }}


class TestParseResult:
    def test_last_line_is_the_result(self):
        stdout = "fig9-des: 100 ops x 5 rounds\n  ...\n" + line(1.0, 2.0)
        result = bench_ab.parse_result(stdout + "\n\n")
        assert result["metrics"]["op_p50_ms"]["value"] == 2.0

    @pytest.mark.parametrize("stdout", ["", "not json", '{"failed": 0}'])
    def test_no_result_line_is_an_error(self, stdout):
        with pytest.raises(bench_ab.AbError):
            bench_ab.parse_result(stdout)


class TestQuartiles:
    def test_five_values(self):
        assert bench_ab.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (
            2.0, 3.0, 4.0
        )

    def test_one_value(self):
        assert bench_ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestCompare:
    def test_medians_ratio_and_wins(self):
        runs = results(
            base=[(100, 10), (104, 10), (102, 10), (98, 10), (100, 10)],
            change=[(110, 9), (100, 11), (108, 9), (112, 9), (106, 9)],
        )
        calls, p50 = bench_ab.compare(SPEC, runs)
        assert calls.base == (100, 100, 102)
        assert calls.change == (106, 108, 110)
        assert calls.ratio == pytest.approx(1.08)
        # higher is better: pair 2 (100 < 104) is the one loss
        assert (calls.wins, calls.pairs) == (4, 5)
        # lower is better: pair 2 (11 > 10) is the one loss
        assert (p50.wins, p50.pairs) == (4, 5)
        assert not calls.worse and not p50.worse
        assert not calls.unresolved
        assert bench_ab.exit_status([calls, p50], {}) == 0

    @pytest.mark.parametrize(
        "change_median, worse", [(80.5, False), (79.5, True)]
    )
    def test_higher_is_better_bound(self, change_median, worse):
        runs = results(
            base=[(100, 10)] * 3, change=[(change_median, 10)] * 3
        )
        calls, _p50 = bench_ab.compare(SPEC, runs)
        assert calls.worse is worse
        assert bench_ab.exit_status([calls], {}) == int(worse)

    @pytest.mark.parametrize("change_median, worse", [(11.9, False),
                                                      (12.1, True)])
    def test_lower_is_better_bound(self, change_median, worse):
        runs = results(
            base=[(100, 10)] * 3, change=[(100, change_median)] * 3
        )
        _calls, p50 = bench_ab.compare(SPEC, runs)
        assert p50.worse is worse

    def test_wide_base_spread_is_unresolved(self):
        runs = results(
            base=[(60, 10), (70, 10), (100, 10), (130, 10), (140, 10)],
            change=[(100, 10)] * 5,
        )
        calls, p50 = bench_ab.compare(SPEC, runs)
        # a base IQR of 60 is 60% of its median, wider than the 20% bound
        assert calls.base == (70, 100, 130)
        assert calls.unresolved and not calls.worse
        assert not p50.unresolved
        assert "ok unresolved" in bench_ab.render([calls], {})

    def test_failed_ops_fail_the_run(self):
        runs = results(
            base=[(100, 10, 0)] * 2, change=[(100, 10, 0), (100, 10, 3)]
        )
        rows, failures = bench_ab.compare(SPEC, runs), bench_ab.failed_ops(
            runs
        )
        assert failures == {("fig9-des", "base"): 0,
                            ("fig9-des", "change"): 3}
        assert not any(row.worse for row in rows)
        assert bench_ab.exit_status(rows, failures) == 1
        assert "failed ops: fig9-des change 3" in bench_ab.render(
            rows, failures
        )


def test_pairs_alternate_and_interleave(capsys):
    calls = []

    def run_one(side, workload):
        calls.append((side, workload))
        return bench_ab.parse_result(line(100, 10))

    out = bench_ab.run_pairs(["a", "b"], 3, run_one)
    assert calls == [
        ("base", "a"), ("change", "a"), ("base", "b"), ("change", "b"),
        ("change", "a"), ("base", "a"), ("change", "b"), ("base", "b"),
        ("base", "a"), ("change", "a"), ("base", "b"), ("change", "b"),
    ]
    assert {w: {s: len(r) for s, r in sides.items()}
            for w, sides in out.items()} == {
        "a": {"base": 3, "change": 3}, "b": {"base": 3, "change": 3},
    }
    assert capsys.readouterr().out.count("pair ") == 12


def test_build_trees_overlays_the_change_harness(tmp_path):
    repo = tmp_path / "repo"
    harness = repo / "benchmarks" / "e2e"
    harness.mkdir(parents=True)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=repo, check=True, capture_output=True,
        )

    git("init", "-q")
    (repo / "src.py").write_text("base\n")
    (harness / "run.py").write_text("old harness\n")
    (harness / "gone.py").write_text("base only\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src.py").write_text("change\n")  # tracked, not committed
    (harness / "run.py").write_text("new harness\n")
    git("rm", "-q", str(harness / "gone.py"))
    (repo / "untracked.py").write_text("not listed\n")

    trees = bench_ab.build_trees("HEAD", root=repo, build=tmp_path / "ab")
    base, change = trees["base"], trees["change"]
    # one path length on both sides, so peak RSS compares like with like
    assert len(str(base)) == len(str(change))
    assert (base / "src.py").read_text() == "base\n"
    assert (change / "src.py").read_text() == "change\n"
    assert not (change / "untracked.py").exists()
    for tree in (base, change):
        assert (tree / "benchmarks/e2e/run.py").read_text() == (
            "new harness\n"
        )
        assert not (tree / "benchmarks/e2e/gone.py").exists()
    with pytest.raises(bench_ab.AbError, match="no-such-rev"):
        bench_ab.build_trees("no-such-rev", root=repo, build=tmp_path / "x")
