#!/usr/bin/env python3
"""Same-host A/B of the benchmark of record (stdlib only).

Usage, from the repository root::

    python tools/bench_ab.py BASE [--pairs K] [--workload W ...]

``BASE`` is any commit ``git rev-parse`` accepts.  The tool builds two
trees under the git-ignored ``.bench_build/ab/``: the base from ``git
archive BASE`` in ``base/`` and the change from the working-tree
contents of the files ``git ls-files`` lists in ``work/``.  The two
names have one length: between two copies of one tree whose paths
differed in length, a round's peak RSS differed by up to 1%, in every
pair.  It copies the change's ``benchmarks/e2e/`` over the base copy,
so both sides run one harness against their own ``src/``.  It then
runs ``BENCHMARK.json``'s ``command`` with ``--workload W`` as a black
box, ``K`` alternating pairs per workload (default 5): pair ``i`` runs
the base first when ``i`` is even and the change first when it is odd,
and the pairs are interleaved across workloads so a slow spell of the
host touches each one a little.

For every workload and end-to-end metric it prints each side's median
and quartiles, the change-to-base ratio of the medians, and in how many
pairs the change won.  A metric whose base quartile spread, relative to
the base median, is wider than the metric's bound is marked
``unresolved``: such a run cannot tell a change of that size from noise.

Exit status: 1 when a median is worse than its ``BENCHMARK.json`` bound
or any op failed (a failed op includes a digest other than the seed-0
reference the harness checks), 2 on a usage or build error, 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "ab"
HARNESS = Path("benchmarks") / "e2e"
SIDES = ("base", "change")
#: each side's directory under ``BUILD``; equal lengths (see above)
TREE_NAMES = {"base": "base", "change": "work"}
#: wall budget of one harness invocation (one workload, one side)
RUN_TIMEOUT_S = 900.0


class AbError(RuntimeError):
    """The trees could not be built or a side could not be run."""


# -- building the two trees ---------------------------------------------------


def _git(*args: str, root: Path = ROOT) -> bytes:
    try:
        return subprocess.run(
            ["git", *args], cwd=root, check=True, capture_output=True
        ).stdout
    except subprocess.CalledProcessError as exc:
        raise AbError(
            f"git {' '.join(args)}: {exc.stderr.decode().strip()}"
        ) from None


def build_trees(base: str, root: Path = ROOT, build: Path = BUILD) -> dict:
    """Write the base and change trees; returns ``{side: path}``."""
    if build.exists():
        shutil.rmtree(build)
    trees = {side: build / TREE_NAMES[side] for side in SIDES}
    archive = _git("archive", "--format=tar", f"{base}^{{commit}}", root=root)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(trees["base"], filter="data")
        else:  # pragma: no cover - interpreters without extraction filters
            tar.extractall(trees["base"])
    for name in _git("ls-files", "-z", root=root).split(b"\0"):
        rel = name.decode()
        source = root / rel
        if not rel or not (source.is_file() or source.is_symlink()):
            continue  # a deleted file or a submodule
        target = trees["change"] / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target, follow_symlinks=False)
    shutil.rmtree(trees["base"] / HARNESS, ignore_errors=True)
    shutil.copytree(trees["change"] / HARNESS, trees["base"] / HARNESS)
    return trees


# -- running the pairs --------------------------------------------------------


def parse_result(stdout: str) -> dict:
    """The harness's result: the JSON object on its last stdout line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise AbError("the benchmark printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise AbError(f"last line is not JSON: {lines[-1][:80]!r}") from None
    if not isinstance(result, dict) or "metrics" not in result:
        raise AbError(f"no metrics in the result line: {lines[-1][:80]!r}")
    return result


def run_workload(command: list[str], tree: Path, workload: str) -> dict:
    """Run the benchmark command for one workload inside ``tree``."""
    proc = subprocess.run(
        [*command, "--workload", workload], cwd=tree, capture_output=True,
        text=True, timeout=RUN_TIMEOUT_S,
    )
    try:
        return parse_result(proc.stdout)
    except AbError as exc:
        raise AbError(
            f"{tree.name} {workload} (exit {proc.returncode}): {exc}\n"
            f"{proc.stderr.strip()[-2000:]}"
        ) from None


def run_pairs(
    workloads: list[str],
    pairs: int,
    run_one: Callable[[str, str], dict],
) -> dict:
    """``{workload: {side: [result per pair]}}``, sides alternating.

    ``run_one(side, workload)`` runs one side once; pair ``i`` runs the
    base first when ``i`` is even and the change first when it is odd.
    """
    results = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                result = run_one(side, workload)
                results[workload][side].append(result)
                print(
                    f"  pair {i + 1}/{pairs} {workload:<16} {side:<6} "
                    f"failed {result['failed']}",
                    flush=True,
                )
    return results


# -- the verdict --------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` by linear interpolation between order stats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass(frozen=True)
class Row:
    """One workload's comparison on one end-to-end metric."""

    workload: str
    metric: str
    bound: float
    base: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    higher_is_better: bool

    @property
    def ratio(self) -> float:
        """Change median over base median."""
        return self.change[1] / self.base[1]

    @property
    def worse(self) -> bool:
        """The change's median is worse than the base's beyond the bound."""
        if self.higher_is_better:
            return self.change[1] < self.base[1] * (1.0 - self.bound)
        return self.change[1] > self.base[1] * (1.0 + self.bound)

    @property
    def unresolved(self) -> bool:
        """The base's quartile spread is wider than the bound."""
        spread = self.base[2] - self.base[0]
        return spread > self.bound * self.base[1]


def compare(spec: dict, results: dict) -> list[Row]:
    """Rows for every workload in ``results`` and end-to-end metric."""
    rows = []
    for workload, sides in results.items():
        base, change = sides["base"], sides["change"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            higher = metric["better"] == "higher"
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in change]
            wins = sum(
                (cv > bv) if higher else (cv < bv) for bv, cv in zip(b, c)
            )
            rows.append(Row(
                workload=workload, metric=name, bound=metric["bound"],
                base=quartiles(b), change=quartiles(c), wins=wins,
                pairs=len(b), higher_is_better=higher,
            ))
    return rows


def failed_ops(results: dict) -> dict:
    """``{(workload, side): failed op count}`` summed over the pairs."""
    return {
        (workload, side): sum(int(r["failed"]) for r in runs)
        for workload, sides in results.items()
        for side, runs in sides.items()
    }


def render(rows: list[Row], failures: dict) -> str:
    """The comparison table and the failed-op counts."""

    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    lines = [
        f"{'workload':<16} {'metric':<16} {'base median [q1, q3]':>32} "
        f"{'change median [q1, q3]':>32} {'ratio':>7} {'wins':>5} "
        f"{'bound':>6}  verdict"
    ]
    for row in rows:
        verdict = "WORSE" if row.worse else "ok"
        if row.unresolved:
            verdict += " unresolved"
        lines.append(
            f"{row.workload:<16} {row.metric:<16} {cell(row.base):>32} "
            f"{cell(row.change):>32} {row.ratio:>7.3f} "
            f"{row.wins:>2}/{row.pairs:<2} {row.bound:>6.0%}  {verdict}"
        )
    for (workload, side), count in failures.items():
        lines.append(f"failed ops: {workload} {side} {count}")
    return "\n".join(lines)


def exit_status(rows: list[Row], failures: dict) -> int:
    """1 when any median is worse than its bound or any op failed."""
    bad = any(row.worse for row in rows) or any(failures.values())
    return 1 if bad else 0


# -- command line -------------------------------------------------------------


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="the base commit")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument(
        "--workload", dest="workloads", nargs="+", choices=names,
        default=names,
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    try:
        trees = build_trees(args.base)
        commit = _git("rev-parse", f"{args.base}^{{commit}}").decode().strip()
        print(f"bench_ab: base {commit[:12]} vs the working tree's tracked "
              f"files, {args.pairs} pair(s) per workload", flush=True)
        results = run_pairs(
            args.workloads, args.pairs,
            lambda side, w: run_workload(spec["command"], trees[side], w),
        )
    except (AbError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"bench_ab: {exc}", file=sys.stderr)
        return 2
    rows, failures = compare(spec, results), failed_ops(results)
    print(render(rows, failures))
    return exit_status(rows, failures)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
