"""Agreement between two benchmark result directories.

Usage, from the repository root::

    python benchmarks/e2e/compare.py A/ B/

``A`` and ``B`` are ``run.py --out`` directories.  For every workload of
``BENCHMARK.json`` with a result in either, the tool prints each
end-to-end metric: A's value, B's, the relative difference ``(B - A) / A``
and the metric's bound, then whether the output digests match and each
side's failed op count.  It exits 1 when any difference is larger than
its bound, a digest differs, either side has a failed op or an incorrect
result, a workload is missing from one side or neither side holds any
result, 2 on a usage error, and 0 when the two sets agree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(directory: Path, workload: str) -> dict | None:
    path = directory / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def compare(a_dir: Path, b_dir: Path, spec: dict) -> bool:
    """Print the comparison table; True when the two result sets agree."""
    agree, compared = True, 0
    print(f"{'workload':<16} {'metric':<16} {'A':>12} {'B':>12} "
          f"{'diff':>8} {'bound':>6}")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = load(a_dir, workload), load(b_dir, workload)
        if a is None and b is None:
            continue
        if a is None or b is None:
            side = "A" if a is None else "B"
            print(f"{workload:<16} missing from {side}")
            agree = False
            continue
        compared += 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["metrics"][name], b["metrics"][name]
            diff = (vb - va) / va
            ok = abs(diff) <= metric["bound"]
            agree &= ok
            print(f"{workload:<16} {name:<16} {va:>12.5g} {vb:>12.5g} "
                  f"{diff:>+8.2%} {metric['bound']:>6.0%}"
                  f"{'' if ok else '  OUT OF BOUND'}")
        same = a["digest"] == b["digest"]
        agree &= same
        print(f"{workload:<16} {'digest':<16} {a['digest'][:12]:>12} "
              f"{b['digest'][:12]:>12} {'same' if same else 'DIFFERENT':>15}")
        clean = all(r["correct"] and r["failed"] == 0 for r in (a, b))
        agree &= clean
        print(f"{workload:<16} {'failed':<16} {a['failed']:>12} "
              f"{b['failed']:>12} {'ok' if clean else 'INCORRECT':>15}")
    if not compared:
        print("no workload results in either directory")
    return agree and compared > 0


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(p).is_dir() for p in argv):
        print("usage: compare.py RESULT_DIR_A RESULT_DIR_B", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return 0 if compare(Path(argv[0]), Path(argv[1]), spec) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
