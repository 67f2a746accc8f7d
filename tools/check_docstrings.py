#!/usr/bin/env python3
"""Docstring-coverage gate for ``src/repro`` (stdlib only).

Walks the package with :mod:`ast` and measures docstring coverage of
*public* definitions (names not starting with an underscore), split by
kind:

* **modules** and **classes** must be 100% documented — they are, and
  this gate keeps it that way;
* **functions/methods** must stay above a pinned floor — a ratchet:
  raise it as coverage improves, never lower it to merge.

Exit 1 when any floor is violated; the missing names are printed
either way so the gate is actionable.

Usage::

    python tools/check_docstrings.py [--min-functions 60.0] [--root src/repro]
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: Function/method coverage floor, percent (modules and classes are
#: pinned at 100).  Raise when coverage improves; never lower to merge.
DEFAULT_MIN_FUNCTIONS = 80.0


def iter_public_nodes(tree: ast.Module):
    """Yield ``(kind, qualname, node)`` for docstring-bearing defs."""
    yield "module", "(module)", tree
    stack: list[tuple[ast.AST, str]] = [(tree, "")]
    while stack:
        parent, prefix = stack.pop()
        for node in ast.iter_child_nodes(parent):
            if isinstance(
                node,
                (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                name = node.name
                qual = f"{prefix}{name}"
                # only classes scope further *public* defs: a function
                # nested inside a function is an implementation detail
                if isinstance(node, ast.ClassDef):
                    stack.append((node, f"{qual}."))
                if name.startswith("_"):
                    continue
                kind = (
                    "class"
                    if isinstance(node, ast.ClassDef)
                    else "function"
                )
                yield kind, qual, node


def audit_file(path: Path):
    """Yield ``(kind, documented, location)`` rows for one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for kind, qual, node in iter_public_nodes(tree):
        documented = ast.get_docstring(node) is not None
        lineno = getattr(node, "lineno", 1)
        yield kind, documented, f"{path}:{lineno} {kind} {qual}"


def main(argv: list[str] | None = None) -> int:
    """Run the gate; return a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default="src/repro")
    parser.add_argument(
        "--min-functions", type=float, default=DEFAULT_MIN_FUNCTIONS,
        help="minimum function/method coverage percent (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    root = Path(args.root)
    if not root.is_dir():
        print(f"error: no such package root: {root}", file=sys.stderr)
        return 2

    documented = {"module": 0, "class": 0, "function": 0}
    total = dict(documented)
    missing: list[str] = []
    for path in sorted(root.rglob("*.py")):
        for kind, ok, location in audit_file(path):
            total[kind] += 1
            if ok:
                documented[kind] += 1
            else:
                missing.append(location)

    for line in missing:
        print(f"missing docstring: {line}")

    failures: list[str] = []
    for kind in ("module", "class"):
        if documented[kind] != total[kind]:
            failures.append(
                f"{kind}s must be 100% documented "
                f"({documented[kind]}/{total[kind]})"
            )
    fn_cov = (
        100.0 * documented["function"] / total["function"]
        if total["function"]
        else 100.0
    )
    print(
        "docstring coverage: "
        f"modules {documented['module']}/{total['module']}, "
        f"classes {documented['class']}/{total['class']}, "
        f"functions {documented['function']}/{total['function']} "
        f"({fn_cov:.1f}%, floor {args.min_functions:.1f}%)"
    )
    if fn_cov < args.min_functions:
        failures.append(
            f"function coverage {fn_cov:.1f}% below floor "
            f"{args.min_functions:.1f}%"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
