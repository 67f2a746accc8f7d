"""The ``reprolint`` whole-program rule engine (stdlib only).

``reprolint`` is the domain linter of this repository: every headline
claim — bit-identical resume, serial-vs-sharded journal byte-identity,
the ``(1+X_PRTR)/X_PRTR`` and 2x speedup bounds — rests on contracts
that plain tests cannot see (a stray wall-clock read only corrupts the
*next* refactor).  Since PR 10 the engine runs in **two passes**:

1. **fact extraction** (:mod:`reprolint.symbols`) — the only pass that
   touches :func:`ast.parse`; each file is distilled into a
   JSON-serializable :class:`~reprolint.symbols.ModuleFacts` summary
   and the *local* (per-file) rules run on its AST.  Both products are
   cached per content hash (:mod:`reprolint.cache`), so a warm run
   re-parses zero files.
2. **graph rules** (:mod:`reprolint.callgraph`, :mod:`reprolint.taint`,
   :mod:`reprolint.rules`) — the *global* rules see the whole program:
   interprocedural determinism taint, fork-reachability, audit
   coverage, CLI-surface and frozen-config conformance, unreached
   code.  Their findings are cached behind a whole-tree fingerprint
   that also covers the README/docs/tests the conformance rules read
   and the examples/benchmarks RL010 reaches from.

Findings have three escape hatches:

* **inline suppressions** — ``# reprolint: disable=RL001`` on the
  offending line (comma-separate several ids, ``disable=all`` for all);
  policy: a suppression must sit next to a comment saying *why*;
* **a committed baseline** — ``tools/reprolint/baseline.json`` holds
  findings that are accepted with a written justification; a finding
  matches a baseline entry by ``(rule, path, context)`` where
  ``context`` is the stripped source line, so line-number drift does
  not invalidate the baseline but edits to the flagged code do;
* **per-rule enable/disable** — ``--select``/``--ignore``.

Exit codes: 0 clean (everything suppressed/baselined), 1 unbaselined
findings, 2 usage or parse errors.

Usage::

    PYTHONPATH=tools python -m reprolint [--json] [--list-rules]
        [--select RL001,RL003] [--ignore RL002]
        [--baseline PATH | --no-baseline] [--write-baseline]
        [--sarif out.sarif] [--cache PATH | --no-cache]
    PYTHONPATH=src python -m repro lint     # the same engine via the CLI
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .cache import LintCache, file_digest, tree_fingerprint
from .callgraph import CallGraph, SymbolTable
from .symbols import ModuleFacts, collect_facts

__all__ = [
    "BASELINE_NAME",
    "CACHE_NAME",
    "Finding",
    "LintResult",
    "Project",
    "SourceModule",
    "default_repo_root",
    "load_baseline",
    "main",
    "run_lint",
    "write_baseline",
]

BASELINE_NAME = "baseline.json"
BASELINE_VERSION = 1
CACHE_NAME = ".reprolint-cache.json"

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # repo-root-relative, posix separators
    line: int
    message: str
    #: the stripped source line — the baseline fingerprint
    context: str = ""

    def sort_key(self) -> tuple[str, int, str]:
        """Stable display order: by file, then line, then rule id."""
        return (self.path, self.line, self.rule)

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable form (the ``--json`` row)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "context": self.context,
        }

    def baseline_key(self) -> tuple[str, str, str]:
        """Line-number-independent identity used for baseline matching."""
        return (self.rule, self.path, self.context)


def _scan_suppressions(lines: Sequence[str]) -> dict[int, list[str]]:
    """Physical line -> upper-cased rule ids disabled on that line."""
    table: dict[int, list[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            table[lineno] = sorted(
                {
                    part.strip().upper()
                    for part in match.group(1).split(",")
                    if part.strip()
                }
            )
    return table


class SourceModule:
    """One parsed python file, handed to the *local* rules."""

    def __init__(
        self,
        rel: str,
        src_rel: str,
        text: str,
        tree: ast.Module,
    ) -> None:
        #: path relative to the repo root (what findings report)
        self.rel = rel
        #: path relative to the scanned source root (what scopes match)
        self.src_rel = src_rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        self.suppressions = _scan_suppressions(self.lines)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is disabled on physical line ``line``."""
        rules = self.suppressions.get(line)
        return rules is not None and (rule_id in rules or "ALL" in rules)

    def line_text(self, line: int) -> str:
        """The stripped source text of a physical line ('' off-range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule_id: str, node: Any, message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node (or line int)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            rule=rule_id,
            path=self.rel,
            line=line,
            message=message,
            context=self.line_text(line),
        )


class Project:
    """The analyzed program: facts for every file plus shared lookups.

    This is the pass-1 product and the only thing pass 2 (the global
    rules) ever sees — ``modules`` holds
    :class:`~reprolint.symbols.ModuleFacts`, never ASTs, which is what
    lets the incremental cache skip parsing entirely on a warm run.
    """

    def __init__(
        self,
        src_root: Path,
        repo_root: Path,
        *,
        local_rules: Sequence[Any] = (),
        cache: LintCache | None = None,
    ) -> None:
        self.src_root = Path(src_root).resolve()
        self.repo_root = Path(repo_root).resolve()
        self.modules: list[ModuleFacts] = []
        #: ``(path, message)`` pairs for files that failed to parse
        self.errors: list[tuple[str, str]] = []
        #: files that went through ast.parse this run (0 on warm runs)
        self.parsed = 0
        #: raw findings of the *local* rules (pre-suppression)
        self.local_findings: list[Finding] = []
        #: src_rel -> content hash, input to the tree fingerprint
        self.file_digests: dict[str, str] = {}
        self._lines: dict[str, list[str]] = {}
        self._by_rel: dict[str, ModuleFacts] = {}
        self._symbols: SymbolTable | None = None
        self._graph: CallGraph | None = None
        self._doc_files: list[tuple[str, str]] | None = None
        self._test_files: list[tuple[str, str]] | None = None
        self._reacher_files: list[tuple[str, str]] | None = None
        self._root_pkg = (
            self.src_root.name
            if (self.src_root / "__init__.py").exists()
            else ""
        )
        self._load(local_rules, cache)

    # -- loading ------------------------------------------------------

    def _rel(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.repo_root).as_posix()
        except ValueError:
            return path.as_posix()

    def _module_name(self, src_rel: str) -> str:
        parts = src_rel[: -len(".py")].split("/")
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        if self._root_pkg:
            parts = [self._root_pkg, *parts]
        return ".".join(parts)

    def _load(
        self, local_rules: Sequence[Any], cache: LintCache | None
    ) -> None:
        for path in sorted(self.src_root.rglob("*.py")):
            src_rel = path.relative_to(self.src_root).as_posix()
            rel = self._rel(path)
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                self.errors.append((rel, str(exc)))
                continue
            digest = file_digest(text)
            self.file_digests[src_rel] = digest
            self._lines[src_rel] = text.splitlines()

            entry = cache.lookup(src_rel, digest) if cache else None
            if entry is not None:
                if "error" in entry:
                    self.errors.append((rel, str(entry["error"])))
                    continue
                facts = ModuleFacts.from_dict(entry["facts"])
                self.modules.append(facts)
                self._by_rel[facts.rel] = facts
                self.local_findings.extend(
                    Finding(**row) for row in entry["findings"]
                )
                continue

            try:
                tree = ast.parse(text, filename=str(path))
            except SyntaxError as exc:
                self.errors.append((rel, str(exc)))
                if cache is not None:
                    cache.store(
                        src_rel, {"digest": digest, "error": str(exc)}
                    )
                continue
            self.parsed += 1
            source = SourceModule(rel, src_rel, text, tree)
            facts = collect_facts(
                tree,
                src_rel=src_rel,
                rel=rel,
                module=self._module_name(src_rel),
                suppressions=source.suppressions,
            )
            self.modules.append(facts)
            self._by_rel[facts.rel] = facts
            fresh: list[Finding] = []
            for rule in local_rules:
                if rule.applies(source):
                    fresh.extend(rule.check_module(source, self))
            self.local_findings.extend(fresh)
            if cache is not None:
                cache.store(src_rel, {
                    "digest": digest,
                    "facts": facts.as_dict(),
                    "findings": [f.as_dict() for f in fresh],
                })

    # -- lookups ------------------------------------------------------

    @property
    def symbols(self) -> SymbolTable:
        """Lazily built project-wide symbol table."""
        if self._symbols is None:
            self._symbols = SymbolTable(self.modules)
        return self._symbols

    @property
    def graph(self) -> CallGraph:
        """Lazily built project-wide call graph."""
        if self._graph is None:
            self._graph = CallGraph(self.symbols)
        return self._graph

    def module(self, src_rel: str) -> ModuleFacts | None:
        """The facts at a source-root-relative path, if scanned."""
        return self.symbols.by_src_rel.get(src_rel)

    def module_by_rel(self, rel: str) -> ModuleFacts | None:
        """The facts at a repo-root-relative path, if scanned."""
        return self._by_rel.get(rel)

    def line_text(self, src_rel: str, line: int) -> str:
        """The stripped source text of a physical line ('' off-range)."""
        lines = self._lines.get(src_rel, [])
        if 1 <= line <= len(lines):
            return lines[line - 1].strip()
        return ""

    def finding(
        self,
        facts: ModuleFacts,
        rule_id: str,
        line: int,
        message: str,
        context: str | None = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored in a scanned module."""
        return Finding(
            rule=rule_id,
            path=facts.rel,
            line=line,
            message=message,
            context=(
                context
                if context is not None
                else self.line_text(facts.src_rel, line)
            ),
        )

    # -- documentation / test inputs (conformance rules) --------------

    def doc_path(self, rel: str) -> Path:
        """Absolute path of a repo-root-relative documentation file."""
        return self.repo_root / rel

    def doc_rel(self, rel: str) -> str:
        """Repo-root-relative display path for a documentation file."""
        return self._rel(self.repo_root / rel)

    def doc_files(self) -> list[tuple[str, str]]:
        """``(rel, text)`` for README.md and every docs/*.md file."""
        if self._doc_files is None:
            out: list[tuple[str, str]] = []
            readme = self.repo_root / "README.md"
            if readme.is_file():
                out.append(("README.md", readme.read_text(encoding="utf-8")))
            docs_dir = self.repo_root / "docs"
            if docs_dir.is_dir():
                for path in sorted(docs_dir.glob("*.md")):
                    out.append((
                        self._rel(path),
                        path.read_text(encoding="utf-8"),
                    ))
            self._doc_files = out
        return self._doc_files

    def test_files(self) -> list[tuple[str, str]]:
        """``(rel, text)`` for tests/**/*.py (fixture trees excluded)."""
        if self._test_files is None:
            out: list[tuple[str, str]] = []
            tests_dir = self.repo_root / "tests"
            if tests_dir.is_dir():
                for path in sorted(tests_dir.rglob("*.py")):
                    rel = self._rel(path)
                    if "/fixtures/" in f"/{rel}":
                        continue  # fixture mini-repos are not tests
                    out.append((rel, path.read_text(encoding="utf-8")))
            self._test_files = out
        return self._test_files

    def reacher_files(self) -> list[tuple[str, str]]:
        """``(rel, text)`` for examples/*.py and benchmarks/**/*.py."""
        if self._reacher_files is None:
            paths = [
                *sorted((self.repo_root / "examples").glob("*.py")),
                *sorted((self.repo_root / "benchmarks").rglob("*.py")),
            ]
            self._reacher_files = [
                (self._rel(path), path.read_text(encoding="utf-8"))
                for path in paths
            ]
        return self._reacher_files

    def external_digests(self) -> list[tuple[str, str]]:
        """Content hashes of the non-src inputs the global rules read."""
        return [
            (rel, file_digest(text))
            for rel, text in (
                *self.doc_files(), *self.test_files(), *self.reacher_files()
            )
        ]


@dataclass
class LintResult:
    """Everything one lint pass produced."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)
    files: int = 0
    #: files that went through ast.parse (0 == fully warm cache)
    parsed: int = 0

    def partition(
        self, baseline: Sequence[Mapping[str, Any]]
    ) -> tuple[list[Finding], list[Finding], list[Mapping[str, Any]]]:
        """Split findings into (new, baselined) and list stale entries.

        Matching is multiset-style on :meth:`Finding.baseline_key`: each
        baseline entry absorbs at most one finding, so a *second*
        occurrence of an already-baselined pattern is still new.
        """
        budget: dict[tuple[str, str, str], int] = {}
        for entry in baseline:
            key = (
                str(entry.get("rule", "")),
                str(entry.get("path", "")),
                str(entry.get("context", "")),
            )
            budget[key] = budget.get(key, 0) + 1
        new: list[Finding] = []
        matched: list[Finding] = []
        for finding in self.findings:
            key = finding.baseline_key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                matched.append(finding)
            else:
                new.append(finding)
        stale: list[Mapping[str, Any]] = []
        for entry in baseline:
            key = (
                str(entry.get("rule", "")),
                str(entry.get("path", "")),
                str(entry.get("context", "")),
            )
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                stale.append(entry)
        return new, matched, stale


def _parse_rule_ids(text: str) -> set[str]:
    return {part.strip().upper() for part in text.split(",") if part.strip()}


def run_lint(
    src_root: Path,
    repo_root: Path,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    rules: Sequence[Any] | None = None,
    cache_path: Path | None = None,
) -> LintResult:
    """Run every (selected) rule over the tree under ``src_root``.

    ``select`` keeps only the named rule ids, ``ignore`` drops the named
    ones; ``rules`` overrides the registry entirely (tests).
    ``cache_path`` enables the incremental cache: unchanged files skip
    pass 1 entirely, and an unchanged tree skips the global pass too.
    Returns a :class:`LintResult`; baseline handling is the caller's
    job (:func:`main` does it for the CLI).
    """
    from .rules import all_rules

    registry = list(rules) if rules is not None else all_rules()
    known = {rule.id for rule in registry}
    active = list(registry)
    if select is not None:
        wanted = {r.upper() for r in select}
        unknown = wanted - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        active = [rule for rule in active if rule.id in wanted]
    if ignore is not None:
        dropped = {r.upper() for r in ignore}
        unknown = dropped - known
        if unknown:
            raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
        active = [rule for rule in active if rule.id not in dropped]
    active_ids = {rule.id for rule in active}

    # the cache stores the findings of *every* local rule per file, so
    # pass 1 must run the full local registry whenever it may store —
    # a filtered run then narrows at report time
    cache = (
        LintCache(Path(cache_path))
        if cache_path is not None and rules is None
        else None
    )
    local_registry = [rule for rule in registry if rule.local]
    local_to_run = (
        local_registry
        if cache is not None
        else [rule for rule in local_registry if rule.id in active_ids]
    )

    project = Project(
        src_root, repo_root, local_rules=local_to_run, cache=cache
    )
    raw: list[Finding] = [
        f for f in project.local_findings if f.rule in active_ids
    ]

    # pass 2: global rules, cached behind the whole-tree fingerprint
    global_rules = [rule for rule in active if not rule.local]
    full_run = select is None and ignore is None
    fingerprint = tree_fingerprint(
        project.file_digests, project.external_digests()
    )
    if cache is not None and full_run and cache.global_hit(fingerprint):
        raw.extend(
            Finding(**row) for row in cache.global_findings
        )
    else:
        global_findings: list[Finding] = []
        for rule in global_rules:
            global_findings.extend(rule.check_program(project))
        raw.extend(global_findings)
        if cache is not None and full_run:
            cache.store_global(
                fingerprint, [f.as_dict() for f in global_findings]
            )
    if cache is not None:
        cache.prune(set(project.file_digests))
        cache.save()

    result = LintResult(
        errors=list(project.errors),
        files=len(project.modules),
        parsed=project.parsed,
    )
    for finding in sorted(raw, key=Finding.sort_key):
        mod = project.module_by_rel(finding.path)
        if mod is not None and mod.suppressed(finding.rule, finding.line):
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)
    return result


# -- baseline --------------------------------------------------------------


def load_baseline(path: Path) -> list[dict[str, Any]]:
    """Read a baseline file; returns its entry list ([] if absent)."""
    if not path.exists():
        return []
    data = json.loads(path.read_text(encoding="utf-8"))
    if (
        not isinstance(data, dict)
        or data.get("version") != BASELINE_VERSION
        or not isinstance(data.get("entries"), list)
    ):
        raise ValueError(
            f"{path}: not a reprolint baseline "
            f"(expected {{'version': {BASELINE_VERSION}, 'entries': [...]}})"
        )
    return list(data["entries"])


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write the current findings as a baseline (justifications TODO).

    Every generated entry carries a placeholder justification — the
    policy is that a human replaces it before committing.
    """
    entries = [
        {
            "rule": f.rule,
            "path": f.path,
            "context": f.context,
            "justification": "TODO: justify or fix",
        }
        for f in sorted(findings, key=Finding.sort_key)
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {"version": BASELINE_VERSION, "entries": entries}, indent=2
        )
        + "\n",
        encoding="utf-8",
    )


# -- CLI -------------------------------------------------------------------


def default_repo_root() -> Path:
    """The repository root, inferred from this file's location."""
    return Path(__file__).resolve().parents[2]


def _render_human(
    new: Sequence[Finding],
    matched: Sequence[Finding],
    stale: Sequence[Mapping[str, Any]],
    result: LintResult,
) -> str:
    lines: list[str] = []
    for finding in new:
        lines.append(
            f"{finding.path}:{finding.line}: {finding.rule} "
            f"{finding.message}"
        )
    for path, message in result.errors:
        lines.append(f"{path}: parse error: {message}")
    for entry in stale:
        lines.append(
            f"note: stale baseline entry {entry.get('rule')} "
            f"{entry.get('path')} ({entry.get('context', '')!r}) — "
            "the finding no longer occurs; remove it"
        )
    lines.append(
        f"reprolint: {len(new)} finding(s) "
        f"({len(matched)} baselined, {len(result.suppressed)} suppressed) "
        f"across {result.files} files, {result.parsed} parsed"
    )
    return "\n".join(lines)


def _render_json(
    new: Sequence[Finding],
    matched: Sequence[Finding],
    stale: Sequence[Mapping[str, Any]],
    result: LintResult,
) -> str:
    return json.dumps(
        {
            "version": 2,
            "findings": [f.as_dict() for f in new],
            "baselined": [f.as_dict() for f in matched],
            "suppressed": [f.as_dict() for f in result.suppressed],
            "stale_baseline": list(stale),
            "errors": [
                {"path": p, "message": m} for p, m in result.errors
            ],
            "files": result.files,
            "parsed": result.parsed,
        },
        indent=2,
    )


def _list_rules() -> str:
    from .rules import all_rules

    lines = []
    for rule in all_rules():
        scope = ", ".join(rule.scope) if rule.scope else "(whole tree)"
        kind = "local (per-file)" if rule.local else "global (whole-program)"
        lines.append(f"{rule.id}  {rule.title}")
        lines.append(f"       scope: {scope}  [{kind}]")
        lines.append(f"       {rule.rationale}")
        for example_line in rule.example.splitlines():
            lines.append(f"       e.g. {example_line}")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter as a command; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Whole-program domain linter for the repro codebase.",
    )
    parser.add_argument(
        "--repo-root", type=str, default="",
        help="repository root (default: inferred from this file)",
    )
    parser.add_argument(
        "--root", type=str, default="",
        help="source root to scan (default: <repo-root>/src/repro)",
    )
    parser.add_argument(
        "--select", type=str, default="",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", type=str, default="",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--baseline", type=str, default="",
        help="baseline file (default: tools/reprolint/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the committed baseline (report everything)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--sarif", type=str, default="",
        help="also write findings as SARIF 2.1.0 to this path",
    )
    parser.add_argument(
        "--cache", type=str, default="",
        help=f"incremental cache file (default: <repo-root>/{CACHE_NAME})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the incremental cache for this run",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="machine-readable output",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    repo_root = (
        Path(args.repo_root).resolve()
        if args.repo_root
        else default_repo_root()
    )
    src_root = (
        Path(args.root).resolve() if args.root else repo_root / "src" / "repro"
    )
    if not src_root.is_dir():
        print(f"reprolint: no such source root: {src_root}", file=sys.stderr)
        return 2

    cache_path: Path | None = None
    if not args.no_cache:
        cache_path = (
            Path(args.cache) if args.cache else repo_root / CACHE_NAME
        )

    try:
        result = run_lint(
            src_root,
            repo_root,
            select=_parse_rule_ids(args.select) or None,
            ignore=_parse_rule_ids(args.ignore) or None,
            cache_path=cache_path,
        )
    except ValueError as exc:
        print(f"reprolint: {exc}", file=sys.stderr)
        return 2

    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else repo_root / "tools" / "reprolint" / BASELINE_NAME
    )
    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(
            f"reprolint: wrote {len(result.findings)} entr"
            f"{'y' if len(result.findings) == 1 else 'ies'} to "
            f"{baseline_path}"
        )
        return 0

    baseline: list[dict[str, Any]] = []
    if not args.no_baseline:
        try:
            baseline = load_baseline(baseline_path)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"reprolint: {exc}", file=sys.stderr)
            return 2
    new, matched, stale = result.partition(baseline)

    if args.sarif:
        from .rules import all_rules
        from .sarif import render_sarif

        Path(args.sarif).write_text(
            render_sarif(
                new=new,
                baselined=matched,
                suppressed=result.suppressed,
                rules=all_rules(),
            ),
            encoding="utf-8",
        )

    render = _render_json if args.json else _render_human
    print(render(new, matched, stale, result))
    if result.errors:
        return 2
    return 1 if new else 0
