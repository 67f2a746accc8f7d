"""Incremental analysis cache (``.reprolint-cache.json``).

The whole point of the facts-based two-pass design is that pass 1 —
the only pass that touches :func:`ast.parse` — is a pure function of
one file's bytes.  This module persists its output:

* per file, keyed by the sha256 of its content: the serialized
  :class:`~reprolint.symbols.ModuleFacts`, the findings of every
  *local* (per-file) rule, and any parse error;
* for the whole tree, keyed by a fingerprint over every source hash
  *plus* the doc/test files the conformance rules read and the
  example/benchmark files RL010 reaches from: the findings of the
  *global* (whole-program) rules.

A warm run over an unchanged tree therefore re-parses **zero** files
and skips the graph rules outright; editing one file re-parses just
that file, and the global pass is recomputed from cached summaries —
which covers the edited file's whole reverse-dependency cone without
ever re-reading an AST.

The cache is invalidated wholesale when the rule set itself changes:
the header carries a fingerprint over the ``reprolint`` package
sources, so editing any rule re-lints everything.  Corrupt or
version-skewed caches are silently discarded — the cache is an
optimization, never a correctness input.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

__all__ = [
    "CACHE_VERSION",
    "LintCache",
    "file_digest",
    "ruleset_fingerprint",
]

CACHE_VERSION = 1


def file_digest(text: str) -> str:
    """Content hash used as the per-file cache key."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def ruleset_fingerprint() -> str:
    """Hash of the analyzer's own sources: rule edits drop the cache."""
    digest = hashlib.sha256()
    package_dir = Path(__file__).resolve().parent
    for path in sorted(package_dir.glob("*.py")):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


class LintCache:
    """Load/store wrapper over the on-disk cache file."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.ruleset = ruleset_fingerprint()
        self.files: dict[str, dict[str, Any]] = {}
        self.global_fingerprint = ""
        self.global_findings: list[dict[str, Any]] = []
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if (
            not isinstance(data, dict)
            or data.get("version") != CACHE_VERSION
            or data.get("ruleset") != self.ruleset
            or not isinstance(data.get("files"), dict)
        ):
            return
        self.files = data["files"]
        self.global_fingerprint = str(data.get("global_fingerprint", ""))
        raw = data.get("global_findings")
        self.global_findings = raw if isinstance(raw, list) else []

    # -- per-file entries ---------------------------------------------

    def lookup(self, src_rel: str, digest: str) -> dict[str, Any] | None:
        """The cached pass-1 entry for a file, if its hash matches."""
        entry = self.files.get(src_rel)
        if isinstance(entry, dict) and entry.get("digest") == digest:
            return entry
        return None

    def store(self, src_rel: str, entry: dict[str, Any]) -> None:
        """Record a fresh pass-1 entry (replaces any stale one)."""
        self.files[src_rel] = entry

    def prune(self, live: set[str]) -> None:
        """Drop entries for files that no longer exist."""
        for src_rel in list(self.files):
            if src_rel not in live:
                del self.files[src_rel]

    # -- whole-tree global-pass entry ---------------------------------

    def global_hit(self, fingerprint: str) -> bool:
        """Whether the cached global findings are still valid."""
        return bool(
            fingerprint and fingerprint == self.global_fingerprint
        )

    def store_global(
        self, fingerprint: str, findings: list[dict[str, Any]]
    ) -> None:
        """Record the global-rule findings for the current tree."""
        self.global_fingerprint = fingerprint
        self.global_findings = findings

    def save(self) -> None:
        """Atomically persist the cache next to the repo root."""
        payload = {
            "version": CACHE_VERSION,
            "ruleset": self.ruleset,
            "global_fingerprint": self.global_fingerprint,
            "global_findings": self.global_findings,
            "files": self.files,
        }
        tmp = self.path.with_suffix(".tmp")
        try:
            tmp.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
            tmp.replace(self.path)
        except OSError:
            # cache is best-effort: a read-only checkout still lints
            try:
                tmp.unlink()
            except OSError:
                pass


def tree_fingerprint(
    file_digests: dict[str, str], external: list[tuple[str, str]]
) -> str:
    """Fingerprint for the global-pass cache entry.

    Combines every source file's content hash with the content hashes
    of the *external* inputs the global rules read (README, docs, test
    files, examples, benchmarks) so that e.g. deleting a verb's doc
    mention invalidates the cached RL008 verdict, or an example's last
    use of a def the cached RL010 verdict, even though no ``src/`` file
    changed.
    """
    digest = hashlib.sha256()
    for src_rel in sorted(file_digests):
        digest.update(src_rel.encode("utf-8"))
        digest.update(file_digests[src_rel].encode("utf-8"))
    for name, value in sorted(external):
        digest.update(name.encode("utf-8"))
        digest.update(value.encode("utf-8"))
    return digest.hexdigest()
