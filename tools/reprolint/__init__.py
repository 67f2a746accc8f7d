"""reprolint — whole-program domain linter for the repro codebase.

Ten rules enforce the contracts the reproduction's claims rest on:
determinism incl. interprocedural taint (RL001), float-equality
hygiene (RL002), fork-safety over the worker call graph (RL003),
metrics-catalog conformance (RL004), journal-bypass (RL005),
invariant-registry/doc agreement (RL006), RunResult audit coverage
(RL007), CLI-surface conformance (RL008), frozen-config mutation
(RL009) and unreached code (RL010).  The engine is two-pass: per-file
fact extraction (cached by content hash — a warm run re-parses zero
files) feeding whole-program graph rules, with SARIF 2.1.0 export for
code scanning.  See
``docs/STATIC_ANALYSIS.md`` for the rule table and suppression policy.

Run it as ``PYTHONPATH=tools python -m reprolint`` or through the CLI
as ``python -m repro lint``.
"""

from .engine import (
    BASELINE_NAME,
    CACHE_NAME,
    Finding,
    LintResult,
    Project,
    SourceModule,
    default_repo_root,
    load_baseline,
    main,
    run_lint,
    write_baseline,
)
from .rules import RULES, Rule, all_rules

__all__ = [
    "BASELINE_NAME",
    "CACHE_NAME",
    "Finding",
    "LintResult",
    "Project",
    "RULES",
    "Rule",
    "SourceModule",
    "all_rules",
    "default_repo_root",
    "load_baseline",
    "main",
    "run_lint",
    "write_baseline",
]
