"""The reprolint rule registry: ten domain rules for the RTR stack.

Each rule is a class with an ``id`` (``RL001``..), a ``scope`` (path
prefixes under the scanned source root; empty means the whole tree)
and a ``local`` flag that picks its engine hook:

* **local rules** (``local = True``) see one parsed file at a time via
  ``check_module(mod, program)`` — their findings are a pure function
  of that file's bytes, so the incremental cache stores them per file;
* **global rules** (``local = False``) see the whole program at once
  via ``check_program(program)`` — the symbol table, call graph and
  taint analyses of :mod:`reprolint.callgraph` / :mod:`reprolint.taint`
  are available, and their findings are cached behind a whole-tree
  fingerprint.

The rules encode the contracts the reproduction's claims rest on:

* **RL001 determinism** — simulation/model/runtime code must not read
  wall clocks or unseeded RNGs, *directly or through any helper it
  calls*; randomness flows through ``resolve_rng`` and wall time
  through the injectable ``Watchdog.clock``.
* **RL002 float-equality** — model/analysis code must not compare
  float-valued expressions with ``==``/``!=``; every comparand pair of
  a chained comparison is checked, and walrus bindings are seen
  through.
* **RL003 fork-safety** — nothing reachable from a
  ``Process(target=...)`` fork worker may mutate module-level state:
  after ``fork`` such writes land in the child's copy-on-write pages,
  invisible to the parent and sibling shards.
* **RL004 metrics-catalog conformance** — every ``counter``/``gauge``/
  ``histogram`` name literal must be declared in
  ``repro.obs.metrics.CATALOG``, and every catalog entry must be
  emitted somewhere.
* **RL005 journal-bypass** — nothing outside ``runtime/journal.py``
  may open a ``journal*.jsonl`` path for writing, and nothing else in
  ``runtime/`` may rename or unlink a file (each needs the directory
  fsync that ``runtime/journal.py`` adds).
* **RL006 invariant-registry drift** — the invariant names registered
  in ``runtime/invariants.py`` and the table in ``docs/MODEL.md`` must
  stay in bijection.
* **RL007 audit-coverage** — every public entry point that returns or
  constructs a ``RunResult`` must reach an ``audit_*`` invariant check
  on every non-exception path (directly or through a guaranteed call
  into an audited runner).
* **RL008 CLI-surface conformance** — every ``repro`` verb is
  registered, documented in README/docs and referenced by at least one
  test; docs may not advertise verbs that do not exist.
* **RL009 frozen-config mutation** — no attribute writes on frozen
  spec dataclass instances outside their constructors; derive new
  configurations with ``dataclasses.replace``.
* **RL010 unreached-code** — every module-level function and class is
  reached from an entry point (``cli.main``, a module body, an example
  or a benchmark); code only tests reach is dead weight.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from .callgraph import FnNode
from .symbols import (
    BANNED_CLOCKS,
    ModuleFacts,
    collect_facts,
    dotted_name,
    receiver_root,
)
from .taint import (
    closure_chain,
    determinism_taint,
    fork_closures,
    taint_chain,
)

if TYPE_CHECKING:  # pragma: no cover - circular-import guard
    from .engine import Finding, Project, SourceModule

__all__ = [
    "RULES",
    "Rule",
    "DeterminismRule",
    "FloatEqualityRule",
    "ForkSafetyRule",
    "MetricsCatalogRule",
    "JournalBypassRule",
    "InvariantDriftRule",
    "AuditCoverageRule",
    "CliConformanceRule",
    "FrozenMutationRule",
    "UnreachedCodeRule",
    "all_rules",
    "dotted_name",
    "receiver_root",
]


class Rule:
    """Base rule: metadata plus the two engine hooks."""

    id = "RL000"
    title = ""
    rationale = ""
    example = ""
    #: path prefixes (relative to the scanned source root) this rule
    #: applies to; empty tuple means every file
    scope: tuple[str, ...] = ()
    #: True for per-file AST rules (cacheable per file), False for
    #: whole-program rules (cacheable per tree fingerprint)
    local = False

    def applies(self, mod: Any) -> bool:
        """Whether a module (anything with ``src_rel``) is in scope."""
        return not self.scope or mod.src_rel.startswith(self.scope)

    def check_module(
        self, mod: "SourceModule", program: "Project"
    ) -> Iterable["Finding"]:
        """Per-file findings (local rules only)."""
        return ()

    def check_program(self, program: "Project") -> Iterable["Finding"]:
        """Whole-program findings (global rules only)."""
        return ()


# -- RL001 -----------------------------------------------------------------


class DeterminismRule(Rule):
    """No wall clocks or unseeded RNGs reachable from deterministic code."""

    id = "RL001"
    title = "determinism: no wall-clock or unseeded-RNG calls"
    rationale = (
        "sim/, rtr/, model/, runtime/, service/, chaos/ and power/ "
        "must be bit-reproducible; wall time is injected via "
        "Watchdog.clock and randomness via resolve_rng, never read "
        "ambiently — not even through a helper two calls away"
    )
    example = "t0 = time.time()   # RL001: inject a clock instead"
    scope = (
        "sim/", "rtr/", "model/", "runtime/", "service/", "chaos/",
        "power/",
    )

    #: fully resolved call targets that read the wall clock
    BANNED_CLOCKS = BANNED_CLOCKS

    def _message(self, resolved: str) -> str:
        if resolved in self.BANNED_CLOCKS:
            return (
                f"wall-clock call {resolved}() in deterministic code; "
                "inject a clock (Watchdog.clock) instead"
            )
        if resolved == "random" or resolved.startswith("random."):
            return (
                f"stdlib RNG call {resolved}() in deterministic code; "
                "route randomness through resolve_rng"
            )
        return (
            f"direct numpy RNG construction {resolved}() outside "
            "resolve_rng; pass a seed or Generator through "
            "resolve_rng instead"
        )

    def check_program(self, program: "Project") -> Iterator["Finding"]:
        symbols = program.symbols
        graph = program.graph

        def scoped(src_rel: str) -> bool:
            return src_rel.startswith(self.scope)

        # direct sinks in scoped files (the per-file rule of PR 5)
        for mod in symbols.modules:
            if not scoped(mod.src_rel):
                continue
            for fn in mod.functions.values():
                for sink in fn.sinks:
                    if sink.exempt:
                        continue
                    yield program.finding(
                        mod, self.id, sink.line,
                        self._message(sink.resolved),
                    )

        # call sites in scoped files whose (out-of-scope) target
        # transitively reaches a sink — invisible to a per-file pass
        tainted = determinism_taint(symbols, graph, scoped)
        seen: set[tuple[str, int, FnNode]] = set()
        for mod in symbols.modules:
            if not scoped(mod.src_rel):
                continue
            for fn in mod.functions.values():
                for call in fn.calls:
                    for target in graph.resolve(mod, fn, call):
                        info = tainted.get(target)
                        if info is None:
                            continue
                        tmod = symbols.module_of(target)
                        if tmod is None or scoped(tmod.src_rel):
                            # in-scope targets are flagged at their
                            # own sink line, not at every call site
                            continue
                        key = (mod.rel, call.line, target)
                        if key in seen:
                            continue
                        seen.add(key)
                        chain = taint_chain(symbols, tainted, target)
                        yield program.finding(
                            mod, self.id, call.line,
                            f"call to {symbols.display(target)}() in "
                            "deterministic code transitively reaches "
                            f"{info.sink}() ({chain}); inject a clock "
                            "or route randomness through resolve_rng "
                            "at the call boundary",
                        )


# -- RL002 -----------------------------------------------------------------


class FloatEqualityRule(Rule):
    """No ``==``/``!=`` between float-valued expressions."""

    id = "RL002"
    title = "float-equality: no ==/!= on float-valued expressions"
    rationale = (
        "the model and its validation compare computed ratios and "
        "times; exact equality on derived floats is a latent "
        "platform/optimization hazard — use math.isclose or a pinned "
        "tolerance (integer-literal sentinels like `cv == 0` stay "
        "exact and are allowed)"
    )
    example = "if speedup == t_frtr / t_prtr:   # RL002: use math.isclose"
    scope = ("model/", "analysis/")
    local = True

    _FLOAT_CALLS = ("float",)
    _MATH_EXACT = frozenset(
        {
            "math.floor",
            "math.ceil",
            "math.trunc",
            "math.gcd",
            "math.isqrt",
            "math.comb",
            "math.perm",
            "math.factorial",
            "math.isclose",
            "math.isnan",
            "math.isinf",
            "math.isfinite",
        }
    )

    def _floaty(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.NamedExpr):
            # (x := t / n) == y compares the bound float value
            return self._floaty(node.value)
        if isinstance(node, ast.UnaryOp):
            return self._floaty(node.operand)
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Div):
                return True
            return self._floaty(node.left) or self._floaty(node.right)
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in self._FLOAT_CALLS:
                return True
            if (
                dotted
                and dotted.startswith("math.")
                and dotted not in self._MATH_EXACT
            ):
                return True
        return False

    def check_module(
        self, mod: "SourceModule", program: "Project"
    ) -> Iterator["Finding"]:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Compare):
                continue
            # chained comparisons are checked pairwise: in
            # `a == b < c / 2.0` only the (a, b) pair uses ==, so the
            # float-valued (b, c/2.0) pair must not trip the rule —
            # and `x < y == t / n` must (the == pair is float-valued)
            sides = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._floaty(sides[i]) or self._floaty(sides[i + 1]):
                    yield mod.finding(
                        self.id,
                        node,
                        "float-valued expression compared with ==/!=; "
                        "use math.isclose(...) or a pinned tolerance",
                    )
                    break


# -- RL003 -----------------------------------------------------------------


class ForkSafetyRule(Rule):
    """Nothing reachable from a fork worker mutates module state."""

    id = "RL003"
    title = "fork-safety: no module-state mutation in fork workers"
    rationale = (
        "after fork, writes to module globals land in the child's "
        "copy-on-write pages — invisible to the parent and sibling "
        "shards, so results silently diverge from the serial walk; "
        "the whole-program pass follows the worker's call graph, so a "
        "mutation three helpers deep is as visible as one in the body"
    )
    example = "def worker(shard):\n    CACHE[shard] = ...   # RL003"

    def check_program(self, program: "Project") -> Iterator["Finding"]:
        symbols = program.symbols
        graph = program.graph
        emitted: set[tuple[str, int, str, str]] = set()
        for closure in fork_closures(symbols, graph):
            worker = closure.worker_name
            for node in closure.parents:
                fn = symbols.function(node)
                mod = symbols.module_of(node)
                if fn is None or mod is None:
                    continue
                direct = node == closure.worker
                chain = (
                    "" if direct
                    else closure_chain(symbols, closure, node)
                )
                for mut in fn.mutations:
                    key = (mod.rel, mut.line, mut.kind, mut.root)
                    if key in emitted:
                        continue
                    emitted.add(key)
                    yield program.finding(
                        mod, self.id, mut.line,
                        self._message(mut, fn.name, worker, chain),
                    )

    @staticmethod
    def _message(mut: Any, fn_name: str, worker: str, chain: str) -> str:
        """Finding text; the direct form matches the PR 5 rule."""
        if chain:
            where = (
                f"inside {fn_name!r}, reached from fork worker "
                f"{worker!r} ({chain})"
            )
        else:
            where = f"inside fork worker {worker!r}"
        if mut.kind == "global":
            return (
                f"`global {mut.detail}` {where}: rebinding module "
                "state in a forked child never reaches the parent or "
                "sibling shards"
            )
        if mut.kind == "assign":
            return (
                f"assignment to module-level state {mut.root!r} "
                f"{where}: the write is private to the forked child "
                "(copy-on-write) and breaks serial-vs-parallel "
                "identity"
            )
        if mut.kind == "delete":
            return f"deletion from module-level state {mut.root!r} {where}"
        return (
            f"mutating call .{mut.detail}() on module-level state "
            f"{mut.root!r} {where}: the mutation is private to the "
            "forked child and invisible to the parent and sibling "
            "shards"
        )


# -- RL004 -----------------------------------------------------------------


class MetricsCatalogRule(Rule):
    """Metric names used and declared must coincide with CATALOG."""

    id = "RL004"
    title = "metrics-catalog: instrument names match obs.metrics.CATALOG"
    rationale = (
        "the catalog is closed — an undeclared name raises at runtime "
        "only on an instrumented run, so the linter catches it on "
        "every run; a declared-but-never-emitted metric is doc drift"
    )
    example = 'obsm.counter("repro_typo_total").inc()   # RL004'

    CATALOG_MODULE = "obs/metrics.py"

    def check_program(self, program: "Project") -> Iterator["Finding"]:
        catalog_mod = program.module(self.CATALOG_MODULE)
        if catalog_mod is None or not catalog_mod.metric_specs:
            return
        catalog = {
            spec.value: spec.line for spec in catalog_mod.metric_specs
        }
        referenced: set[str] = set()
        for mod in program.modules:
            if mod.src_rel == self.CATALOG_MODULE:
                continue
            for use in mod.metric_uses:
                if use.value in catalog:
                    referenced.add(use.value)
                else:
                    yield program.finding(
                        mod, self.id, use.line,
                        f"metric name {use.value!r} is not declared in "
                        "repro.obs.metrics.CATALOG (closed catalog: "
                        "add a MetricSpec and a docs/OBSERVABILITY.md "
                        "row)",
                    )
        for metric, line in sorted(catalog.items()):
            if metric not in referenced:
                yield program.finding(
                    catalog_mod, self.id, line,
                    f"catalog entry {metric!r} is never emitted by any "
                    "scanned module; drop the MetricSpec or instrument "
                    "the source it documents",
                )


# -- RL005 -----------------------------------------------------------------


class JournalBypassRule(Rule):
    """Journal files are written only through runtime/journal.py, and
    runtime/ renames and unlinks only there."""

    id = "RL005"
    title = (
        "journal-bypass: journal*.jsonl written, and runtime/ files "
        "renamed or unlinked, only via runtime/journal.py"
    )
    rationale = (
        "the crash-safety contract (append-only, one fsync per point, "
        "torn-tail clipping, byte-identical serial-vs-sharded merge, a "
        "directory fsync after every rename and unlink) holds only if "
        "every write goes through repro.runtime.journal"
    )
    example = 'open(f"{d}/journal.jsonl", "a")   # RL005: use RunJournal'
    local = True

    OWNER_MODULE = "runtime/journal.py"
    _JOURNAL_RE = re.compile(r"journal[-\w.{}]*\.jsonl")
    _WRITE_FUNCS = frozenset({"os.write", "os.truncate", "os.ftruncate"})
    _NAMESPACE_FUNCS = frozenset(
        {"os.replace", "os.rename", "os.remove", "os.unlink"}
    )

    def _journalish(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if self._JOURNAL_RE.search(sub.value):
                    return True
            elif isinstance(sub, ast.JoinedStr):
                text = "".join(
                    part.value
                    for part in sub.values
                    if isinstance(part, ast.Constant)
                    and isinstance(part.value, str)
                )
                if self._JOURNAL_RE.search(text):
                    return True
            elif isinstance(sub, ast.Name) and sub.id == "JOURNAL_NAME":
                return True
            elif isinstance(sub, ast.Call):
                dotted = dotted_name(sub.func) or ""
                if dotted.split(".")[-1] == "segment_name":
                    return True
        return False

    @staticmethod
    def _write_mode(node: ast.Call) -> bool:
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if mode is None:
            return False  # default "r": reads are allowed everywhere
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(c in mode.value for c in "awx+")
        return True  # dynamic mode on a journal path: assume the worst

    def check_module(
        self, mod: "SourceModule", program: "Project"
    ) -> Iterator["Finding"]:
        if mod.src_rel == self.OWNER_MODULE:
            return
        in_runtime = mod.src_rel.startswith("runtime/")
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func) or ""
            tail = dotted.split(".")[-1]
            if in_runtime and dotted in self._NAMESPACE_FUNCS:
                yield mod.finding(
                    self.id,
                    node,
                    f"{dotted}() in runtime/ outside runtime/journal.py "
                    "skips the directory fsync that makes it durable; "
                    "use RunJournal.remove_segments or atomic_write_text",
                )
                continue
            if not self._journalish(node):
                continue
            if (
                tail == "open" and self._write_mode(node)
            ) or tail == "write_text":
                yield mod.finding(
                    self.id,
                    node,
                    "journal file opened for writing outside "
                    "runtime/journal.py; all journal bytes must go "
                    "through RunJournal (append-only + fsync contract)",
                )
            elif dotted in self._WRITE_FUNCS:
                yield mod.finding(
                    self.id,
                    node,
                    f"{dotted}() on a journal path outside "
                    "runtime/journal.py; use RunJournal",
                )


# -- RL006 -----------------------------------------------------------------


class InvariantDriftRule(Rule):
    """INVARIANTS registry and the MODEL.md table stay in bijection."""

    id = "RL006"
    title = "invariant-drift: INVARIANTS registry == MODEL.md table"
    rationale = (
        "docs/MODEL.md renders the invariant catalog; a check that is "
        "registered but undocumented (or documented but unregistered) "
        "means the audited contract and the written contract disagree"
    )
    example = '"new-check": "..."   # RL006 until MODEL.md gains the row'

    REGISTRY_MODULE = "runtime/invariants.py"
    DOC = "docs/MODEL.md"
    _HEADER_RE = re.compile(r"^\|\s*invariant\s*\|", re.IGNORECASE)
    _ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")

    def _doc_rows(self, program: "Project") -> dict[str, int] | None:
        path = program.doc_path(self.DOC)
        if not path.exists():
            return None
        rows: dict[str, int] = {}
        in_table = False
        for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            if self._HEADER_RE.match(line.strip()):
                in_table = True
                continue
            if not in_table:
                continue
            stripped = line.strip()
            if not stripped.startswith("|"):
                in_table = False
                continue
            match = self._ROW_RE.match(stripped)
            if match and not set(match.group(1)) <= {"-", " "}:
                rows[match.group(1)] = lineno
        return rows if rows else None

    def check_program(self, program: "Project") -> Iterator["Finding"]:
        mod = program.module(self.REGISTRY_MODULE)
        rows = self._doc_rows(program)
        if mod is None or not mod.invariant_keys or rows is None:
            return
        names = {key.value: key.line for key in mod.invariant_keys}
        for name, line in sorted(names.items()):
            if name not in rows:
                yield program.finding(
                    mod, self.id, line,
                    f"invariant {name!r} is registered but missing from "
                    f"the {self.DOC} invariant table",
                )
        from .engine import Finding

        doc_rel = program.doc_rel(self.DOC)
        for name, line in sorted(rows.items()):
            if name not in names:
                yield Finding(
                    rule=self.id,
                    path=doc_rel,
                    line=line,
                    message=(
                        f"{self.DOC} documents invariant {name!r} which "
                        "is not registered in "
                        "repro.runtime.invariants.INVARIANTS"
                    ),
                    context=name,
                )


# -- RL007 -----------------------------------------------------------------


class AuditCoverageRule(Rule):
    """Public RunResult producers must reach an ``audit_*`` check."""

    id = "RL007"
    title = "audit-coverage: RunResult producers reach an invariant audit"
    rationale = (
        "a RunResult that escapes without audit_and_record (or another "
        "audit_* check) on every non-exception path is an unverified "
        "claim — the invariant registry only defends results that flow "
        "through it; delegating to an audited runner counts because "
        "the analysis follows guaranteed calls through the call graph"
    )
    example = (
        "def run_variant(trace) -> RunResult:\n"
        "    return _collect(trace)   # RL007: no audit on this path"
    )

    RESULT_CLASS = "RunResult"
    AUDITOR_MODULE = "runtime/invariants.py"
    AUDIT_PREFIX = "audit"

    def _auditor_nodes(self, program: "Project") -> set[FnNode]:
        nodes: set[FnNode] = set()
        for mod in program.modules:
            if not self._is_auditor_module(mod.src_rel):
                continue
            for qual, fn in mod.functions.items():
                if fn.name.startswith(self.AUDIT_PREFIX):
                    nodes.add(FnNode(mod.src_rel, qual))
        return nodes

    def _is_auditor_module(self, src_rel: str) -> bool:
        return src_rel == self.AUDITOR_MODULE or src_rel.endswith(
            "/" + self.AUDITOR_MODULE
        )

    def _produces_result(
        self, program: "Project", mod: Any, fn: Any, owners: set[str]
    ) -> bool:
        """Whether ``fn`` returns or constructs the result class."""
        symbols = program.symbols
        candidates = []
        if fn.returns and fn.returns.split(".")[-1] == self.RESULT_CLASS:
            candidates.append(fn.returns)
        for call in fn.calls:
            if (
                call.kind == "name"
                and call.target.split(".")[-1] == self.RESULT_CLASS
            ):
                candidates.append(call.target)
        for raw in candidates:
            resolved = symbols.resolve_class(mod, raw)
            if (
                resolved is not None
                and resolved[1].name == self.RESULT_CLASS
                and resolved[0].src_rel in owners
            ):
                return True
        return False

    def check_program(self, program: "Project") -> Iterator["Finding"]:
        symbols = program.symbols
        graph = program.graph
        owners = {
            mod.src_rel
            for mod in program.modules
            if self.RESULT_CLASS in mod.classes
        }
        auditors = self._auditor_nodes(program)
        if not owners or not auditors:
            return

        # "audits" fixed point over *guaranteed* call edges: a
        # function audits iff it always-calls an auditor or another
        # auditing function on every non-exception path
        always: dict[FnNode, list[FnNode]] = {}
        for caller, out in graph.edges.items():
            targets = [callee for callee, fact in out if fact.always]
            if targets:
                always[caller] = targets
        audits = set(auditors)
        changed = True
        while changed:
            changed = False
            for caller, targets in always.items():
                if caller not in audits and any(
                    t in audits for t in targets
                ):
                    audits.add(caller)
                    changed = True

        for mod in program.modules:
            if mod.src_rel in owners or self._is_auditor_module(
                mod.src_rel
            ):
                continue
            for fn in mod.functions.values():
                if not fn.public:
                    continue
                if not self._produces_result(program, mod, fn, owners):
                    continue
                if FnNode(mod.src_rel, fn.qual) in audits:
                    continue
                yield program.finding(
                    mod, self.id, fn.line,
                    f"public entry point {fn.qual!r} returns/constructs "
                    f"{self.RESULT_CLASS} but no audit_* invariant "
                    "check is guaranteed on its non-exception paths; "
                    "call audit_and_record(result) (or delegate to an "
                    "audited runner) before returning",
                )


# -- RL008 -----------------------------------------------------------------


class CliConformanceRule(Rule):
    """CLI verbs, their docs and their tests stay in agreement."""

    id = "RL008"
    title = "cli-surface: every repro verb is registered, documented, tested"
    rationale = (
        "the _COMMANDS dispatch table is the CLI's public surface: a "
        "verb without an add_parser registration crashes at dispatch, "
        "an undocumented verb is invisible to users, an untested verb "
        "regresses silently, and a doc mention of a removed verb is a "
        "broken promise — all four directions are checked"
    )
    example = (
        '"fig12": _cmd_fig12,   # RL008 until README and a test know it'
    )

    _DOC_VERB_RE = re.compile(r"python -m repro ([a-z][a-z0-9-]*)")

    def check_program(self, program: "Project") -> Iterator["Finding"]:
        cli_mods = [m for m in program.modules if m.command_keys]
        if not cli_mods:
            return
        docs = program.doc_files()
        tests = program.test_files()
        doc_blob = "\n".join(text for _, text in docs)
        test_blob = "\n".join(text for _, text in tests)
        known: set[str] = set()
        for mod in cli_mods:
            verbs: dict[str, int] = {}
            for fact in mod.command_keys:
                verbs.setdefault(fact.value, fact.line)
            known.update(verbs)
            registered = {fact.value for fact in mod.parser_verbs}
            if registered:
                for verb, line in sorted(verbs.items()):
                    if verb not in registered:
                        yield program.finding(
                            mod, self.id, line,
                            f"CLI verb {verb!r} is dispatched by "
                            "_COMMANDS but never registered via "
                            "add_parser(...); it cannot be parsed",
                        )
                for fact in mod.parser_verbs:
                    if fact.value not in verbs:
                        yield program.finding(
                            mod, self.id, fact.line,
                            f"subparser {fact.value!r} is registered "
                            "but missing from the _COMMANDS dispatch "
                            "table; parsing it crashes at dispatch",
                        )
            if docs:
                for verb, line in sorted(verbs.items()):
                    pattern = (
                        rf"(?<![\w-]){re.escape(verb)}(?![\w-])"
                    )
                    if not re.search(pattern, doc_blob):
                        yield program.finding(
                            mod, self.id, line,
                            f"CLI verb {verb!r} is undocumented: no "
                            "mention in README.md or docs/*.md",
                        )
            if tests:
                for verb, line in sorted(verbs.items()):
                    if (
                        f'"{verb}"' not in test_blob
                        and f"'{verb}'" not in test_blob
                    ):
                        yield program.finding(
                            mod, self.id, line,
                            f"CLI verb {verb!r} is untested: no tests/ "
                            "file references it as a string literal",
                        )
        if not known:
            return
        from .engine import Finding

        for rel, text in docs:
            for lineno, line in enumerate(text.splitlines(), start=1):
                for match in self._DOC_VERB_RE.finditer(line):
                    verb = match.group(1)
                    if verb not in known:
                        yield Finding(
                            rule=self.id,
                            path=rel,
                            line=lineno,
                            message=(
                                f"documentation advertises repro verb "
                                f"{verb!r} which is not in the "
                                "_COMMANDS dispatch table"
                            ),
                            context=verb,
                        )


# -- RL009 -----------------------------------------------------------------


class FrozenMutationRule(Rule):
    """No attribute writes on frozen spec dataclasses post-construction."""

    id = "RL009"
    title = "frozen-config: no attribute writes on frozen spec instances"
    rationale = (
        "experiment specs are @dataclass(frozen=True) so a run's "
        "configuration is immutable once audited; object.__setattr__ "
        "is sanctioned only inside __init__/__post_init__/__setstate__ "
        "and *replace* helpers — anywhere else it silently invalidates "
        "the recorded configuration (derive a new spec with "
        "dataclasses.replace instead)"
    )
    example = (
        'object.__setattr__(spec, "n_ops", 2)   # RL009: use replace()'
    )

    def check_program(self, program: "Project") -> Iterator["Finding"]:
        symbols = program.symbols
        for mod in program.modules:
            for fn in mod.functions.values():
                for write in fn.frozen_writes:
                    if write.sanctioned:
                        continue
                    resolved = symbols.resolve_class(mod, write.cls)
                    if resolved is None or not resolved[1].frozen:
                        continue
                    cls_name = resolved[1].name
                    if write.via == "assign":
                        message = (
                            f"assignment to {cls_name}.{write.attr} on "
                            f"a frozen spec instance: {cls_name} is "
                            "@dataclass(frozen=True); derive a new "
                            "instance with dataclasses.replace(...) "
                            "instead"
                        )
                    else:
                        message = (
                            f"{write.via}(...) writes "
                            f"{cls_name}.{write.attr} outside a "
                            f"constructor: {cls_name} is "
                            "@dataclass(frozen=True) and this bypasses "
                            "its immutability; derive a new instance "
                            "with dataclasses.replace(...) instead"
                        )
                    yield program.finding(
                        mod, self.id, write.line, message
                    )


# -- RL010 -----------------------------------------------------------------


class UnreachedCodeRule(Rule):
    """Every module-level def is reached from an entry point."""

    id = "RL010"
    title = "unreached-code: every def is reached from an entry point"
    rationale = (
        "the reproduction keeps only what a CLI verb, a module body, an "
        "example or a benchmark reaches; a def only tests reach is "
        "surface with no paper artifact behind it — delete it, or "
        "suppress it naming the test that uses it as an oracle.  Reach "
        "follows every name read (calls, callbacks, registries, "
        "isinstance/except), never re-exports or tests"
    )
    example = "def legacy_loader(path):   # RL010: only tests call it"

    #: ``(module path, function)`` entry points besides module bodies
    ENTRY_POINTS = (("cli.py", "main"),)
    _DOTTED_RE = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

    def check_program(self, program: "Project") -> Iterator["Finding"]:
        symbols = program.symbols
        if not any(
            program.module(path) is not None
            for path in ("cli.py", "__main__.py")
        ):
            return  # a library fragment has no entry point to reach from
        roots = [
            FnNode(mod.src_rel, "<module>") for mod in symbols.modules
        ]
        roots += [
            FnNode(path, name)
            for path, name in self.ENTRY_POINTS
            if program.module(path) is not None
        ]
        for rel, text in program.reacher_files():
            roots += self._reacher_roots(symbols, rel, text)
        reached = self._closure(symbols, roots)

        defs = [
            (mod, kind, name, line)
            for mod in symbols.modules
            for kind, name, line in [
                *(("class", c.name, c.line) for c in mod.classes.values()),
                *(
                    ("function", fn.name, fn.line)
                    for fn in mod.functions.values()
                    if "." not in fn.qual and fn.qual != "<module>"
                ),
            ]
            if not (name.startswith("__") and name.endswith("__"))
            and FnNode(mod.src_rel, name) not in reached
        ]
        # a def kept as a test oracle keeps alive what it reads
        oracles = {
            FnNode(mod.src_rel, name)
            for mod, _kind, name, line in defs
            if mod.suppressed(self.id, line)
        }
        kept = self._closure(symbols, oracles) - oracles
        for mod, kind, name, line in defs:
            if FnNode(mod.src_rel, name) in kept:
                continue
            yield program.finding(
                mod, self.id, line,
                f"{kind} {name!r} is reached from no CLI verb, module "
                "body, example or benchmark; delete it with its tests, "
                "or suppress it naming the test that uses it as an oracle",
            )

    def _closure(
        self, symbols: Any, roots: Iterable[FnNode]
    ) -> set[FnNode]:
        """Every top-level def (and module body) the roots read."""
        reached: set[FnNode] = set()
        frontier = list(roots)
        while frontier:
            node = frontier.pop()
            if node in reached:
                continue
            reached.add(node)
            mod = symbols.by_src_rel[node.src_rel]
            for dotted in mod.refs.get(node.qual, ()):
                frontier.extend(self._targets(symbols, mod, dotted))
        return reached

    @staticmethod
    def _qualified(mod: ModuleFacts, dotted: str) -> str | None:
        """``dotted`` as read in ``mod``, spelled from its import origin."""
        root, _, rest = dotted.partition(".")
        origin = mod.imports.get(root)
        if origin is None:
            return None
        return f"{origin}.{rest}" if rest else origin

    def _targets(
        self, symbols: Any, mod: ModuleFacts, dotted: str
    ) -> list[FnNode]:
        """The top-level defs a name read in ``mod`` may land in."""
        root = dotted.partition(".")[0]
        out: list[FnNode] = []
        if root in mod.classes or root in mod.functions:
            out.append(FnNode(mod.src_rel, root))
        qualified = self._qualified(mod, dotted)
        found = symbols.top_level_def(qualified) if qualified else None
        if found is not None:
            out.append(found)
        return out

    def _reacher_roots(
        self, symbols: Any, rel: str, text: str
    ) -> list[FnNode]:
        """Defs an example/benchmark file imports, reads or spells."""
        try:
            tree = ast.parse(text)
        except SyntaxError:
            return []
        facts = collect_facts(
            tree, src_rel=rel, rel=rel, module="", suppressions={}
        )
        names = [*facts.imports.values(), *self._spelled(tree)]
        for reads in facts.refs.values():
            names += filter(None, (self._qualified(facts, d) for d in reads))
        found = (symbols.top_level_def(name) for name in names)
        return [node for node in found if node is not None]

    def _spelled(self, tree: ast.AST) -> Iterator[str]:
        """Dotted strings, and ``("pkg.module", "Cls.attr", ...)`` rows."""

        def text(node: ast.AST) -> str | None:
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                return node.value
            return None

        for node in ast.walk(tree):
            spelled = text(node)
            if isinstance(node, (ast.Tuple, ast.List)) and len(
                node.elts
            ) >= 2:
                head, attr = (text(e) for e in node.elts[:2])
                spelled = f"{head}.{attr}" if head and attr else None
            if spelled and self._DOTTED_RE.fullmatch(spelled):
                yield spelled


RULES: tuple[type[Rule], ...] = (
    DeterminismRule,
    FloatEqualityRule,
    ForkSafetyRule,
    MetricsCatalogRule,
    JournalBypassRule,
    InvariantDriftRule,
    AuditCoverageRule,
    CliConformanceRule,
    FrozenMutationRule,
    UnreachedCodeRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    return [cls() for cls in RULES]
