"""Pass 1 of the whole-program analyzer: per-file fact extraction.

``reprolint`` v2 is a two-pass analyzer.  This module implements the
first pass: a single AST walk over one file that distills everything
any rule could later want into a JSON-serializable
:class:`ModuleFacts` summary — definitions, the import table, every
call site (with enough shape information to resolve it against other
modules), determinism sinks, module-state mutations, frozen-dataclass
writes, and the string literals the conformance rules care about
(metric names, invariant keys, CLI verbs).

Because facts are plain data, they can be cached on disk keyed by the
file's content hash (:mod:`reprolint.cache`): a warm run rebuilds the
whole-program view without re-parsing a single unchanged file.  The
second pass (:mod:`reprolint.callgraph` + :mod:`reprolint.taint` +
the graph rules in :mod:`reprolint.rules`) only ever consumes facts,
never raw ASTs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "BANNED_CLOCKS",
    "CallFact",
    "ClassFacts",
    "FrozenWriteFact",
    "FunctionFacts",
    "MUTATORS",
    "ModuleFacts",
    "MutationFact",
    "SinkFact",
    "StringFact",
    "bound_names",
    "collect_facts",
    "dotted_name",
    "receiver_root",
]

#: method names that mutate their receiver in this codebase (RL003)
MUTATORS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "clear", "remove", "discard", "sort",
        "reverse", "reset", "inc", "dec", "set", "observe", "record",
    }
)

#: fully resolved call targets that read the wall clock (RL001)
BANNED_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.clock",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

_MUTABLE_VALUES = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
    ast.SetComp, ast.Call,
)

#: function names sanctioned to write frozen-instance attributes (RL009)
_SANCTIONED_WRITERS = ("__init__", "__post_init__", "__setstate__")


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def receiver_root(node: ast.AST) -> str | None:
    """The root Name of an attribute/subscript/call chain, else None."""
    while True:
        if isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            break
    return node.id if isinstance(node, ast.Name) else None


def _loaded_names(node: ast.AST) -> Iterator[str]:
    """Every name ``node`` reads, each attribute chain once (``a.b.c``).

    A chain is yielded whole and not split into its prefixes; names
    that are only bound (``x = ...``) are skipped.  These are the reach
    edges of RL010: a def that is only passed, registered, matched in
    ``isinstance``/``except`` or annotated is still used.
    """
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted is not None:
            yield dotted
            return
    elif isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load):
            yield node.id
        return
    for child in ast.iter_child_nodes(node):
        yield from _loaded_names(child)


def _binding_names(target: ast.expr) -> Iterator[str]:
    """Names a target expression *binds* (``x[i] = ..`` binds none)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _binding_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def bound_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound inside a function (params, assigns, loops, defs)."""
    bound: set[str] = set()
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        bound.add(arg.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                bound.update(_binding_names(target))
        elif isinstance(node, (ast.For, ast.comprehension)):
            bound.update(_binding_names(node.target))
        elif isinstance(node, ast.withitem) and node.optional_vars:
            bound.update(_binding_names(node.optional_vars))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, ast.NamedExpr):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) and node is not fn:
            bound.add(node.name)
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            bound.difference_update(node.names)
    return bound


# -- fact records ----------------------------------------------------------


@dataclass
class CallFact:
    """One call site, shaped for later cross-module resolution.

    ``kind`` is how the callee was spelled: ``"name"`` for a plain
    dotted name (``foo()``, ``mod.foo()``, ``self.m()``), ``"chained"``
    for a method on a call result (``Cls(...).m()``), ``"inferred"``
    for a method on a local whose class was inferred from an
    assignment or annotation (``x = Cls(...); x.m()``).
    """

    kind: str
    target: str   # dotted callee (or the class, for chained/inferred)
    method: str   # method name for chained/inferred kinds, else ""
    line: int
    always: bool  # True if executed on every non-exception path

    def as_dict(self) -> dict[str, Any]:
        """JSON row for the facts cache."""
        return {
            "kind": self.kind, "target": self.target,
            "method": self.method, "line": self.line,
            "always": self.always,
        }


@dataclass
class SinkFact:
    """A direct wall-clock / unseeded-RNG call (RL001 taint source)."""

    resolved: str  # fully resolved dotted target, e.g. "time.time"
    line: int
    exempt: bool   # inside a resolve_rng definition — sanctioned

    def as_dict(self) -> dict[str, Any]:
        """JSON row for the facts cache."""
        return {
            "resolved": self.resolved, "line": self.line,
            "exempt": self.exempt,
        }


@dataclass
class MutationFact:
    """A write to module-level state (RL003 hazard when fork-reached)."""

    kind: str    # "global" | "assign" | "delete" | "mutcall"
    root: str    # the module-level name being written through
    detail: str  # global-names list / mutator method name
    line: int

    def as_dict(self) -> dict[str, Any]:
        """JSON row for the facts cache."""
        return {
            "kind": self.kind, "root": self.root,
            "detail": self.detail, "line": self.line,
        }


@dataclass
class FrozenWriteFact:
    """An attribute write that may target a frozen dataclass (RL009)."""

    cls: str       # raw dotted receiver class ("" never recorded)
    attr: str      # attribute being assigned
    via: str       # "assign" | "object.__setattr__" | "setattr"
    line: int
    sanctioned: bool  # in __init__/__post_init__/__setstate__/*replace*

    def as_dict(self) -> dict[str, Any]:
        """JSON row for the facts cache."""
        return {
            "cls": self.cls, "attr": self.attr, "via": self.via,
            "line": self.line, "sanctioned": self.sanctioned,
        }


@dataclass
class StringFact:
    """A string literal a conformance rule tracks (metric, verb, ...)."""

    value: str
    line: int

    def as_dict(self) -> dict[str, Any]:
        """JSON row for the facts cache."""
        return {"value": self.value, "line": self.line}


@dataclass
class FunctionFacts:
    """Summary of one function/method (or the ``<module>`` pseudo-fn)."""

    qual: str            # dotted path inside the module, e.g. "Cls.m"
    name: str
    line: int
    cls: str             # enclosing class name, "" at module level
    parent: str          # enclosing function qual, "" if top-level
    public: bool         # a plausible external entry point
    returns: str         # raw dotted return annotation, "" if none
    locals: set[str] = field(default_factory=set)
    calls: list[CallFact] = field(default_factory=list)
    sinks: list[SinkFact] = field(default_factory=list)
    mutations: list[MutationFact] = field(default_factory=list)
    frozen_writes: list[FrozenWriteFact] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """JSON row for the facts cache."""
        return {
            "qual": self.qual, "name": self.name, "line": self.line,
            "cls": self.cls, "parent": self.parent,
            "public": self.public, "returns": self.returns,
            "locals": sorted(self.locals),
            "calls": [c.as_dict() for c in self.calls],
            "sinks": [s.as_dict() for s in self.sinks],
            "mutations": [m.as_dict() for m in self.mutations],
            "frozen_writes": [w.as_dict() for w in self.frozen_writes],
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "FunctionFacts":
        """Rebuild from a cache row."""
        return cls(
            qual=row["qual"], name=row["name"], line=row["line"],
            cls=row["cls"], parent=row["parent"], public=row["public"],
            returns=row["returns"], locals=set(row["locals"]),
            calls=[CallFact(**c) for c in row["calls"]],
            sinks=[SinkFact(**s) for s in row["sinks"]],
            mutations=[MutationFact(**m) for m in row["mutations"]],
            frozen_writes=[
                FrozenWriteFact(**w) for w in row["frozen_writes"]
            ],
        )


@dataclass
class ClassFacts:
    """Summary of one class definition."""

    name: str
    line: int
    frozen: bool              # @dataclass(frozen=True)
    bases: list[str] = field(default_factory=list)  # raw dotted bases

    def as_dict(self) -> dict[str, Any]:
        """JSON row for the facts cache."""
        return {
            "name": self.name, "line": self.line,
            "frozen": self.frozen, "bases": list(self.bases),
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "ClassFacts":
        """Rebuild from a cache row."""
        return cls(**row)


@dataclass
class ModuleFacts:
    """Everything pass 2 knows about one source file."""

    src_rel: str              # path relative to the scanned source root
    rel: str                  # path relative to the repo root
    module: str               # dotted module name, e.g. "repro.sim.engine"
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    module_state: set[str] = field(default_factory=set)
    suppressions: dict[int, list[str]] = field(default_factory=dict)
    #: string-literal families used by the conformance rules
    metric_specs: list[StringFact] = field(default_factory=list)
    metric_uses: list[StringFact] = field(default_factory=list)
    invariant_keys: list[StringFact] = field(default_factory=list)
    command_keys: list[StringFact] = field(default_factory=list)
    parser_verbs: list[StringFact] = field(default_factory=list)
    #: (raw target name, enclosing function qual, line) per Process spawn
    worker_targets: list[tuple[str, str, int]] = field(default_factory=list)
    #: top-level def name (``"<module>"`` for the rest of the module
    #: body) -> the dotted names it reads (RL010)
    refs: dict[str, list[str]] = field(default_factory=dict)

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is disabled on physical line ``line``."""
        rules = self.suppressions.get(line)
        return rules is not None and (rule_id in rules or "ALL" in rules)

    def as_dict(self) -> dict[str, Any]:
        """JSON form for the facts cache."""
        return {
            "src_rel": self.src_rel, "rel": self.rel,
            "module": self.module, "imports": dict(self.imports),
            "functions": {
                q: f.as_dict() for q, f in self.functions.items()
            },
            "classes": {n: c.as_dict() for n, c in self.classes.items()},
            "module_state": sorted(self.module_state),
            "suppressions": {
                str(line): list(rules)
                for line, rules in self.suppressions.items()
            },
            "metric_specs": [s.as_dict() for s in self.metric_specs],
            "metric_uses": [s.as_dict() for s in self.metric_uses],
            "invariant_keys": [s.as_dict() for s in self.invariant_keys],
            "command_keys": [s.as_dict() for s in self.command_keys],
            "parser_verbs": [s.as_dict() for s in self.parser_verbs],
            "worker_targets": [list(w) for w in self.worker_targets],
            "refs": {o: list(names) for o, names in self.refs.items()},
        }

    @classmethod
    def from_dict(cls, row: dict[str, Any]) -> "ModuleFacts":
        """Rebuild from a cache row."""
        return cls(
            src_rel=row["src_rel"], rel=row["rel"], module=row["module"],
            imports=dict(row["imports"]),
            functions={
                q: FunctionFacts.from_dict(f)
                for q, f in row["functions"].items()
            },
            classes={
                n: ClassFacts.from_dict(c)
                for n, c in row["classes"].items()
            },
            module_state=set(row["module_state"]),
            suppressions={
                int(line): list(rules)
                for line, rules in row["suppressions"].items()
            },
            metric_specs=[StringFact(**s) for s in row["metric_specs"]],
            metric_uses=[StringFact(**s) for s in row["metric_uses"]],
            invariant_keys=[
                StringFact(**s) for s in row["invariant_keys"]
            ],
            command_keys=[StringFact(**s) for s in row["command_keys"]],
            parser_verbs=[StringFact(**s) for s in row["parser_verbs"]],
            worker_targets=[
                (w[0], w[1], w[2]) for w in row["worker_targets"]
            ],
            refs={
                owner: list(names) for owner, names in row["refs"].items()
            },
        )


# -- helpers ---------------------------------------------------------------


def _annotation_name(node: ast.expr | None) -> str:
    """Best-effort dotted name of a return/parameter annotation."""
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip()
    dotted = dotted_name(node)
    return dotted or ""


def _guaranteed_calls(body: list[ast.stmt]) -> set[str]:
    """Dotted call names executed on every non-exception path.

    Used by RL007's "all paths audit" check.  A call inside an ``if``
    counts only if every branch makes it; loop bodies never count
    (zero iterations is a path); ``try`` bodies count (exception paths
    are out of scope by the rule's definition).  Traversal stops at
    ``return``/``raise`` and never descends into nested definitions.
    """

    def calls_in_expr(node: ast.AST) -> set[str]:
        found: set[str] = set()
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            dotted = dotted_name(sub.func)
            if dotted:
                found.add(dotted)
            elif isinstance(sub.func, ast.Attribute) and isinstance(
                sub.func.value, ast.Call
            ):
                base = dotted_name(sub.func.value.func)
                if base:
                    # constructor-chained: Cls(...).m()
                    found.add(f"{base}().{sub.func.attr}")
        return found

    guaranteed: set[str] = set()
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        if isinstance(stmt, ast.If):
            guaranteed |= calls_in_expr(stmt.test)
            if stmt.orelse:
                guaranteed |= (
                    _guaranteed_calls(stmt.body)
                    & _guaranteed_calls(stmt.orelse)
                )
        elif isinstance(stmt, ast.Try):
            guaranteed |= _guaranteed_calls(stmt.body)
            guaranteed |= _guaranteed_calls(stmt.orelse)
            guaranteed |= _guaranteed_calls(stmt.finalbody)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            guaranteed |= calls_in_expr(stmt.iter)
            guaranteed |= _guaranteed_calls(stmt.orelse)
        elif isinstance(stmt, ast.While):
            guaranteed |= calls_in_expr(stmt.test)
            guaranteed |= _guaranteed_calls(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                guaranteed |= calls_in_expr(item.context_expr)
            guaranteed |= _guaranteed_calls(stmt.body)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                guaranteed |= calls_in_expr(stmt.value)
            break
        elif isinstance(stmt, ast.Raise):
            break
        else:
            guaranteed |= calls_in_expr(stmt)
    return guaranteed


def _infer_local_types(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, str]:
    """Local name -> raw dotted class, from assigns and annotations.

    Covers ``x = Cls(...)``, ``x: Cls = ...`` and annotated parameters
    — enough to resolve ``x.method()`` calls on project classes.
    Nested definitions are excluded (they infer their own tables).
    """
    table: dict[str, str] = {}
    args = fn.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        ann = _annotation_name(arg.annotation)
        if ann:
            table[arg.arg] = ann

    def walk(node: ast.AST) -> None:
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                continue
            if isinstance(sub, ast.Assign) and isinstance(
                sub.value, ast.Call
            ):
                callee = dotted_name(sub.value.func)
                if callee:
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            table[target.id] = callee
            elif isinstance(sub, ast.AnnAssign) and isinstance(
                sub.target, ast.Name
            ):
                ann = _annotation_name(sub.annotation)
                if ann:
                    table[sub.target.id] = ann
            walk(sub)

    walk(fn)
    return table


# -- collection ------------------------------------------------------------


@dataclass
class _Scope:
    """Traversal context: which function owns the facts being found."""

    fn: FunctionFacts
    cls: str                  # enclosing class name for *definitions*
    prefix: str               # qual prefix for nested definitions
    in_resolve_rng: bool
    guaranteed: set[str]
    inference: dict[str, str]


class _FactsCollector:
    """Single pruned walk that fills in a :class:`ModuleFacts`."""

    _METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram"})

    def __init__(self, tree: ast.Module, facts: ModuleFacts) -> None:
        self.tree = tree
        self.facts = facts
        self._collect_imports(tree)
        facts.module_state = self._module_state(tree)
        facts.module_state.update(facts.imports)

    # -- module-level tables ------------------------------------------

    def _collect_imports(self, tree: ast.Module) -> None:
        """Name -> dotted origin, for imports at *any* nesting depth."""
        table = self.facts.imports
        pkg_parts = self.facts.module.split(".")
        if self.facts.src_rel.split("/")[-1] != "__init__.py":
            pkg_parts = pkg_parts[:-1]  # a package anchors at itself
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        table[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    # "from ..x import y" resolved against our package
                    anchor = pkg_parts[: len(pkg_parts) - node.level + 1]
                    base = ".".join(anchor + ([base] if base else []))
                if not base:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}"

    def _module_state(self, tree: ast.Module) -> set[str]:
        """Module-level names bound to (potentially) mutable objects."""
        names: set[str] = set()
        for node in tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            if not isinstance(value, _MUTABLE_VALUES):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    # -- traversal ----------------------------------------------------

    def run(self) -> None:
        """Walk the module tree and fill in every fact family."""
        module_fn = FunctionFacts(
            qual="<module>", name="<module>", line=1, cls="", parent="",
            public=False, returns="",
        )
        self.facts.functions["<module>"] = module_fn
        scope = _Scope(
            fn=module_fn, cls="", prefix="", in_resolve_rng=False,
            guaranteed=set(), inference={},
        )
        for stmt in self.tree.body:
            self._visit(stmt, scope)
        self._collect_string_facts()
        self._collect_refs()

    def _visit(self, node: ast.AST, scope: _Scope) -> None:
        """Pruned recursive dispatch over statements and expressions."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._visit_function(node, scope)
            return
        if isinstance(node, ast.ClassDef):
            self._visit_class(node, scope)
            return
        self._record_stmt_facts(node, scope)
        if isinstance(node, ast.Call):
            self._record_call(node, scope)
        for child in ast.iter_child_nodes(node):
            self._visit(child, scope)

    def _visit_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        scope: _Scope,
    ) -> None:
        """Register a function/method and walk its body in a new scope."""
        at_top = scope.fn.qual == "<module>"
        qual = f"{scope.prefix}{node.name}"
        child = FunctionFacts(
            qual=qual,
            name=node.name,
            line=node.lineno,
            cls=scope.cls if at_top else "",
            parent="" if at_top else scope.fn.qual,
            public=(
                at_top
                and not node.name.startswith("_")
                and not scope.cls.startswith("_")
            ),
            returns=_annotation_name(node.returns),
            locals=bound_names(node),
        )
        self.facts.functions[qual] = child
        inner = _Scope(
            fn=child,
            cls=scope.cls if at_top else "",
            prefix=f"{qual}.",
            in_resolve_rng=(
                scope.in_resolve_rng or node.name == "resolve_rng"
            ),
            guaranteed=_guaranteed_calls(node.body),
            inference=_infer_local_types(node),
        )
        for deco in node.decorator_list:
            self._visit(deco, scope)
        for stmt in node.body:
            self._visit(stmt, inner)

    def _visit_class(self, node: ast.ClassDef, scope: _Scope) -> None:
        """Register a class; methods become ``Cls.meth`` functions."""
        at_top = scope.fn.qual == "<module>" and not scope.cls
        frozen = False
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) and dotted_name(deco.func) in (
                "dataclass", "dataclasses.dataclass",
            ):
                for kw in deco.keywords:
                    if (
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        frozen = True
            self._visit(deco, scope)
        if at_top:
            bases = [
                d for d in (dotted_name(b) for b in node.bases) if d
            ]
            self.facts.classes[node.name] = ClassFacts(
                name=node.name, line=node.lineno, frozen=frozen,
                bases=bases,
            )
        body_scope = _Scope(
            fn=scope.fn,
            cls=node.name if at_top else scope.cls,
            prefix=f"{node.name}." if at_top else scope.prefix,
            in_resolve_rng=scope.in_resolve_rng,
            guaranteed=scope.guaranteed,
            inference=scope.inference,
        )
        for stmt in node.body:
            self._visit(stmt, body_scope)

    # -- per-node facts -----------------------------------------------

    def _is_shared(self, root: str | None, fn: FunctionFacts) -> bool:
        """Whether a receiver root names shared module-level state."""
        return (
            root is not None
            and root not in fn.locals
            and root in self.facts.module_state
        )

    def _record_stmt_facts(self, node: ast.AST, scope: _Scope) -> None:
        """Mutation and frozen-write facts carried by statements."""
        fn = scope.fn
        in_function = fn.qual != "<module>"
        if isinstance(node, ast.Global) and in_function:
            fn.mutations.append(MutationFact(
                kind="global", root=node.names[0],
                detail=", ".join(node.names), line=node.lineno,
            ))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = receiver_root(target)
                    if in_function and self._is_shared(root, fn):
                        fn.mutations.append(MutationFact(
                            kind="assign", root=root or "",
                            detail="", line=node.lineno,
                        ))
                if isinstance(target, ast.Attribute):
                    self._record_frozen_write(
                        target.value, target.attr, "assign",
                        node.lineno, scope,
                    )
        elif isinstance(node, ast.Delete) and in_function:
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = receiver_root(target)
                    if self._is_shared(root, fn):
                        fn.mutations.append(MutationFact(
                            kind="delete", root=root or "",
                            detail="", line=node.lineno,
                        ))

    def _record_call(self, node: ast.Call, scope: _Scope) -> None:
        """Call-edge, sink, mutcall, setattr and worker-target facts."""
        fn = scope.fn
        func = node.func
        dotted = dotted_name(func)
        # determinism sink (RL001), resolved through the import table
        if dotted is not None:
            resolved = self._resolve(dotted)
            if self._banned_sink(resolved):
                fn.sinks.append(SinkFact(
                    resolved=resolved, line=node.lineno,
                    exempt=scope.in_resolve_rng,
                ))
        # mutating method call on shared state (RL003)
        if (
            fn.qual != "<module>"
            and isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and self._is_shared(receiver_root(func.value), fn)
        ):
            fn.mutations.append(MutationFact(
                kind="mutcall", root=receiver_root(func.value) or "",
                detail=func.attr, line=node.lineno,
            ))
        # object.__setattr__(x, "attr", v) / setattr(x, "attr", v)
        if (
            dotted in ("object.__setattr__", "setattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            self._record_frozen_write(
                node.args[0], node.args[1].value,
                "setattr" if dotted == "setattr" else "object.__setattr__",
                node.lineno, scope,
            )
        # Process(target=...) worker registration (RL003 roots)
        if dotted and dotted.split(".")[-1].endswith("Process"):
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    self.facts.worker_targets.append(
                        (kw.value.id, fn.qual, node.lineno)
                    )
        # call-graph edge
        fact = self._call_fact(node, scope)
        if fact is not None:
            fn.calls.append(fact)

    def _enclosing_class(self, fn: FunctionFacts) -> str:
        """The class owning ``fn`` directly or via a parent method."""
        while True:
            if fn.cls:
                return fn.cls
            if not fn.parent:
                return ""
            owner = self.facts.functions.get(fn.parent)
            if owner is None:
                return ""
            fn = owner

    def _record_frozen_write(
        self,
        receiver: ast.expr,
        attr: str,
        via: str,
        line: int,
        scope: _Scope,
    ) -> None:
        """Record an attribute write whose receiver class is knowable."""
        fn = scope.fn
        cls_name = ""
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            cls_name = self._enclosing_class(fn)
        elif isinstance(receiver, ast.Call):
            cls_name = dotted_name(receiver.func) or ""
        elif isinstance(receiver, ast.Name):
            cls_name = scope.inference.get(receiver.id, "")
        if not cls_name:
            return
        sanctioned = (
            fn.name in _SANCTIONED_WRITERS or "replace" in fn.name
        )
        fn.frozen_writes.append(FrozenWriteFact(
            cls=cls_name, attr=attr, via=via, line=line,
            sanctioned=sanctioned,
        ))

    def _call_fact(
        self, node: ast.Call, scope: _Scope
    ) -> CallFact | None:
        """Shape one call site into a :class:`CallFact` (or None)."""
        fn = scope.fn
        func = node.func
        dotted = dotted_name(func)
        if dotted is not None:
            root, _, rest = dotted.partition(".")
            inferred = scope.inference.get(root)
            if (
                inferred
                and rest
                and "." not in rest
                and root in fn.locals
                and root not in ("self", "cls")
            ):
                return CallFact(
                    kind="inferred", target=inferred, method=rest,
                    line=node.lineno, always=dotted in scope.guaranteed,
                )
            return CallFact(
                kind="name", target=dotted, method="",
                line=node.lineno, always=dotted in scope.guaranteed,
            )
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Call
        ):
            base = dotted_name(func.value.func)
            if base is not None:
                return CallFact(
                    kind="chained", target=base, method=func.attr,
                    line=node.lineno,
                    always=f"{base}().{func.attr}" in scope.guaranteed,
                )
        return None

    # -- name resolution helpers --------------------------------------

    def _resolve(self, dotted: str) -> str:
        """Resolve a dotted call through the module's import table."""
        root, _, rest = dotted.partition(".")
        origin = self.facts.imports.get(root)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    def _banned_sink(self, resolved: str) -> bool:
        """Whether a resolved call target is a determinism sink."""
        if resolved in BANNED_CLOCKS:
            return True
        if resolved == "random" or resolved.startswith("random."):
            return True
        if resolved.startswith("numpy.random.") or resolved.startswith(
            "np.random."
        ):
            return True
        return False

    # -- reach facts --------------------------------------------------

    def _collect_refs(self) -> None:
        """Names read by each top-level def and by the module body.

        Import statements read no names, so a re-export reaches nothing.
        """
        found: dict[str, set[str]] = {}
        for stmt in self.tree.body:
            owner = (
                stmt.name
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                else "<module>"
            )
            found.setdefault(owner, set()).update(_loaded_names(stmt))
        self.facts.refs = {
            owner: sorted(names) for owner, names in found.items()
        }

    # -- string-literal facts -----------------------------------------

    def _collect_string_facts(self) -> None:
        """Metric names, invariant keys, CLI verbs, parser verbs."""
        facts = self.facts
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func) or ""
                name = dotted.split(".")[-1]
                first = (
                    node.args[0]
                    if node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    else None
                )
                if first is None:
                    continue
                if name == "MetricSpec":
                    facts.metric_specs.append(
                        StringFact(first.value, node.lineno)
                    )
                elif name in self._METRIC_FACTORIES:
                    facts.metric_uses.append(
                        StringFact(first.value, node.lineno)
                    )
                elif name == "add_parser":
                    facts.parser_verbs.append(
                        StringFact(first.value, node.lineno)
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not (
                        isinstance(target, ast.Name)
                        and target.id in ("INVARIANTS", "_COMMANDS")
                        and isinstance(node.value, ast.Dict)
                    ):
                        continue
                    bucket = (
                        facts.invariant_keys
                        if target.id == "INVARIANTS"
                        else facts.command_keys
                    )
                    for key in node.value.keys:
                        if isinstance(key, ast.Constant) and isinstance(
                            key.value, str
                        ):
                            bucket.append(
                                StringFact(key.value, key.lineno)
                            )


def collect_facts(
    tree: ast.Module,
    *,
    src_rel: str,
    rel: str,
    module: str,
    suppressions: dict[int, list[str]],
) -> ModuleFacts:
    """Extract a :class:`ModuleFacts` summary from one parsed module."""
    facts = ModuleFacts(
        src_rel=src_rel, rel=rel, module=module,
        suppressions=suppressions,
    )
    _FactsCollector(tree, facts).run()
    return facts
