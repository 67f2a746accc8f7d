"""Pass 2 substrate: project-wide symbol table and call graph.

Consumes the per-file :class:`~reprolint.symbols.ModuleFacts`
summaries (never raw ASTs — that is what makes the cache work) and
answers the two questions every whole-program rule asks:

* *what does this call site call?* — :meth:`CallGraph.resolve`
  handles plain names (locals shadow module scope, nested defs
  resolve through the enclosing-function chain), ``self.m()`` /
  ``cls.m()`` method dispatch with base-class walks, imported
  symbols (including package ``__init__`` re-exports),
  constructor-chained calls (``Cls(...).m()``), and locals whose
  class was inferred from an assignment or annotation.  Anything
  dynamic stays *unresolved* — the analyzer is conservative and
  never guesses.
* *what is reachable from here?* — :meth:`CallGraph.reachable` is a
  breadth-first closure that keeps parent pointers so rules can show
  the offending call chain in the finding message.

A class used as a call target expands to its ``__init__`` and
``__post_init__`` methods (object construction executes both).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .symbols import CallFact, ClassFacts, FunctionFacts, ModuleFacts

__all__ = ["CallGraph", "FnNode", "SymbolTable"]


class FnNode(NamedTuple):
    """A function identified by its file and in-module qualname."""

    src_rel: str
    qual: str


class SymbolTable:
    """Project-wide lookup over every module's facts."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: list[ModuleFacts] = list(modules)
        self.by_module: dict[str, ModuleFacts] = {
            m.module: m for m in self.modules
        }
        self.by_src_rel: dict[str, ModuleFacts] = {
            m.src_rel: m for m in self.modules
        }

    def function(self, node: FnNode) -> FunctionFacts | None:
        """The facts behind a graph node (None if it vanished)."""
        mod = self.by_src_rel.get(node.src_rel)
        if mod is None:
            return None
        return mod.functions.get(node.qual)

    def module_of(self, node: FnNode) -> ModuleFacts | None:
        """The module facts owning a graph node."""
        return self.by_src_rel.get(node.src_rel)

    def display(self, node: FnNode) -> str:
        """Human form of a node for finding messages."""
        mod = self.by_src_rel.get(node.src_rel)
        stem = mod.module if mod is not None else node.src_rel
        return f"{stem}.{node.qual}"

    # -- dotted-symbol resolution -------------------------------------

    def resolve_symbol(
        self, full: str, _seen: frozenset[str] = frozenset()
    ) -> tuple[str, FnNode] | None:
        """Resolve a fully dotted name to a project def.

        Returns ``("func", node)`` or ``("class", node)`` where a
        class node's ``qual`` is the class name.  Package
        ``__init__`` re-exports are followed (``from .x import y``
        in ``pkg/__init__.py`` makes ``pkg.y`` resolve to ``x.y``),
        with a cycle guard.  Unresolvable names return None.
        """
        if full in _seen:
            return None
        _seen = _seen | {full}
        parts = full.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = self.by_module.get(".".join(parts[:i]))
            if mod is None:
                continue
            rest = parts[i:]
            if len(rest) == 1:
                name = rest[0]
                if name in mod.functions:
                    return ("func", FnNode(mod.src_rel, name))
                if name in mod.classes:
                    return ("class", FnNode(mod.src_rel, name))
                if name in mod.imports:
                    return self.resolve_symbol(mod.imports[name], _seen)
                if "__getattr__" in mod.functions:
                    # PEP 562 lazy export from a module it imports
                    for origin in mod.imports.values():
                        if origin in self.by_module:
                            found = self.resolve_symbol(
                                f"{origin}.{name}", _seen
                            )
                            if found is not None:
                                return found
                return None
            if len(rest) == 2:
                cls_name, meth = rest
                if cls_name in mod.classes:
                    return self.method_on(mod, cls_name, meth)
                if cls_name in mod.imports:
                    target = self.resolve_symbol(
                        mod.imports[cls_name], _seen
                    )
                    if target is not None and target[0] == "class":
                        owner = self.by_src_rel[target[1].src_rel]
                        return self.method_on(
                            owner, target[1].qual, meth
                        )
                return None
            return None
        return None

    def top_level_def(self, full: str) -> FnNode | None:
        """The module-level def a dotted name lands in, if any.

        The shortest resolving prefix wins, so ``pkg.mod.Cls.meth``
        lands in ``Cls`` (not in a base class that defines ``meth``);
        a method or nested function maps to its top-level owner.
        """
        parts = full.split(".")
        for k in range(2, len(parts) + 1):
            found = self.resolve_symbol(".".join(parts[:k]))
            if found is not None:
                node = found[1]
                return FnNode(node.src_rel, node.qual.split(".")[0])
        return None

    def method_on(
        self,
        mod: ModuleFacts,
        cls_name: str,
        meth: str,
        _depth: int = 0,
    ) -> tuple[str, FnNode] | None:
        """Find ``cls_name.meth`` in ``mod``, walking base classes."""
        if _depth > 8:
            return None
        qual = f"{cls_name}.{meth}"
        if qual in mod.functions:
            return ("func", FnNode(mod.src_rel, qual))
        cls = mod.classes.get(cls_name)
        if cls is None:
            return None
        for base in cls.bases:
            resolved = self._resolve_class_ref(mod, base)
            if resolved is None:
                continue
            base_mod, base_cls = resolved
            found = self.method_on(
                base_mod, base_cls.name, meth, _depth + 1
            )
            if found is not None:
                return found
        return None

    def _resolve_class_ref(
        self, mod: ModuleFacts, raw: str
    ) -> tuple[ModuleFacts, ClassFacts] | None:
        """Resolve a raw dotted class reference from ``mod``'s view."""
        root, _, rest = raw.partition(".")
        if not rest and root in mod.classes:
            return (mod, mod.classes[root])
        if root in mod.imports:
            full = (
                f"{mod.imports[root]}.{rest}" if rest
                else mod.imports[root]
            )
            target = self.resolve_symbol(full)
            if target is not None and target[0] == "class":
                owner = self.by_src_rel[target[1].src_rel]
                return (owner, owner.classes[target[1].qual])
        return None

    def resolve_class(
        self, mod: ModuleFacts, raw: str
    ) -> tuple[ModuleFacts, ClassFacts] | None:
        """Public wrapper over :meth:`_resolve_class_ref`."""
        return self._resolve_class_ref(mod, raw)


class CallGraph:
    """Directed function-call graph over the whole project."""

    def __init__(self, symbols: SymbolTable) -> None:
        self.symbols = symbols
        #: caller -> [(callee, call fact)]
        self.edges: dict[FnNode, list[tuple[FnNode, CallFact]]] = {}
        self._build()

    def _build(self) -> None:
        for mod in self.symbols.modules:
            for fn in mod.functions.values():
                caller = FnNode(mod.src_rel, fn.qual)
                out: list[tuple[FnNode, CallFact]] = []
                for call in fn.calls:
                    for callee in self.resolve(mod, fn, call):
                        out.append((callee, call))
                if out:
                    self.edges[caller] = out

    # -- resolution ---------------------------------------------------

    def _expand_class(
        self, mod: ModuleFacts, cls_name: str
    ) -> list[FnNode]:
        """Construction edges: ``Cls(...)`` runs init and post-init."""
        nodes: list[FnNode] = []
        for meth in ("__init__", "__post_init__"):
            found = self.symbols.method_on(mod, cls_name, meth)
            if found is not None:
                nodes.append(found[1])
        return nodes

    def resolve_bare_name(
        self, mod: ModuleFacts, fn: FunctionFacts, name: str
    ) -> list[FnNode] | None:
        """A bare name: nested defs, then locals, then module scope.

        Returns None when the name is a local variable (unresolvable),
        an empty list when nothing matched at all.
        """
        # nested sibling defs up the enclosing-function chain
        scope_quals: list[str] = []
        cursor: FunctionFacts | None = fn
        while cursor is not None:
            scope_quals.append(cursor.qual)
            cursor = (
                mod.functions.get(cursor.parent)
                if cursor.parent
                else None
            )
        for scope_qual in scope_quals:
            if scope_qual == "<module>":
                continue
            candidate = f"{scope_qual}.{name}"
            if candidate in mod.functions:
                return [FnNode(mod.src_rel, candidate)]
        if name in fn.locals and name not in mod.imports:
            return None  # shadowed by a local binding
        if name in mod.functions and "." not in name:
            return [FnNode(mod.src_rel, name)]
        if name in mod.classes:
            return self._expand_class(mod, name)
        if name in mod.imports:
            target = self.symbols.resolve_symbol(mod.imports[name])
            if target is None:
                return []
            if target[0] == "func":
                return [target[1]]
            owner = self.symbols.by_src_rel[target[1].src_rel]
            return self._expand_class(owner, target[1].qual)
        return []

    def resolve(
        self, mod: ModuleFacts, fn: FunctionFacts, call: CallFact
    ) -> list[FnNode]:
        """All project functions a call fact may invoke ([] if none)."""
        if call.kind in ("chained", "inferred"):
            resolved = self._resolve_callable_class(mod, fn, call.target)
            if resolved is None:
                return []
            owner, cls = resolved
            found = self.symbols.method_on(owner, cls.name, call.method)
            return [found[1]] if found is not None else []

        dotted = call.target
        root, _, rest = dotted.partition(".")
        if root in ("self", "cls") and rest and "." not in rest:
            cls_name = self._enclosing_class(mod, fn)
            if not cls_name:
                return []
            found = self.symbols.method_on(mod, cls_name, rest)
            return [found[1]] if found is not None else []
        if not rest:
            nodes = self.resolve_bare_name(mod, fn, root)
            return nodes or []
        # dotted: Cls.meth / imported module attr / local attr chain
        if root in fn.locals and root not in mod.imports:
            return []
        if root in mod.classes and "." not in rest:
            found = self.symbols.method_on(mod, root, rest)
            return [found[1]] if found is not None else []
        if root in mod.imports:
            target = self.symbols.resolve_symbol(
                f"{mod.imports[root]}.{rest}"
            )
            if target is None:
                return []
            if target[0] == "func":
                return [target[1]]
            owner = self.symbols.by_src_rel[target[1].src_rel]
            return self._expand_class(owner, target[1].qual)
        return []

    def _resolve_callable_class(
        self, mod: ModuleFacts, fn: FunctionFacts, raw: str
    ) -> tuple[ModuleFacts, "ClassFacts"] | None:
        """The class behind a chained/inferred call base, if any."""
        root, _, rest = raw.partition(".")
        if not rest:
            if root in fn.locals and root not in mod.classes \
                    and root not in mod.imports:
                return None
        return self.symbols.resolve_class(mod, raw)

    def _enclosing_class(
        self, mod: ModuleFacts, fn: FunctionFacts
    ) -> str:
        """The class owning ``fn`` directly or via a parent method."""
        cursor: FunctionFacts | None = fn
        while cursor is not None:
            if cursor.cls:
                return cursor.cls
            cursor = (
                mod.functions.get(cursor.parent)
                if cursor.parent
                else None
            )
        return ""

    # -- reachability -------------------------------------------------

    def reachable(
        self, roots: Iterable[FnNode]
    ) -> dict[FnNode, FnNode | None]:
        """BFS closure from ``roots``; values are parent pointers."""
        parents: dict[FnNode, FnNode | None] = {}
        frontier: list[FnNode] = []
        for root in roots:
            if root not in parents:
                parents[root] = None
                frontier.append(root)
        while frontier:
            nxt: list[FnNode] = []
            for node in frontier:
                for callee, _fact in self.edges.get(node, ()):
                    if callee not in parents:
                        parents[callee] = node
                        nxt.append(callee)
            frontier = nxt
        return parents

    @staticmethod
    def chain(
        parents: dict[FnNode, FnNode | None], node: FnNode
    ) -> list[FnNode]:
        """Root-to-node path recovered from BFS parent pointers."""
        path = [node]
        while True:
            parent = parents.get(path[-1])
            if parent is None:
                break
            path.append(parent)
        return list(reversed(path))

    def reverse_edges(self) -> dict[FnNode, list[FnNode]]:
        """Callee -> callers adjacency (for backward taint walks)."""
        rev: dict[FnNode, list[FnNode]] = {}
        for caller, out in self.edges.items():
            for callee, _fact in out:
                rev.setdefault(callee, []).append(caller)
        return rev


def module_dependents(
    symbols: SymbolTable, changed: Iterable[str]
) -> set[str]:
    """Transitive reverse-import cone of ``changed`` (src_rel paths).

    Used by the incremental cache to report which modules' *global*
    analysis may shift when a file changes: the file itself plus every
    module that (transitively) imports it.
    """
    # importer adjacency: module name -> src_rels importing it
    importers: dict[str, set[str]] = {}
    for mod in symbols.modules:
        for origin in mod.imports.values():
            parts = origin.split(".")
            for i in range(len(parts), 0, -1):
                target = symbols.by_module.get(".".join(parts[:i]))
                if target is not None:
                    importers.setdefault(
                        target.src_rel, set()
                    ).add(mod.src_rel)
                    break
    cone: set[str] = set()
    frontier = [c for c in changed]
    while frontier:
        src_rel = frontier.pop()
        if src_rel in cone:
            continue
        cone.add(src_rel)
        frontier.extend(importers.get(src_rel, ()))
    return cone
