"""The fact pass: every scope of the tree walked once, and the call graph.

Every rule of :mod:`repro.checks` is a query over the facts this module
records.  :func:`build_graph` walks each *scope* of the parsed
:class:`~repro.checks.source.SourceTree` exactly once — each module
body, each class body and each ``def``/``async def`` at any nesting
depth (a ``lambda`` or comprehension belongs to the scope it sits in) —
and records, per :class:`Scope`:

* every call expression as a :class:`CallSite`, resolved to a function
  of the tree (``target``) or a canonical dotted name outside it
  (``external``: ``time.sleep`` however it was imported), else kept
  with its attribute name (``.result()``);
* the resolution tables: imports, local ``def``s and classes, and the
  names the scope binds (a bound name hides module and import names);
* ``global``/``nonlocal`` statements;
* ``with`` regions over ``threading`` locks: the locks taken, the
  calls and ``await`` expressions made while one is held;
* process-pool launches (``pool.submit(f, ...)`` on a
  ``ProcessPoolExecutor``, ``Process(target=f)``) and
  ``register_family(... worker=f)`` declarations;
* the expression facts of the lexical determinism rules: set
  iteration and ``==``/``!=`` against a fractional float literal.

Resolution runs after the walk, over the recorded names rather than the
AST, so cross-module references see every module's tables.  There is no
data flow: a function merely *referenced* is not an edge; the two
indirections that matter (launches and worker declarations) are
recorded as entry sets instead.

:meth:`CallGraph.reach` is the one breadth-first search over the graph.
It visits each scope once, so every reported finding carries the
*shortest* call path from its entry point.
"""

from __future__ import annotations

import ast
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from repro.checks.source import dotted_name

__all__ = [
    "CallGraph",
    "CallSite",
    "Scope",
    "build_graph",
    "format_path",
    "module_name",
]

#: ``threading`` constructors whose instances count as locks.
LOCK_TYPES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)


def module_name(rel: str) -> str:
    """The dotted module name of a repo-relative ``*.py`` path.

    ``src/repro/serve/server.py`` → ``repro.serve.server``;
    ``src/repro/checks/__init__.py`` → ``repro.checks``;
    ``examples/analysis_service.py`` → ``examples.analysis_service``.
    """
    parts = rel[: -len(".py")].split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass(frozen=True)
class CallSite:
    """One call expression of one scope.

    Exactly one of ``target``/``external``/``attr`` is the useful
    handle: ``target`` for calls resolved to a function in the tree,
    ``external`` for calls resolved to a canonical dotted name outside
    it, ``attr`` for method calls on unresolvable objects.  ``held``
    lists the locks held around the call (innermost last).
    """

    file: str
    line: int
    raw: str | None
    target: str | None = None
    external: str | None = None
    attr: str | None = None
    held: tuple[str, ...] = ()


@dataclass(eq=False)
class Scope:
    """One module body, class body or function, with its facts.

    Attributes:
        node_id: ``module:Qualified.Name`` (the Python ``__qualname__``
            form, ``outer.<locals>.inner`` for nested defs);
            ``module:<module>`` for a module body.
        kind: ``"module"``, ``"class"`` or ``"def"``.
        class_name: Qualified name of the class whose method this is
            (inherited by defs nested in a method), else ``None``.
        sites: The scope's call sites (resolved after the walk).
        rebinds: ``(line, statement, names)`` per ``global``/``nonlocal``.
        acquires: Locks taken by ``with`` in this scope.
        pairs: ``(held, taken, line)`` per lock taken under another.
        held_awaits: ``(held locks, line)`` per ``await`` under a lock.
        unordered: Lines iterating a set display or constructor.
        float_compares: ``(line, literal)`` per ``==``/``!=`` against a
            fractional float literal.
    """

    node_id: str
    file: str
    module: str
    qual: str
    name: str
    kind: str
    is_async: bool = False
    class_name: str | None = None
    enclosing: Scope | None = field(default=None, repr=False)
    sites: tuple[CallSite, ...] = ()
    rebinds: list[tuple[int, str, tuple[str, ...]]] = field(default_factory=list)
    acquires: set[str] = field(default_factory=set)
    pairs: list[tuple[str, str, int]] = field(default_factory=list)
    held_awaits: list[tuple[tuple[str, ...], int]] = field(default_factory=list)
    unordered: list[int] = field(default_factory=list)
    float_compares: list[tuple[int, float]] = field(default_factory=list)
    # Resolution tables and not-yet-resolved facts, filled by the walk:
    # calls are (line, dotted name, attribute, held lock candidates);
    # assigned pairs a bound target with the callee that produced it;
    # submits are (line, launcher, entry name) launch candidates and
    # workers (register_family line, worker name).
    defs: dict[str, str] = field(default_factory=dict, repr=False)
    classes: dict[str, Scope] = field(default_factory=dict, repr=False)
    imports: dict[str, str] = field(default_factory=dict, repr=False)
    bound: set[str] = field(default_factory=set, repr=False)
    calls: list[tuple] = field(default_factory=list, repr=False)
    assigned: list[tuple[str, str]] = field(default_factory=list, repr=False)
    pool_factories: set[str] = field(default_factory=set, repr=False)
    submits: list[tuple[int, str, str]] = field(default_factory=list, repr=False)
    workers: list[tuple[int, str]] = field(default_factory=list, repr=False)

    def lock_identity(self, name: str | None) -> str | None:
        """The lock identity candidate a ``with`` target names.

        ``self.x`` in a method is ``module:Class.x``; a bare ``x`` is
        ``module:x``.  Whether it *is* a lock is known only once every
        scope has been walked.
        """
        if name is None:
            return None
        if name.startswith("self.") and self.class_name is not None:
            return f"{self.module}:{self.class_name}.{name[len('self.'):]}"
        return f"{self.module}:{name}" if "." not in name else None


def _import_aliases(
    node: ast.Import | ast.ImportFrom, package: str
) -> Iterator[tuple[str, str]]:
    """``(alias, canonical dotted target)`` pairs of one import."""
    if isinstance(node, ast.Import):
        for name in node.names:
            alias = name.asname or name.name.split(".")[0]
            target = name.name if name.asname else name.name.split(".")[0]
            yield alias, target
        return
    base = node.module or ""
    if node.level:  # relative import: resolve against the package
        hops = package.split(".") if package else []
        hops = hops[: len(hops) - (node.level - 1)]
        base = ".".join([*hops, base] if base else hops)
    for name in node.names:
        if name.name == "*":
            continue
        alias = name.asname or name.name
        yield alias, f"{base}.{name.name}" if base else name.name


def _names_process_pool(value: ast.AST) -> bool:
    """Whether ``value`` names ``ProcessPoolExecutor``, directly or as
    one branch of a conditional (the engine's executor switch)."""
    if isinstance(value, ast.IfExp):
        return _names_process_pool(value.body) or _names_process_pool(
            value.orelse
        )
    name = dotted_name(value)
    return name is not None and name.split(".")[-1] == "ProcessPoolExecutor"


def _iterates_unordered(node: ast.AST) -> bool:
    """Whether ``node`` (an iterable position) is an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _fractional_literal(node: ast.Compare) -> float | None:
    """The fractional float literal an ``==``/``!=`` compares against."""
    if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
        return None
    for side in (node.left, *node.comparators):
        if (
            isinstance(side, ast.Constant)
            and isinstance(side.value, float)
            and not side.value.is_integer()
        ):
            return side.value
    return None


class _Walker:
    """The one walk of one file: every node is visited exactly once,
    attributed to the scope it belongs to."""

    def __init__(self, graph: CallGraph, rel: str, module: str) -> None:
        self.graph = graph
        self.rel = rel
        self.module = module
        self.package = (
            module
            if rel.endswith("__init__.py")
            else module.rsplit(".", 1)[0] if "." in module else ""
        )

    def open_scope(
        self, name: str, kind: str, enclosing: Scope | None, is_async: bool = False
    ) -> Scope:
        """The scope of ``name`` (a def, a class, or ``<module>``), new
        unless an earlier definition of the same name opened it."""
        if enclosing is None or enclosing.kind == "module":
            qual = name
        elif enclosing.kind == "class":
            qual = f"{enclosing.qual}.{name}"
        else:
            qual = f"{enclosing.qual}.<locals>.{name}"
        node_id = f"{self.module}:{qual}"
        if node_id not in self.graph._scopes:  # else a redefinition (setter, …)
            class_name = None
            if enclosing is not None and kind != "class":
                class_name = (
                    enclosing.qual if enclosing.kind == "class" else enclosing.class_name
                )
            self.graph._scopes[node_id] = Scope(
                node_id, self.rel, self.module, qual, name, kind, is_async,
                class_name, enclosing,
            )
        return self.graph._scopes[node_id]

    def visit(
        self,
        node: ast.AST,
        scope: Scope,
        held: tuple[str, ...],
        register: int | None,
    ) -> None:
        kind = type(node)
        if kind is ast.Call:
            register = self.call(node, scope, held, register)
        elif kind is ast.Name:
            if type(node.ctx) is not ast.Load:
                scope.bound.add(node.id)
            return
        elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            inner = self.open_scope(node.name, "def", scope, kind is ast.AsyncFunctionDef)
            scope.defs.setdefault(node.name, inner.node_id)
            for child in ast.iter_child_nodes(node):
                self.visit(child, inner, (), None)
            return
        elif kind is ast.ClassDef:
            inner = self.open_scope(node.name, "class", scope)
            scope.classes.setdefault(node.name, inner)
            for child in ast.iter_child_nodes(node):
                self.visit(child, inner, (), None)
            return
        elif kind is ast.Lambda:
            args = node.args
            for child in (*args.defaults, *args.kw_defaults, node.body):
                if child is not None:
                    self.visit(child, scope, held, register)
            return
        elif kind is ast.arg:
            scope.bound.add(node.arg)
        elif kind is ast.Import or kind is ast.ImportFrom:
            for alias, target in _import_aliases(node, self.package):
                scope.imports.setdefault(alias, target)
            return
        elif kind is ast.Global or kind is ast.Nonlocal:
            statement = "global" if kind is ast.Global else "nonlocal"
            scope.rebinds.append((node.lineno, statement, tuple(node.names)))
            return
        elif kind is ast.With:
            self.with_block(node, scope, held, register)
            return
        elif kind is ast.Assign:
            self.record_assignment(scope, node.targets, node.value)
        elif kind is ast.AnnAssign and node.value is not None:
            self.record_assignment(scope, [node.target], node.value)
        elif kind is ast.ExceptHandler:
            if node.name:
                scope.bound.add(node.name)
        elif kind is ast.Await:
            if held:
                scope.held_awaits.append((held, node.lineno))
        elif kind is ast.For or kind is ast.AsyncFor or kind is ast.comprehension:
            if _iterates_unordered(node.iter):
                scope.unordered.append(node.iter.lineno)
        elif kind is ast.Compare:
            literal = _fractional_literal(node)
            if literal is not None:
                scope.float_compares.append((node.lineno, literal))
        for child in ast.iter_child_nodes(node):
            self.visit(child, scope, held, register)

    def call(
        self,
        node: ast.Call,
        scope: Scope,
        held: tuple[str, ...],
        register: int | None,
    ) -> int | None:
        """Record one call; returns the ``register_family`` line its
        arguments are declared under, if any."""
        func = node.func
        raw = dotted_name(func)
        attr = func.attr if isinstance(func, ast.Attribute) else None
        scope.calls.append((node.lineno, raw, attr, held))
        last = raw.split(".")[-1] if raw is not None else None
        if register is None and last == "register_family":
            register = node.lineno
        if last == "submit" and "." in raw and node.args:
            value = dotted_name(node.args[0])
            if value is not None:
                scope.submits.append((node.lineno, raw, value))
        for keyword in node.keywords:
            value = dotted_name(keyword.value)
            if value is None:
                continue
            if keyword.arg == "target" and last == "Process":
                scope.submits.append((node.lineno, raw, value))
            elif keyword.arg == "worker" and register is not None:
                scope.workers.append((register, value))
        return register

    def with_block(
        self, node: ast.With, scope: Scope, held: tuple[str, ...], register: int | None
    ) -> None:
        taken: list[str] = []
        for item in node.items:
            value, bound = item.context_expr, item.optional_vars
            self.visit(value, scope, held, register)
            if bound is not None:
                self.visit(bound, scope, held, register)
                self.record_assignment(scope, [bound], value)
            ident = scope.lock_identity(dotted_name(value))
            if ident is not None:
                scope.acquires.add(ident)
                scope.pairs.extend(
                    (holder, ident, node.lineno) for holder in held if holder != ident
                )
                taken.append(ident)
        for statement in node.body:
            self.visit(statement, scope, (*held, *taken), register)

    @staticmethod
    def record_assignment(scope: Scope, targets: list[ast.AST], value: ast.AST) -> None:
        """Note ``targets = value`` where it may bind a lock or a pool."""
        if _names_process_pool(value):
            scope.pool_factories.update(t.id for t in targets if isinstance(t, ast.Name))
        callee = dotted_name(value.func) if isinstance(value, ast.Call) else None
        for target in targets if callee is not None else ():
            name = dotted_name(target)
            if name is not None:
                scope.assigned.append((name, callee))


class CallGraph:
    """The scopes of one parsed source tree and the calls between them.

    Attributes:
        locks: Every structurally identified lock: ``module:Class.attr``
            for ``self.attr = threading.Lock()`` (``RLock``,
            ``Condition``, ``Semaphore`` included) in a method, and
            ``module:name`` for a module-level ``name = Lock()``.
        launches: ``(entry, launch site)`` per function a process-pool
            ``submit`` or ``Process(target=...)`` starts in a child.
        workers: ``(worker, declaration site)`` per
            ``register_family(... worker=f)`` declaration.
    """

    def __init__(self) -> None:
        self._scopes: dict[str, Scope] = {}
        self._modules: dict[str, Scope] = {}
        self.locks: set[str] = set()
        self.launches: tuple[tuple[str, CallSite], ...] = ()
        self.workers: tuple[tuple[str, CallSite], ...] = ()

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def scope(self, node_id: str) -> Scope:
        """The :class:`Scope` registered under ``node_id``."""
        return self._scopes[node_id]

    def scopes(self) -> tuple[Scope, ...]:
        """Every scope in the graph, in walk order."""
        return tuple(self._scopes.values())

    def resolve_dotted(self, dotted: str) -> str | None:
        """Resolve a canonical dotted name to an internal function.

        Tries the longest module prefix first, so
        ``repro.engine.registry.get_family`` finds the function and
        ``repro.serve.server.AnalysisServer.stats`` finds the method.
        A dotted name naming a class resolves to its ``__init__``.
        """
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self._modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                if rest[0] in module.classes:
                    return module.classes[rest[0]].defs.get("__init__")
                return module.defs.get(rest[0])
            if len(rest) == 2 and rest[0] in module.classes:
                return module.classes[rest[0]].defs.get(rest[1])
            return None
        return None

    def resolve(self, scope: Scope, name: str) -> tuple[str | None, str | None]:
        """Resolve a dotted source name to ``(internal id, external)``.

        The lexical rule: ``self``/``cls`` name the enclosing class;
        then each enclosing function scope, innermost first, answers
        with its local ``def``s and classes, its imports, or — for a
        name it binds — nothing; then the module's functions, classes
        and imports; then a bare unknown name is a builtin.
        """
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls") and scope.class_name is not None:
            if len(parts) != 2:
                return None, None
            return self._class_methods(scope).get(parts[1]), None
        current: Scope | None = scope
        while current is not None and current.kind != "module":
            if current is scope or current.kind == "def":
                if head in current.defs or head in current.classes:
                    return self._local(current, parts), None
                if head in current.imports:
                    return self._imported(current.imports[head], parts)
                if head in current.bound:
                    return None, None
            current = current.enclosing
        module = self._modules[scope.module]
        if len(parts) == 1 and (head in module.defs or head in module.classes):
            return self._local(module, parts), None
        if head in module.imports:
            return self._imported(module.imports[head], parts)
        if len(parts) == 1:
            return None, head  # builtin or truly global name
        if len(parts) == 2 and head in module.classes:
            return module.classes[head].defs.get(parts[1]), None
        return None, None

    def _class_methods(self, scope: Scope) -> dict[str, str]:
        current = scope
        while current.kind != "class" or current.qual != scope.class_name:
            current = current.enclosing
        return current.defs

    @staticmethod
    def _local(scope: Scope, parts: list[str]) -> str | None:
        if len(parts) > 1:
            return None
        if parts[0] in scope.defs:
            return scope.defs[parts[0]]
        return scope.classes[parts[0]].defs.get("__init__")

    def _imported(
        self, base: str, parts: list[str]
    ) -> tuple[str | None, str | None]:
        dotted = ".".join([base, *parts[1:]])
        internal = self.resolve_dotted(dotted)
        return (internal, None) if internal is not None else (None, dotted)

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------

    def reach(
        self,
        start: str,
        follow: Callable[[Scope], bool] | None = None,
    ) -> Iterator[tuple[tuple[str, ...], CallSite | None]]:
        """The one breadth-first search: every scope reachable from
        ``start``, each once, with its shortest path.

        Yields ``(path, via)``: ``path`` is the chain of node ids from
        ``start`` to the reached scope, ``via`` the call inside
        ``start`` that enters that chain (the line a transitive finding
        anchors on; ``None`` for ``start`` itself).  ``follow`` filters
        which resolved callees the search descends into.
        """
        queue: deque[tuple[tuple[str, ...], CallSite | None]] = deque(
            [((start,), None)]
        )
        seen = {start}
        while queue:
            path, via = queue.popleft()
            yield path, via
            for site in self._scopes[path[-1]].sites:
                target = site.target
                if target is None or target in seen:
                    continue
                if follow is not None and not follow(self._scopes[target]):
                    continue
                seen.add(target)
                queue.append(((*path, target), via or site))

    def walk_sites(
        self,
        start: str,
        follow: Callable[[Scope], bool] | None = None,
    ) -> Iterator[tuple[tuple[str, ...], CallSite | None, CallSite]]:
        """Every call site :meth:`reach` covers, as ``(path, via,
        site)`` — ``path`` ends at the scope containing ``site``, so
        ``via is None`` means a site lexically inside ``start``."""
        for path, via in self.reach(start, follow):
            for site in self._scopes[path[-1]].sites:
                yield path, via, site


def build_graph(tree) -> CallGraph:
    """Walk every scope of ``tree`` once and resolve the recorded facts.

    ``tree`` is a :class:`~repro.checks.source.SourceTree`.
    """
    graph = CallGraph()
    for file in tree.files:
        module = module_name(file.rel)
        walker = _Walker(graph, file.rel, module)
        root = walker.open_scope("<module>", "module", None)
        graph._modules[module] = root
        for child in file.tree.body:
            walker.visit(child, root, (), None)

    for scope in graph._scopes.values():
        for name, callee in scope.assigned:
            if callee.split(".")[-1] in LOCK_TYPES and (
                scope.kind == "module" or name.startswith("self.")
            ):
                ident = scope.lock_identity(name)
                if ident is not None:
                    graph.locks.add(ident)
    launches: dict[tuple[str, CallSite], None] = {}
    workers: list[tuple[str, CallSite]] = []
    for scope in graph._scopes.values():
        _resolve_facts(graph, scope)
        pools = {
            name
            for name, callee in scope.assigned
            if callee.split(".")[-1] == "ProcessPoolExecutor"
            or callee in scope.pool_factories
        }
        for line, raw, value in scope.submits:
            if raw.endswith(".submit") and raw.rsplit(".", 1)[0] not in pools:
                continue
            target, _external = graph.resolve(scope, value)
            if target is not None:
                launches[(target, CallSite(scope.file, line, raw, target=target))] = None
        for line, value in scope.workers:
            target, _external = graph.resolve(scope, value)
            if target is not None:
                workers.append((target, CallSite(scope.file, line, value, target=target)))
    graph.launches = tuple(launches)
    graph.workers = tuple(workers)
    return graph


def _resolve_facts(graph: CallGraph, scope: Scope) -> None:
    """Resolve a walked scope's calls and keep only real locks."""

    def locks(candidates: tuple[str, ...]) -> tuple[str, ...]:
        return tuple(c for c in candidates if c in graph.locks)

    sites = []
    for line, raw, attr, held in scope.calls:
        target, external = (None, None) if raw is None else graph.resolve(scope, raw)
        if target or external:
            attr = None
        sites.append(
            CallSite(scope.file, line, raw, target, external, attr, locks(held))
        )
    scope.sites = tuple(sites)
    scope.acquires &= graph.locks
    scope.pairs = [
        (held, taken, line)
        for held, taken, line in scope.pairs
        if held in graph.locks and taken in graph.locks
    ]
    scope.held_awaits = [
        (locks(held), line) for held, line in scope.held_awaits if locks(held)
    ]


def format_path(graph: CallGraph, path: Iterable[str], label: str) -> str:
    """Render a call chain for a finding message.

    ``format_path(g, ("m:a", "m:b"), "time.sleep")`` →
    ``"a -> b -> time.sleep()"`` — the qualified names stay short
    (function quals, not module paths) because the finding already
    names the file.
    """
    hops = [graph.scope(node_id).qual for node_id in path]
    return " -> ".join([*hops, f"{label}()"])
