"""The interprocedural core: a call graph over the parsed source tree.

PR 8's checkers were strictly file-local AST walks, but the bugs that
actually threaten the serve layer's thread pool and the engine's fork
pools are *interprocedural*: a helper three calls deep that blocks
while a lock is held, touches the asyncio loop after fork, or reads
wall-clock inside a record-producing path.  This module resolves
module-level names, imports and attribute calls across the whole
:class:`~repro.checks.source.SourceTree` into one :class:`CallGraph`
that every transitive checker (``LK``, ``FS``, ``ASY002``, ``DET006``)
queries instead of re-deriving resolution per rule.

What the graph models, and what it deliberately does not:

* Every ``def``/``async def`` at any nesting depth is a
  :class:`FunctionInfo` node (``module:Qualified.Name`` ids).
* A call edge is an :class:`ast.Call` whose callee resolves through
  the lexical scope chain — local ``def``s, module functions/classes,
  import aliases (module-level *and* function-local, the repo's lazy-
  import idiom), ``self.``/``cls.`` methods of the enclosing class.
* Unresolvable callees are kept, not dropped: a call on an arbitrary
  object records its attribute name (``.result()``, ``.read_text()``)
  and a call into an imported third-party module records its canonical
  dotted name (``time.sleep`` whether imported as ``time`` or ``from
  time import sleep``), so checkers can still match known-blocking
  surfaces at the graph's edge.
* No data flow: a function *referenced* (passed to ``to_thread``,
  stored in a registry) is not an edge — only a call is.  Entry-point
  discovery for those indirection idioms is explicit instead:
  :meth:`CallGraph.fork_entries` (``ProcessPoolExecutor.submit`` /
  ``Process(target=...)``) and :meth:`CallGraph.worker_entries`
  (``register_family(... worker=...)``).

Reachability queries (:meth:`CallGraph.walk_sites`) run a BFS that
visits each function once, so every reported finding carries the
*shortest* call path from its entry point to the offending site.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from repro.checks.source import dotted_name

__all__ = [
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "build_graph",
    "format_path",
    "module_name",
    "transitive_hits",
]


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
class FunctionInfo:
    """One ``def``/``async def`` node of the graph.

    Attributes:
        node_id: Stable id — ``module:Qualified.Name`` (nested
            functions use the ``outer.<locals>.inner`` qualname form).
        file: Repo-relative path of the defining file.
        module: Dotted module name.
        qual: Qualified name within the module.
        name: Bare function name.
        lineno: 1-based definition line.
        is_async: Whether the function is a coroutine.
        class_name: Enclosing class name, when the function is a
            method (``None`` otherwise).
        parent: ``node_id`` of the enclosing function, for nested
            defs (``None`` at module/class level).
    """

    node_id: str
    file: str
    module: str
    qual: str
    name: str
    lineno: int
    is_async: bool
    class_name: str | None
    parent: str | None


@dataclass(frozen=True)
class CallSite:
    """One call expression attributed to its enclosing function.

    Exactly one of ``target``/``external``/``attr`` is the useful
    handle: ``target`` for calls resolved to a function in the tree,
    ``external`` for calls resolved to a canonical dotted name outside
    it, ``attr`` for method calls on unresolvable objects.
    """

    file: str
    line: int
    raw: str | None
    target: str | None = None
    external: str | None = None
    attr: str | None = None

    @property
    def label(self) -> str:
        """What a finding message calls this site."""
        if self.external:
            return self.external
        if self.raw:
            return self.raw
        if self.attr:
            return f".{self.attr}"
        return "?"


@dataclass
class _ModuleInfo:
    """Resolution tables of one covered module."""

    module: str
    file: str
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)
    classes: dict[str, dict[str, str]] = field(default_factory=dict)


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


class CallGraph:
    """Call edges and reachability over one parsed source tree."""

    def __init__(self) -> None:
        self._functions: dict[str, FunctionInfo] = {}
        self._ast: dict[str, ast.AST] = {}
        self._modules: dict[str, _ModuleInfo] = {}
        self._edges: dict[str, tuple[CallSite, ...]] = {}
        self._children: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def function(self, node_id: str) -> FunctionInfo:
        """The :class:`FunctionInfo` registered under ``node_id``."""
        return self._functions[node_id]

    def functions(self) -> tuple[FunctionInfo, ...]:
        """Every function in the graph, in registration order."""
        return tuple(self._functions.values())

    def callees(self, node_id: str) -> tuple[CallSite, ...]:
        """The call sites inside ``node_id``'s own scope."""
        return self._edges.get(node_id, ())

    def resolve(self, module: str, qual: str) -> str | None:
        """The node id of ``module:qual``, if that function exists."""
        node_id = f"{module}:{qual}"
        return node_id if node_id in self._functions else None

    def resolve_dotted(self, dotted: str) -> str | None:
        """Resolve a canonical dotted name to an internal function.

        Tries the longest module prefix first, so
        ``repro.engine.registry.get_family`` finds the function and
        ``repro.serve.server.AnalysisServer.stats`` finds the method.
        A dotted name naming a class resolves to its ``__init__``.
        """
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            info = self._modules.get(".".join(parts[:cut]))
            if info is None:
                continue
            rest = parts[cut:]
            if len(rest) == 1:
                hit = info.functions.get(rest[0])
                if hit is None and rest[0] in info.classes:
                    hit = info.classes[rest[0]].get("__init__")
                return hit
            if len(rest) == 2 and rest[0] in info.classes:
                return info.classes[rest[0]].get(rest[1])
            return None
        return None

    def ast_of(self, node_id: str) -> ast.AST:
        """The ``ast`` definition node of a function (checker use)."""
        return self._ast[node_id]

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------

    def walk_sites(
        self,
        start: str,
        follow: Callable[[FunctionInfo], bool] | None = None,
    ) -> Iterator[tuple[tuple[str, ...], CallSite]]:
        """BFS every call site reachable from ``start``.

        Yields ``(path, site)`` pairs where ``path`` is the shortest
        chain of node ids from ``start`` to the function *containing*
        ``site`` (so ``len(path) == 1`` means a site lexically inside
        ``start`` itself).  ``follow`` filters which resolved callees
        the walk descends into (default: all internal callees); each
        function is visited at most once.
        """
        queue: list[tuple[str, ...]] = [(start,)]
        seen = {start}
        while queue:
            path = queue.pop(0)
            for site in self.callees(path[-1]):
                yield path, site
                target = site.target
                if target is None or target in seen:
                    continue
                if follow is not None and not follow(
                    self._functions[target]
                ):
                    continue
                seen.add(target)
                queue.append((*path, target))

    # ------------------------------------------------------------------
    # entry-point discovery
    # ------------------------------------------------------------------

    def fork_entries(self) -> tuple[tuple[str, CallSite], ...]:
        """Functions entering worker *processes*, with their launch
        sites.

        Two idioms are recognized: ``pool.submit(f, ...)`` where
        ``pool`` is bound from a ``ProcessPoolExecutor(...)`` call in
        the same scope, and ``Process(target=f)``-shaped constructions
        (``multiprocessing.Process``, ``mp_context.Process``).
        """
        entries: dict[tuple[str, CallSite], None] = {}
        for info in self._functions.values():
            scope = self.ast_of(info.node_id)
            pools = _process_pool_names(scope)
            for node in _scoped_walk(scope):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if (
                    name is not None
                    and name.endswith(".submit")
                    and name.rsplit(".", 1)[0] in pools
                    and node.args
                ):
                    target = self._resolve_value(info, node.args[0])
                    if target is not None:
                        site = CallSite(
                            file=info.file,
                            line=node.lineno,
                            raw=name,
                            target=target,
                        )
                        entries[(target, site)] = None
                if name is not None and name.split(".")[-1] == "Process":
                    for keyword in node.keywords:
                        if keyword.arg != "target":
                            continue
                        target = self._resolve_value(info, keyword.value)
                        if target is not None:
                            site = CallSite(
                                file=info.file,
                                line=node.lineno,
                                raw=name,
                                target=target,
                            )
                            entries[(target, site)] = None
        return tuple(entries)

    def worker_entries(self) -> tuple[tuple[str, CallSite], ...]:
        """Registered scenario-family workers, with declaration sites.

        Purely syntactic — ``register_family(Something(...,
        worker=f))`` call shapes — so fixture packages are covered
        without importing anything, and the real registry modules are
        covered by the same rule.  Yields ``(node_id, declaration
        site)``.
        """
        entries: list[tuple[str, CallSite]] = []
        for info in self._functions.values():
            entries.extend(self._worker_entries_in(info))
        for rel, mod in sorted(
            (m.file, m) for m in self._modules.values()
        ):
            tree = self._module_ast.get(rel)
            if tree is None:
                continue
            # module-level registrations (outside any function)
            entries.extend(
                self._worker_entries_from(
                    _module_resolver(self, mod), mod.file, tree
                )
            )
        return tuple(entries)

    def _worker_entries_in(
        self, info: FunctionInfo
    ) -> list[tuple[str, CallSite]]:
        resolver = self._resolvers.get(info.node_id)
        if resolver is None:
            return []
        return self._worker_entries_from(
            resolver, info.file, self.ast_of(info.node_id)
        )

    def _worker_entries_from(
        self,
        resolver: Callable[[str], tuple[str | None, str | None]],
        rel: str,
        scope: ast.AST,
    ) -> list[tuple[str, CallSite]]:
        found: list[tuple[str, CallSite]] = []
        for node in _scoped_walk(scope):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] != "register_family":
                continue
            for payload in ast.walk(node):
                if not isinstance(payload, ast.Call):
                    continue
                for keyword in payload.keywords:
                    if keyword.arg != "worker":
                        continue
                    value = dotted_name(keyword.value)
                    if value is None:
                        continue
                    target, _external = resolver(value)
                    if target is not None:
                        site = CallSite(
                            file=rel, line=node.lineno, raw=value, target=target
                        )
                        found.append((target, site))
        return found

    def _resolve_value(
        self, info: FunctionInfo, value: ast.AST
    ) -> str | None:
        """Resolve a non-call value expression (a function reference)."""
        name = dotted_name(value)
        if name is None:
            return None
        resolver = self._resolvers.get(info.node_id)
        if resolver is None:
            return None
        target, _external = resolver(name)
        return target

    # populated by build_graph
    _resolvers: dict[str, Callable[[str], tuple[str | None, str | None]]]
    _module_ast: dict[str, ast.Module]


def _scoped_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested function scopes.

    Statements of the scope itself — at any structural depth (inside
    ``if``/``with``/``try``…) — are visited; bodies of nested
    ``def``/``async def``/``lambda`` belong to their own graph nodes
    and are skipped.
    """
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _process_pool_names(scope: ast.AST) -> set[str]:
    """Names bound to a process pool in scope.

    A pool is a ``ProcessPoolExecutor(...)`` call, or a call of a local
    name bound to that class — directly or as one branch of a
    conditional, the engine's ``cls = ProcessPoolExecutor if … else
    ThreadPoolExecutor`` executor switch.
    """

    def names_process_pool(value: ast.AST) -> bool:
        if isinstance(value, ast.IfExp):
            return names_process_pool(value.body) or names_process_pool(
                value.orelse
            )
        name = dotted_name(value)
        return (
            name is not None
            and name.split(".")[-1] == "ProcessPoolExecutor"
        )

    factories: set[str] = set()
    for node in _scoped_walk(scope):
        if isinstance(node, ast.Assign) and names_process_pool(node.value):
            targets = node.targets
        elif (
            isinstance(node, ast.AnnAssign)
            and node.value is not None
            and names_process_pool(node.value)
        ):
            targets = [node.target]
        else:
            continue
        factories.update(t.id for t in targets if isinstance(t, ast.Name))

    def is_pool_call(value: ast.AST) -> bool:
        if not isinstance(value, ast.Call):
            return False
        if isinstance(value.func, ast.Name) and value.func.id in factories:
            return True
        return names_process_pool(value.func)

    names: set[str] = set()
    for node in _scoped_walk(scope):
        if isinstance(node, ast.Assign) and is_pool_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.withitem) and is_pool_call(
            node.context_expr
        ):
            if isinstance(node.optional_vars, ast.Name):
                names.add(node.optional_vars.id)
    return names


def _shadowed_names(scope: ast.AST) -> set[str]:
    """Names locally bound in ``scope`` (they hide module/import
    names)."""
    names: set[str] = set()
    args = getattr(scope, "args", None)
    if args is not None:
        for arg in (
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ):
            names.add(arg.arg)
    for node in _scoped_walk(scope):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _module_resolver(graph: CallGraph, mod: _ModuleInfo):
    """A resolver closure for module-level (non-function) code."""

    def resolve(name: str) -> tuple[str | None, str | None]:
        return _resolve_name(
            graph, mod, name, class_name=None, scopes=(), shadowed=()
        )

    return resolve


def _resolve_name(
    graph: CallGraph,
    mod: _ModuleInfo,
    name: str,
    class_name: str | None,
    scopes: tuple[dict[str, str], ...],
    shadowed: tuple[frozenset[str], ...],
    local_imports: dict[str, str] | None = None,
) -> tuple[str | None, str | None]:
    """Resolve a dotted source name to ``(internal id, external)``.

    The lexical rule: enclosing local ``def``s win, then
    ``self``/``cls`` methods, then locally-shadowed names resolve to
    nothing, then module functions/classes, then import aliases
    (function-local over module-level), then — for names rooted in an
    import — the canonical external dotted name.
    """
    parts = name.split(".")
    head = parts[0]
    if head in ("self", "cls") and class_name is not None:
        if len(parts) == 2:
            return (
                graph._modules[mod.module]
                .classes.get(class_name, {})
                .get(parts[1]),
                None,
            )
        return None, None
    if len(parts) == 1:
        for scope in reversed(scopes):
            if head in scope:
                return scope[head], None
        for mask in reversed(shadowed):
            if head in mask:
                return None, None
        if local_imports and head in local_imports:
            # A function-local import is a local binding: it shadows
            # any module-level def of the same name (the repo's lazy-
            # import idiom would otherwise resolve to the wrong one).
            dotted = local_imports[head]
            internal = graph.resolve_dotted(dotted)
            return (internal, None) if internal else (None, dotted)
        if head in mod.functions:
            return mod.functions[head], None
        if head in mod.classes:
            return mod.classes[head].get("__init__"), None
    imports = dict(mod.imports)
    if local_imports:
        imports.update(local_imports)
    if head in imports:
        dotted = ".".join([imports[head], *parts[1:]])
        internal = graph.resolve_dotted(dotted)
        if internal is not None:
            return internal, None
        return None, dotted
    if len(parts) == 1:
        return None, head  # builtin or truly global name
    if head in mod.classes:
        # Class.method style within the same module.
        internal = graph.resolve_dotted(f"{mod.module}.{name}")
        if internal is not None:
            return internal, None
    return None, None


def build_graph(tree) -> CallGraph:
    """Build the :class:`CallGraph` of a parsed source tree.

    ``tree`` is a :class:`~repro.checks.source.SourceTree`.
    """
    graph = CallGraph()
    graph._resolvers = {}
    graph._module_ast = {}

    # Pass 1: register every function/class and the import tables.
    for file in tree.files:
        module = module_name(file.rel)
        mod = _ModuleInfo(module=module, file=file.rel)
        graph._modules[module] = mod
        graph._module_ast[file.rel] = file.tree
        package = (
            module
            if file.rel.endswith("__init__.py")
            else module.rsplit(".", 1)[0]
            if "." in module
            else ""
        )
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                _is_module_scope(node, file.tree)
            ):
                for alias, target in _import_aliases(node, package):
                    mod.imports.setdefault(alias, target)
        _register_functions(graph, mod, file.rel, file.tree)

    # Pass 2: resolve every call expression into edges.
    for file in tree.files:
        mod = graph._modules[module_name(file.rel)]
        _build_edges(graph, mod, file.rel, file.tree)
    return graph


def _is_module_scope(node: ast.AST, module: ast.Module) -> bool:
    """Cheap check: imports at column 0 are module-scope."""
    return getattr(node, "col_offset", 1) == 0


def _register_functions(
    graph: CallGraph,
    mod: _ModuleInfo,
    rel: str,
    module_ast: ast.Module,
) -> None:
    def register(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        class_name: str | None,
        parent: str | None,
    ) -> str:
        node_id = f"{mod.module}:{qual}"
        graph._functions[node_id] = FunctionInfo(
            node_id=node_id,
            file=rel,
            module=mod.module,
            qual=qual,
            name=node.name,
            lineno=node.lineno,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_name,
            parent=parent,
        )
        graph._ast[node_id] = node
        if parent is not None:
            graph._children.setdefault(parent, {})[node.name] = node_id
        return node_id

    def walk_scope(
        scope: ast.AST,
        qual_prefix: str,
        class_name: str | None,
        parent: str | None,
    ) -> None:
        for node in _scoped_walk(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{qual_prefix}{node.name}"
                node_id = register(node, qual, class_name, parent)
                if class_name is not None and parent is None:
                    mod.classes.setdefault(class_name, {})[
                        node.name
                    ] = node_id
                elif parent is None:
                    mod.functions.setdefault(node.name, node_id)
                walk_scope(node, f"{qual}.<locals>.", None, node_id)
            elif isinstance(node, ast.ClassDef) and parent is None:
                mod.classes.setdefault(node.name, {})
                walk_scope(
                    _ClassScope(node), f"{node.name}.", node.name, parent
                )

    walk_scope(module_ast, "", None, None)


class _ClassScope:
    """Adapter letting ``_scoped_walk`` iterate a class body only."""

    def __init__(self, node: ast.ClassDef) -> None:
        self._node = node

    @property
    def body(self):  # pragma: no cover - trivial
        return self._node.body

    def __getattr__(self, item):
        return getattr(self._node, item)


def _build_edges(
    graph: CallGraph,
    mod: _ModuleInfo,
    rel: str,
    module_ast: ast.Module,
) -> None:
    def process(
        node_id: str,
        scope: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
        scopes: tuple[dict[str, str], ...],
        shadowed: tuple[frozenset[str], ...],
    ) -> None:
        local_defs = graph._children.get(node_id, {})
        local_imports: dict[str, str] = {}
        info = graph._functions[node_id]
        package = (
            mod.module
            if rel.endswith("__init__.py")
            else mod.module.rsplit(".", 1)[0]
            if "." in mod.module
            else ""
        )
        for node in _scoped_walk(scope):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias, target in _import_aliases(node, package):
                    local_imports[alias] = target
        mask = frozenset(_shadowed_names(scope) - set(local_defs))

        def resolver(name: str) -> tuple[str | None, str | None]:
            return _resolve_name(
                graph,
                mod,
                name,
                class_name,
                (*scopes, local_defs),
                (*shadowed, mask),
                local_imports,
            )

        graph._resolvers[node_id] = resolver
        sites: list[CallSite] = []
        for node in _scoped_walk(scope):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                attr = (
                    node.func.attr
                    if isinstance(node.func, ast.Attribute)
                    else None
                )
                sites.append(
                    CallSite(
                        file=rel, line=node.lineno, raw=None, attr=attr
                    )
                )
                continue
            target, external = resolver(name)
            attr = name.split(".")[-1] if "." in name else None
            sites.append(
                CallSite(
                    file=rel,
                    line=node.lineno,
                    raw=name,
                    target=target,
                    external=external,
                    attr=None if target or external else attr,
                )
            )
        graph._edges[node_id] = tuple(sites)
        for child_name, child_id in sorted(local_defs.items()):
            child_info = graph._functions[child_id]
            process(
                child_id,
                graph._ast[child_id],  # type: ignore[arg-type]
                class_name if child_info.class_name else class_name,
                (*scopes, local_defs),
                (*shadowed, mask),
            )

    for info in [
        i
        for i in graph._functions.values()
        if i.file == rel and i.parent is None
    ]:
        process(
            info.node_id,
            graph._ast[info.node_id],  # type: ignore[arg-type]
            info.class_name,
            (),
            (),
        )


def transitive_hits(
    graph: CallGraph,
    start: str,
    predicate: Callable[[CallSite], str | None],
    follow: Callable[[FunctionInfo], bool] | None = None,
) -> list[tuple[CallSite, tuple[str, ...], str]]:
    """Depth-≥1 reachable sites matching ``predicate``, with anchors.

    For every call site reachable from ``start`` *through at least one
    internal call* whose ``predicate(site)`` returns a label, yields
    ``(first_hop_site, path, label)`` — where ``first_hop_site`` is
    the call in ``start`` itself that enters the offending chain (the
    line a finding anchors on) and ``path`` is the shortest node chain
    from ``start`` to the function containing the site.  Sites
    lexically inside ``start`` (depth 0) are excluded: those belong to
    the corresponding local rule.
    """
    hop_site: dict[str, CallSite] = {}
    hits: list[tuple[CallSite, tuple[str, ...], str]] = []
    for path, site in graph.walk_sites(start, follow=follow):
        if (
            len(path) == 1
            and site.target is not None
            and site.target not in hop_site
        ):
            hop_site[site.target] = site
        if len(path) < 2:
            continue
        label = predicate(site)
        if label is None:
            continue
        first = hop_site.get(path[1])
        if first is not None:
            hits.append((first, path, label))
    return hits


def format_path(
    graph: CallGraph, path: Iterable[str], label: str
) -> str:
    """Render a call chain for a finding message.

    ``format_path(g, ("m:a", "m:b"), "time.sleep")`` →
    ``"a -> b -> time.sleep()"`` — the qualified names stay short
    (function quals, not module paths) because the finding already
    names the file.
    """
    hops = [graph.function(node_id).qual for node_id in path]
    return " -> ".join([*hops, f"{label}()"])
