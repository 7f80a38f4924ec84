"""Lock-discipline checkers (``LK``): deadlock and stall patterns.

``repro.serve`` mixes an asyncio event loop, an executor thread pool
and two mutable tables guarded by ``threading`` primitives
(``_slot_lock``, ``_claims_cond``).  That combination has exactly
three classic failure shapes, and each gets a rule:

* ``LK001`` — *inconsistent acquisition order*: somewhere lock ``B``
  is taken while ``A`` is held, somewhere else ``A`` while ``B`` is
  held (lexically nested ``with`` blocks or through any call chain).
  Two threads running those paths concurrently deadlock; the fix is
  one documented order.
* ``LK002`` — *blocking while holding a lock*: file/socket/subprocess
  I/O, ``future.result()``, ``concurrent.futures.wait`` or foreign
  ``.wait()``/``.acquire()`` reachable while a ``threading`` lock is
  held.  Every other thread touching the lock stalls for the
  operation's duration.  ``Condition.wait()`` *on a held condition
  itself* is the one exemption — that is the primitive's contract (it
  releases the lock while waiting).
* ``LK003`` — *await under a sync lock*: an ``await`` expression
  lexically inside a ``with some_threading_lock:`` block of a
  coroutine.  The coroutine parks at the await point still holding
  the lock; any executor thread then contending for it blocks its
  worker, and the loop can deadlock against its own pool.

Lock objects are identified structurally: ``self.x =
threading.Lock()`` (``RLock``/``Condition``/``Semaphore`` included)
gives the class-scoped identity ``module:Class.x``; a module-level
``x = threading.Lock()`` gives ``module:x``.  ``with`` statements on
those names are acquisitions.  ``.join()`` is deliberately *not* in
the blocking set (``str.join`` would drown the signal); thread joins
under a lock surface through the futures rules instead.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checks.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    format_path,
    module_name,
)
from repro.checks.hygiene import blocking_label
from repro.checks.model import Checker, Finding, register_check
from repro.checks.source import SourceTree, dotted_name

#: ``threading`` constructors whose instances count as locks here.
_LOCK_TYPES = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
)

#: Future-synchronisation calls that block the calling thread.
_FUTURE_BLOCKING = frozenset(
    {"concurrent.futures.wait", "concurrent.futures.as_completed"}
)

#: Attribute calls that block on synchronisation objects.
_SYNC_ATTRS = frozenset({"result", "wait", "acquire"})


def _is_lock_ctor(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] in _LOCK_TYPES


def _collect_locks(graph: CallGraph, tree: SourceTree) -> frozenset[str]:
    """Every structurally-identified lock in the tree.

    Identities: ``module:Class.attr`` for a ``self.attr = Lock()``
    assignment in any of the class's methods; ``module:name`` for a
    module-level ``name = Lock()``.
    """
    locks: set[str] = set()
    for info in graph.functions():
        if info.class_name is None:
            continue
        for stmt in ast.walk(graph.ast_of(info.node_id)):
            if not (
                isinstance(stmt, ast.Assign) and _is_lock_ctor(stmt.value)
            ):
                continue
            for target in stmt.targets:
                name = dotted_name(target)
                if name is not None and name.startswith("self."):
                    attr = name[len("self."):]
                    locks.add(f"{info.module}:{info.class_name}.{attr}")
    for file in tree.files:
        module = module_name(file.rel)
        for stmt in file.tree.body:
            if isinstance(stmt, ast.Assign) and _is_lock_ctor(stmt.value):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        locks.add(f"{module}:{target.id}")
    return frozenset(locks)


def _identity(
    name: str | None, info: FunctionInfo, locks: frozenset[str]
) -> str | None:
    """The lock identity a dotted source name refers to, if known."""
    if name is None:
        return None
    if name.startswith("self.") and info.class_name is not None:
        attr = name[len("self."):]
        ident = f"{info.module}:{info.class_name}.{attr}"
        return ident if ident in locks else None
    if "." not in name:
        ident = f"{info.module}:{name}"
        return ident if ident in locks else None
    return None


def _short(ident: str) -> str:
    """``module:Class.attr`` → ``Class.attr`` for messages."""
    return ident.split(":", 1)[1]


class _LockFacts:
    """What one function does with locks, lexically.

    Attributes:
        acquires: Lock identities taken anywhere in the body.
        pairs: ``(held, taken, line)`` — ``taken`` acquired by a
            ``with`` nested inside one holding ``held``.
        held_calls: ``(held identities, site)`` for every call made
            while at least one lock is held.
        held_awaits: ``(held identities, line)`` per ``await``
            evaluated under a held sync lock.
    """

    def __init__(self) -> None:
        self.acquires: set[str] = set()
        self.pairs: list[tuple[str, str, int]] = []
        self.held_calls: list[tuple[tuple[str, ...], CallSite]] = []
        self.held_awaits: list[tuple[tuple[str, ...], int]] = []


def _scan_function(
    graph: CallGraph, info: FunctionInfo, locks: frozenset[str]
) -> _LockFacts:
    facts = _LockFacts()
    sites_by_line: dict[int, list[CallSite]] = {}
    for site in graph.callees(info.node_id):
        sites_by_line.setdefault(site.line, []).append(site)
    claimed: set[int] = set()

    def visit(node: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return  # nested scopes are their own graph nodes
        if isinstance(node, ast.With):
            taken: list[str] = []
            for item in node.items:
                visit(item.context_expr, held)
                ident = _identity(
                    dotted_name(item.context_expr), info, locks
                )
                if ident is not None:
                    facts.acquires.add(ident)
                    for holder in held:
                        if holder != ident:
                            facts.pairs.append(
                                (holder, ident, node.lineno)
                            )
                    taken.append(ident)
            inner = (*held, *taken)
            for stmt in node.body:
                visit(stmt, inner)
            return
        if isinstance(node, ast.Await) and held:
            facts.held_awaits.append((held, node.lineno))
        if isinstance(node, ast.Call) and held:
            for site in sites_by_line.get(node.lineno, ()):
                if id(site) not in claimed:
                    claimed.add(id(site))
                    facts.held_calls.append((held, site))
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for child in ast.iter_child_nodes(graph.ast_of(info.node_id)):
        visit(child, ())
    return facts


class _Analysis:
    """Shared per-tree lock analysis the three LK rules read."""

    def __init__(self, tree: SourceTree) -> None:
        self.graph = tree.callgraph()
        self.locks = _collect_locks(self.graph, tree)
        self.facts: dict[str, _LockFacts] = {
            info.node_id: _scan_function(self.graph, info, self.locks)
            for info in self.graph.functions()
        }
        self._closure: dict[str, frozenset[str]] = {}
        self._hits: dict[
            str, list[tuple[tuple[str, ...], CallSite, str, str | None]]
        ] = {}

    # -- transitive acquisitions (LK001) ---------------------------------

    def closure_acquires(self, node_id: str) -> frozenset[str]:
        """Locks acquired by ``node_id`` or anything it reaches."""
        memo = self._closure.get(node_id)
        if memo is not None:
            return memo
        acquired: set[str] = set()
        seen = {node_id}
        queue = [node_id]
        while queue:
            current = queue.pop(0)
            acquired |= self.facts[current].acquires
            for site in self.graph.callees(current):
                if site.target is not None and site.target not in seen:
                    seen.add(site.target)
                    queue.append(site.target)
        result = frozenset(acquired)
        self._closure[node_id] = result
        return result

    # -- transitive blocking (LK002) -------------------------------------

    def blocking_hits(
        self, node_id: str
    ) -> list[tuple[tuple[str, ...], CallSite, str, str | None]]:
        """Blocking sites reachable from ``node_id`` (depth 0 up).

        Each hit is ``(path, site, label, receiver identity)`` — the
        identity is set for ``.wait()``/``.acquire()`` on a known lock
        so the caller can apply the held-condition exemption with its
        own held set.
        """
        memo = self._hits.get(node_id)
        if memo is not None:
            return memo
        hits: list[tuple[tuple[str, ...], CallSite, str, str | None]] = []
        for path, site in self.graph.walk_sites(node_id):
            container = self.graph.function(path[-1])
            label, ident = self._blocking(site, container)
            if label is not None:
                hits.append((path, site, label, ident))
        self._hits[node_id] = hits
        return hits

    def _blocking(
        self, site: CallSite, container: FunctionInfo
    ) -> tuple[str | None, str | None]:
        """Classify one site: ``(blocking label, receiver identity)``."""
        if site.target is not None:
            # Calls into functions of the tree are walked, not
            # pattern-matched (an internal method named .result() or
            # .wait() is not a futures call).
            return None, None
        if site.external in _FUTURE_BLOCKING:
            return site.external, None
        label = blocking_label(site)
        if label is not None:
            return label, None
        attr = site.attr or (
            site.raw.split(".")[-1] if site.raw else None
        )
        if attr in _SYNC_ATTRS:
            receiver = (
                site.raw.rsplit(".", 1)[0]
                if site.raw and "." in site.raw
                else None
            )
            ident = _identity(receiver, container, self.locks)
            return site.raw or f".{attr}", ident
        return None, None


def _analysis(tree: SourceTree) -> _Analysis:
    """The tree's lock analysis, computed once and shared.

    Memoized on the tree's call graph, so the three LK rules scan each
    function exactly once.
    """
    graph = tree.callgraph()
    memo = getattr(graph, "_lock_analysis", None)
    if memo is None:
        memo = _Analysis(tree)
        graph._lock_analysis = memo
    return memo


def _lk001(tree: SourceTree) -> Iterator[Finding]:
    """Inconsistent lock acquisition order across the tree."""
    analysis = _analysis(tree)
    graph = analysis.graph
    covered = {file.rel for file in tree.files}
    # Ordered pair occurrences: (held, taken) -> [(file, line)].
    occurrences: dict[tuple[str, str], list[tuple[str, int]]] = {}
    for info in graph.functions():
        facts = analysis.facts[info.node_id]
        for held, taken, line in facts.pairs:
            occurrences.setdefault((held, taken), []).append(
                (info.file, line)
            )
        for held, site in facts.held_calls:
            if site.target is None:
                continue
            for taken in analysis.closure_acquires(site.target):
                for holder in held:
                    if holder != taken:
                        occurrences.setdefault(
                            (holder, taken), []
                        ).append((info.file, site.line))
    for (held, taken), spots in sorted(occurrences.items()):
        reverse = occurrences.get((taken, held))
        if not reverse:
            continue
        counter_file, counter_line = sorted(reverse)[0]
        for file, line in sorted(set(spots)):
            if file not in covered:
                continue
            yield Finding(
                code="LK001",
                file=file,
                line=line,
                severity="error",
                message=(
                    f"lock {_short(taken)} is acquired while "
                    f"{_short(held)} is held, but the opposite order "
                    f"occurs at {counter_file}:{counter_line}; two "
                    "threads running both paths deadlock — pick one "
                    "acquisition order"
                ),
            )


def _lk002(tree: SourceTree) -> Iterator[Finding]:
    """Blocking operations reachable while a lock is held."""
    analysis = _analysis(tree)
    graph = analysis.graph
    for file in tree.files:
        rel = file.rel
        for info in graph.functions():
            if info.file != rel:
                continue
            facts = analysis.facts[info.node_id]
            seen: set[tuple[int, str]] = set()
            for held, site in facts.held_calls:
                label, ident, path = None, None, None
                direct_label, direct_ident = analysis._blocking(
                    site, info
                )
                if direct_label is not None:
                    label, ident = direct_label, direct_ident
                    path = (info.node_id,)
                elif site.target is not None:
                    for hit in analysis.blocking_hits(site.target):
                        hit_path, _hit_site, hit_label, hit_ident = hit
                        if hit_ident is not None and hit_ident in held:
                            continue  # held-condition exemption
                        label, ident = hit_label, hit_ident
                        path = (info.node_id, *hit_path)
                        break
                if label is None or path is None:
                    continue
                if ident is not None and ident in held:
                    continue  # cond.wait() under its own lock
                if (site.line, label) in seen:
                    continue
                seen.add((site.line, label))
                yield Finding(
                    code="LK002",
                    file=rel,
                    line=site.line,
                    severity="error",
                    message=(
                        f"blocking {label}() reachable while "
                        f"{', '.join(_short(h) for h in held)} is held "
                        f"({format_path(graph, path, label)}); every "
                        "thread contending for the lock stalls for its "
                        "duration — release the lock first"
                    ),
                )


def _lk003(tree: SourceTree) -> Iterator[Finding]:
    """``await`` parked under a held synchronous lock."""
    analysis = _analysis(tree)
    graph = analysis.graph
    for file in tree.files:
        for info in graph.functions():
            if info.file != file.rel or not info.is_async:
                continue
            for held, line in analysis.facts[info.node_id].held_awaits:
                yield Finding(
                    code="LK003",
                    file=file.rel,
                    line=line,
                    severity="error",
                    message=(
                        f"await while holding sync lock "
                        f"{', '.join(_short(h) for h in held)}: the "
                        "coroutine parks holding it and executor "
                        "threads contending for the lock stall the "
                        "pool — do the awaiting outside the with block"
                    ),
                )


def _register() -> None:
    register_check(
        Checker(
            code="LK001",
            group="concurrency",
            severity="error",
            summary="inconsistent lock acquisition order between two "
            "sites (deadlock)",
            run=_lk001,
        )
    )
    register_check(
        Checker(
            code="LK002",
            group="concurrency",
            severity="error",
            summary="blocking I/O or future-wait reachable while a "
            "threading lock is held",
            run=_lk002,
        )
    )
    register_check(
        Checker(
            code="LK003",
            group="concurrency",
            severity="error",
            summary="await under a held synchronous lock inside a "
            "coroutine",
            run=_lk003,
        )
    )


_register()
