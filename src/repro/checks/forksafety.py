"""Fork/subprocess-safety checkers (``FS``): what child workers touch.

The engine's process pools ship work to child processes (the serve
layer reaches them through ``run_cached_batch``): a module-level
function is pickled (or re-imported) and executed in a fresh
interpreter whose inherited state is a trap.  An asyncio event loop
does not survive a fork; threads do not exist in the child; a lock
captured mid-acquisition deadlocks forever.  These rules walk
everything reachable from a *subprocess entry point* — a function
passed to ``ProcessPoolExecutor.submit`` or
``multiprocessing.Process(target=…)`` — and flag the state it must
not touch:

* ``FS001`` — event-loop or thread machinery reachable from the entry
  point: any ``asyncio.*`` call, ``threading.Thread``/
  ``current_thread``/``enumerate``/``active_count``, or
  ``loop.run_until_complete``-style attribute calls.  Creating a
  *new* ``ThreadPoolExecutor`` inside the child is deliberately not
  flagged — fresh pools are legitimate child-side tools; inherited
  loop/thread handles are not.
* ``FS002`` — module-global mutation (``global``/``nonlocal``
  statements) reachable from the entry point.  A child's write to a
  module global silently diverges from the parent's copy — state
  smuggled through globals breaks the "scenario in, result out"
  worker contract that makes shard runs reproducible.

Both findings anchor on the offending statement and report the call
path from the entry point, so a violation three helpers deep is as
actionable as a lexical one.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checks.callgraph import CallSite, _scoped_walk, format_path
from repro.checks.model import Checker, Finding, register_check
from repro.checks.source import SourceTree

#: ``threading`` entry points that reference *live* thread machinery.
_THREAD_STATE = frozenset(
    {
        "threading.Thread",
        "threading.current_thread",
        "threading.enumerate",
        "threading.active_count",
        "threading.main_thread",
        "threading.settrace",
        "threading.setprofile",
    }
)

#: Attribute calls that operate on an event loop object.
_LOOP_ATTRS = frozenset(
    {
        "run_until_complete",
        "run_in_executor",
        "call_soon_threadsafe",
        "create_task",
        "ensure_future",
    }
)


def _loop_or_thread_label(site: CallSite) -> str | None:
    """The loop/thread surface a resolved call site touches, if any."""
    if site.external is not None:
        if site.external.split(".")[0] == "asyncio":
            return site.external
        if site.external in _THREAD_STATE:
            return site.external
    if site.attr is not None and site.attr in _LOOP_ATTRS:
        return site.raw or f".{site.attr}"
    return None


def _fs001(tree: SourceTree) -> Iterator[Finding]:
    """Loop/thread state reachable from subprocess entry points."""
    graph = tree.callgraph()
    covered = {file.rel for file in tree.files}
    reported: set[tuple[str, int, str]] = set()
    for entry, launch in sorted(
        graph.fork_entries(), key=lambda pair: (pair[0], pair[1].line)
    ):
        info = graph.function(entry)
        for path, site in graph.walk_sites(entry):
            label = _loop_or_thread_label(site)
            if label is None:
                continue
            if site.file not in covered:
                continue
            key = (site.file, site.line, label)
            if key in reported:
                continue
            reported.add(key)
            yield Finding(
                code="FS001",
                file=site.file,
                line=site.line,
                severity="error",
                message=(
                    f"{label}() runs in a child process: reachable "
                    f"from subprocess entry point {info.qual} "
                    f"(launched at {launch.file}:{launch.line}) via "
                    f"{format_path(graph, path, label)}; loops and "
                    "threads do not survive the fork boundary"
                ),
            )


def _fs002(tree: SourceTree) -> Iterator[Finding]:
    """Module-global mutation reachable from subprocess entry points."""
    graph = tree.callgraph()
    covered = {file.rel for file in tree.files}
    reported: set[tuple[str, int]] = set()
    for entry, launch in sorted(
        graph.fork_entries(), key=lambda pair: (pair[0], pair[1].line)
    ):
        info = graph.function(entry)
        seen = {entry}
        queue: list[tuple[str, ...]] = [(entry,)]
        while queue:
            path = queue.pop(0)
            node_id = path[-1]
            reached = graph.function(node_id)
            if reached.file in covered:
                # _scoped_walk stays out of nested defs: a global
                # statement belongs to the function that is actually
                # reachable, not to whatever encloses it lexically.
                for stmt in _scoped_walk(graph.ast_of(node_id)):
                    if not isinstance(stmt, ast.Global):
                        continue
                    key = (reached.file, stmt.lineno)
                    if key in reported:
                        continue
                    reported.add(key)
                    names = ", ".join(stmt.names)
                    chain = " -> ".join(
                        graph.function(n).qual for n in path
                    )
                    yield Finding(
                        code="FS002",
                        file=reached.file,
                        line=stmt.lineno,
                        severity="error",
                        message=(
                            f"global {names} mutated in a child "
                            "process: reachable from subprocess entry "
                            f"point {info.qual} (launched at "
                            f"{launch.file}:{launch.line}) via "
                            f"{chain}; the parent never sees the "
                            "write — thread state through the "
                            "scenario and the returned result"
                        ),
                    )
            for site in graph.callees(node_id):
                if site.target is not None and site.target not in seen:
                    seen.add(site.target)
                    queue.append((*path, site.target))


def _register() -> None:
    register_check(
        Checker(
            code="FS001",
            group="fork-safety",
            severity="error",
            summary="asyncio loop or live-thread state reachable from "
            "a subprocess entry point",
            run=_fs001,
        )
    )
    register_check(
        Checker(
            code="FS002",
            group="fork-safety",
            severity="error",
            summary="module-global mutation reachable from a "
            "subprocess entry point",
            run=_fs002,
        )
    )


_register()
