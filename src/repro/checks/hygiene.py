"""Async-hygiene checker (``ASY``): no blocking calls in coroutines.

``repro.serve`` runs one asyncio event loop for every connection it
serves; a single synchronous call inside a coroutine stalls *all* of
them (heartbeats, backpressure rejections, stream fan-out) for its
duration.  The server's own architecture note says it plainly: sqlite,
engine evaluation and anything else blocking belongs on the executor
thread, reached via ``run_in_executor``/``asyncio.to_thread``.

``ASY001`` flags calls to a known-blocking surface — ``time.sleep``,
``sqlite3``, ``subprocess``, sync socket constructors, the builtin
``open`` and ``pathlib`` file I/O — lexically inside an ``async def``
body (nested synchronous ``def`` bodies are exempt: they execute
wherever they are called, typically on the executor).

``ASY002`` is the interprocedural upgrade: the same blocking surface
reached from an ``async def`` *through any chain of synchronous
calls* (a helper three frames deep that opens a file stalls the loop
exactly as if the coroutine had).  The finding is anchored on the
first hop — the call in the coroutine that enters the chain, which is
the line that must change — and its message spells out the whole
path.  Chains are not followed into ``async`` callees (those are
checked in their own right) and lexical hits stay ``ASY001``'s, so
the two rules never double-report one site.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checks.callgraph import CallSite, format_path, transitive_hits
from repro.checks.model import Checker, Finding, register_check
from repro.checks.source import SourceTree, dotted_name

#: Exact dotted names of known-blocking calls.
_BLOCKING = frozenset(
    {
        "time.sleep",
        "sqlite3.connect",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "os.system",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)

#: Builtin calls that block on file/tty I/O.
_BLOCKING_BUILTINS = frozenset({"open", "input"})

#: Attribute suffixes of blocking ``pathlib.Path`` file operations.
_BLOCKING_ATTRS = frozenset(
    {
        "read_text",
        "write_text",
        "read_bytes",
        "write_bytes",
        "mkdir",
        "unlink",
        "rmdir",
    }
)


class _AsyncVisitor(ast.NodeVisitor):
    """Collect blocking calls whose *innermost* function is async."""

    def __init__(self) -> None:
        self.hits: list[tuple[int, str]] = []
        self._stack: list[bool] = []  # True = async frame

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(False)
        self.generic_visit(node)
        self._stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._stack.append(True)
        self.generic_visit(node)
        self._stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self._stack and self._stack[-1]:
            name = dotted_name(node.func)
            blocking = (
                name in _BLOCKING
                or name in _BLOCKING_BUILTINS
                or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BLOCKING_ATTRS
                )
            )
            if blocking:
                label = name or node.func.attr  # type: ignore[union-attr]
                self.hits.append((node.lineno, label))
        self.generic_visit(node)


def blocking_label(site: CallSite) -> str | None:
    """The blocking surface a resolved call site hits, if any.

    Matches the same sets ``ASY001`` uses lexically, but against the
    call graph's resolved view: canonical external names (so ``from
    time import sleep`` still reads ``time.sleep``), blocking builtins
    and the ``pathlib``-style attribute suffixes on unresolved
    receivers.  Shared by ``ASY002`` and the lock-discipline rules.
    """
    if site.external is not None:
        if (
            site.external in _BLOCKING
            or site.external in _BLOCKING_BUILTINS
        ):
            return site.external
        if site.external.split(".")[-1] in _BLOCKING_ATTRS:
            return site.external
    if site.attr is not None and site.attr in _BLOCKING_ATTRS:
        return site.raw or f".{site.attr}"
    return None


def check_async_hygiene(tree: SourceTree) -> Iterator[Finding]:
    """``ASY001`` over every coroutine in the tree."""
    for file in tree.files:
        visitor = _AsyncVisitor()
        visitor.visit(file.tree)
        for line, label in visitor.hits:
            yield Finding(
                code="ASY001",
                file=file.rel,
                line=line,
                severity="error",
                message=(
                    f"blocking call {label}() inside an async def stalls "
                    "the whole event loop; move it to the executor "
                    "thread (run_in_executor / asyncio.to_thread)"
                ),
            )


def check_async_transitive(tree: SourceTree) -> Iterator[Finding]:
    """``ASY002``: blocking surfaces reachable from coroutines."""
    graph = tree.callgraph()
    covered = {file.rel for file in tree.files}
    for info in graph.functions():
        if not info.is_async or info.file not in covered:
            continue
        seen: set[tuple[int, str]] = set()
        for first, path, label in transitive_hits(
            graph,
            info.node_id,
            blocking_label,
            follow=lambda callee: not callee.is_async,
        ):
            if (first.line, label) in seen:
                continue
            seen.add((first.line, label))
            yield Finding(
                code="ASY002",
                file=info.file,
                line=first.line,
                severity="error",
                message=(
                    f"async def {info.qual} reaches blocking "
                    f"{label}() through {format_path(graph, path, label)}; "
                    "the whole chain runs on the event loop — move the "
                    "entry call to the executor (run_in_executor / "
                    "asyncio.to_thread)"
                ),
            )


def _register() -> None:
    register_check(
        Checker(
            code="ASY001",
            group="async-hygiene",
            severity="error",
            summary="blocking call (sleep, sqlite, subprocess, file I/O) "
            "inside async def",
            run=check_async_hygiene,
        )
    )
    register_check(
        Checker(
            code="ASY002",
            group="async-hygiene",
            severity="error",
            summary="blocking call reachable from async def through a "
            "sync call chain (path reported)",
            run=check_async_transitive,
        )
    )


_register()
