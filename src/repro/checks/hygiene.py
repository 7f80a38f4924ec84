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

from repro.checks.callgraph import format_path
from repro.checks.model import Hits, rule
from repro.checks.source import SourceTree
from repro.checks.surfaces import blocking


@rule("ASY001", "async-hygiene", "blocking call (sleep, sqlite, subprocess, file I/O) "
      "inside async def")
def check_async_hygiene(tree: SourceTree) -> Hits:
    """``ASY001`` over every coroutine in the tree."""
    for scope in tree.callgraph().scopes():
        for site in scope.sites if scope.is_async else ():
            label = blocking(site)
            if label is not None:
                yield site.file, site.line, (
                    f"blocking call {label}() inside an async def stalls "
                    "the whole event loop; move it to the executor "
                    "thread (run_in_executor / asyncio.to_thread)"
                )


@rule("ASY002", "async-hygiene", "blocking call reachable from async def through a "
      "sync call chain (path reported)")
def check_async_transitive(tree: SourceTree) -> Hits:
    """``ASY002``: blocking surfaces reachable from coroutines."""
    graph = tree.callgraph()
    for scope in graph.scopes():
        if not scope.is_async:
            continue
        seen: set[tuple[int, str]] = set()
        for path, via, site in graph.walk_sites(
            scope.node_id, follow=lambda callee: not callee.is_async
        ):
            label = None if via is None else blocking(site)
            if label is None or (via.line, label) in seen:
                continue
            seen.add((via.line, label))
            yield scope.file, via.line, (
                f"async def {scope.qual} reaches blocking "
                f"{label}() through {format_path(graph, path, label)}; "
                "the whole chain runs on the event loop — move the "
                "entry call to the executor (run_in_executor / "
                "asyncio.to_thread)"
            )
