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

from repro.checks.callgraph import CallGraph, CallSite, format_path
from repro.checks.model import Hits, rule
from repro.checks.source import SourceTree
from repro.checks.surfaces import loop_or_thread


def _launches(graph: CallGraph) -> list[tuple[str, CallSite]]:
    return sorted(graph.launches, key=lambda pair: (pair[0], pair[1].line))


@rule("FS001", "fork-safety", "asyncio loop or live-thread state reachable from "
      "a subprocess entry point")
def _fs001(tree: SourceTree) -> Hits:
    """Loop/thread state reachable from subprocess entry points."""
    graph = tree.callgraph()
    reported: set[tuple[str, int, str]] = set()
    for entry, launch in _launches(graph):
        for path, _via, site in graph.walk_sites(entry):
            label = loop_or_thread(site)
            if label is None or (site.file, site.line, label) in reported:
                continue
            reported.add((site.file, site.line, label))
            yield site.file, site.line, (
                f"{label}() runs in a child process: reachable "
                f"from subprocess entry point {graph.scope(entry).qual} "
                f"(launched at {launch.file}:{launch.line}) via "
                f"{format_path(graph, path, label)}; loops and "
                "threads do not survive the fork boundary"
            )


@rule("FS002", "fork-safety", "module-global mutation reachable from a "
      "subprocess entry point")
def _fs002(tree: SourceTree) -> Hits:
    """Module-global mutation reachable from subprocess entry points."""
    graph = tree.callgraph()
    reported: set[tuple[str, int]] = set()
    for entry, launch in _launches(graph):
        for path, _via in graph.reach(entry):
            # A global statement belongs to the scope it is written in:
            # the reached function, not whatever encloses it lexically.
            reached = graph.scope(path[-1])
            for line, statement, names in reached.rebinds:
                if statement != "global" or (reached.file, line) in reported:
                    continue
                reported.add((reached.file, line))
                chain = " -> ".join(graph.scope(n).qual for n in path)
                yield reached.file, line, (
                    f"global {', '.join(names)} mutated in a child "
                    "process: reachable from subprocess entry "
                    f"point {graph.scope(entry).qual} (launched at "
                    f"{launch.file}:{launch.line}) via "
                    f"{chain}; the parent never sees the "
                    "write — thread state through the "
                    "scenario and the returned result"
                )
