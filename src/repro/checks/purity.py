"""Worker-purity checker (``WP``): scenario workers must not mutate
shared state.

The batch engine fans scenario chunks over a process pool, and nothing
a worker does may leak across scenarios through module globals: results
must be identical whether a scenario runs first, last, in-process or in
a fresh pool worker.

* ``WP003`` — a registered worker's body uses ``global``/``nonlocal``,
  i.e. mutates state that outlives one scenario evaluation.

The other halves of worker purity — a frozen scenario dataclass and
callables that pickle by qualified name — are checked where a family is
registered (:func:`repro.engine.registry.register_family`).  The rule is
*registry-driven*: it checks whatever is registered at run time, so a
new family is covered the moment it is registered.  The ``families``
parameter exists for the fixture tests, which check fabricated families
without touching the real registry.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.checks.model import Hits, registered_families, rule
from repro.checks.source import SourceTree


@rule("WP003", "worker-purity", "registered worker mutates module globals")
def check_worker_globals(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Hits:
    """``WP003``: registered worker bodies must not rebind outer state.

    Reads the ``global``/``nonlocal`` facts of the worker's scope and
    of every scope nested in it, found by the worker's module and
    qualified name; a worker defined outside the tree has no scope.
    """
    graph = tree.callgraph()
    for family in families if families is not None else registered_families():
        func = family.worker
        node_id = f"{func.__module__}:{func.__qualname__}"
        for scope in graph.scopes():
            if scope.node_id != node_id and not scope.node_id.startswith(
                f"{node_id}.<locals>."
            ):
                continue
            for line, _statement, names in scope.rebinds:
                yield scope.file, line, (
                    f"worker {func.__name__!r} of family "
                    f"{family.name!r} rebinds outer state "
                    f"({', '.join(names)}); workers must be pure — "
                    "shared state breaks run-order and pool-placement "
                    "independence"
                )
