"""Domain-invariant static analysis for the reproduction codebase.

The repo's load-bearing promises — content-addressed store keys two
machines agree on, byte-identical resumed/sharded streams, pure
process-pool workers, an event loop that never stalls — are easy to
break with one innocent line.  This package turns those invariants
into registered, named checkers.  Each is a query over the facts of
one pass that walks every scope of the parsed source tree once
(:mod:`repro.checks.callgraph`), starting from the live family
registry where it checks registered workers:

* ``determinism`` (``DET001``–``DET006``) — unseeded randomness,
  wall-clock/entropy reads, ``hash()`` of strings, unordered set
  iteration, exact float-literal equality, and entropy reachable from
  registered family workers through any call chain;
* ``worker-purity`` (``WP003``) — no ``global``/``nonlocal`` in
  registered workers;
* ``async-hygiene`` (``ASY001``–``ASY002``) — blocking calls inside
  (or transitively reachable from) ``async def``;
* ``concurrency`` (``LK001``–``LK003``) — inconsistent lock order,
  blocking while holding a lock, ``await`` under a sync lock;
* ``fork-safety`` (``FS001``–``FS002``) — loop/thread state or global
  mutation reachable from subprocess entry points.

The registry declarations (frozen scenario dataclasses, picklable
family callables, field help, workload flag groups) need no rule: the
registries reject a bad declaration when it is registered.

A call-site rule is a surface classifier (:mod:`repro.checks.surfaces`:
entropy/clock, blocking, loop/thread, global write) applied either to
the sites of one scope or along the call graph's one breadth-first
search from an entry set (workers, coroutines, fork entries, held
locks).

Run it as ``python -m repro check`` (see :mod:`repro.api.workloads`),
or programmatically via :func:`run_repo_checks`.  A reviewed false
positive is silenced on its line with ``# repro-check: ignore[CODE]``;
that is the one opt-out.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

# Importing the checker modules is what registers their rules; the
# order here fixes the registration (and docs-table) order.
from repro.checks import (  # noqa: F401
    concurrency,
    determinism,
    forksafety,
    hygiene,
    purity,
)
from repro.checks.callgraph import (
    CallGraph,
    CallSite,
    Scope,
    build_graph,
)
from repro.checks.model import (
    REPORT_VERSION,
    Checker,
    CheckReport,
    Finding,
    check_codes,
    check_groups,
    get_check,
    register_check,
    run_checks,
)
from repro.checks.sarif import report_to_sarif
from repro.checks.source import (
    DEFAULT_SUBDIRS,
    SourceFile,
    SourceTree,
    load_tree,
    parse_file,
    repo_root,
)

__all__ = [
    "REPORT_VERSION",
    "CallGraph",
    "CallSite",
    "Checker",
    "CheckReport",
    "Finding",
    "Scope",
    "build_graph",
    "check_codes",
    "check_groups",
    "get_check",
    "register_check",
    "run_checks",
    "report_to_sarif",
    "DEFAULT_SUBDIRS",
    "SourceFile",
    "SourceTree",
    "load_tree",
    "parse_file",
    "repo_root",
    "run_repo_checks",
]


def run_repo_checks(
    root: Path | None = None,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> CheckReport:
    """Run the full pass the ``check`` workload and CI job run.

    Args:
        root: Repository root (default: inferred from the package
            layout via :func:`repo_root`).
        select: Checker codes/groups/prefixes to run (default: all).
        ignore: Checker codes/groups/prefixes to drop from the run.
    """
    base = Path(root) if root is not None else repo_root()
    return run_checks(load_tree(base), select=select, ignore=ignore)
