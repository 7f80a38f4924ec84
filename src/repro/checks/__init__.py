"""Domain-invariant static analysis for the reproduction codebase.

The repo's load-bearing promises — content-addressed store keys two
machines agree on, byte-identical resumed/sharded streams,
process-pool workers that pickle, an
event loop that never stalls — are easy to break with one innocent
line.  This package turns those invariants into registered, named
checkers over a parsed source tree, the live registries, and an
interprocedural call graph (:mod:`repro.checks.callgraph`):

* ``determinism`` (``DET001``–``DET006``) — unseeded randomness,
  wall-clock/entropy reads, ``hash()`` of strings, unordered set
  iteration, exact float-literal equality, and entropy reachable from
  registered family workers through any call chain;
* ``worker-purity`` (``WP001``–``WP003``) — frozen scenario
  dataclasses, picklable top-level family callables, no
  ``global``/``nonlocal`` in workers;
* ``async-hygiene`` (``ASY001``–``ASY002``) — blocking calls inside
  (or transitively reachable from) ``async def``;
* ``concurrency`` (``LK001``–``LK003``) — inconsistent lock order,
  blocking while holding a lock, ``await`` under a sync lock;
* ``fork-safety`` (``FS001``–``FS002``) — loop/thread state or global
  mutation reachable from subprocess entry points;
* ``contracts`` (``RC001``, ``RC002``, ``RC004``, ``RC005``) —
  registry/wire declarations that must not drift from the code they
  describe.

Run it as ``python -m repro check`` (see :mod:`repro.api.workloads`),
or programmatically via :func:`run_repo_checks`.  False positives are
silenced per line with ``# repro-check: ignore[CODE]``; pre-existing
findings are grandfathered in the committed ``checks-baseline.json``,
where every entry carries a reason and a stale entry (one whose
finding no longer fires) fails the pass until pruned
(``--prune-baseline``).
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

# Importing the checker modules is what registers their rules; the
# order here fixes the registration (and docs-table) order.
from repro.checks import (  # noqa: F401
    concurrency,
    contracts,
    determinism,
    forksafety,
    hygiene,
    purity,
)
from repro.checks.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
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
    load_baseline,
    prune_baseline,
    register_check,
    run_checks,
    write_baseline,
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
    "FunctionInfo",
    "build_graph",
    "check_codes",
    "check_groups",
    "get_check",
    "register_check",
    "run_checks",
    "load_baseline",
    "prune_baseline",
    "write_baseline",
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
    baseline_path: Path | None = None,
) -> CheckReport:
    """Run the full pass the ``check`` workload and CI job run.

    Args:
        root: Repository root (default: inferred from the package
            layout via :func:`repo_root`).
        select: Checker codes/groups/prefixes to run (default: all).
        ignore: Checker codes/groups/prefixes to drop from the run.
        baseline_path: Grandfathered-findings file (default:
            ``<root>/checks-baseline.json``; missing file = empty).
    """
    base = Path(root) if root is not None else repo_root()
    if baseline_path is None:
        baseline_path = base / "checks-baseline.json"
    return run_checks(
        load_tree(base),
        select=select,
        ignore=ignore,
        baseline=load_baseline(Path(baseline_path)),
    )
