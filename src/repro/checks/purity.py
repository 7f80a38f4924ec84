"""Worker-purity checkers (``WP``): scenario workers must pickle and
must not mutate shared state.

The batch engine fans scenario chunks over *process* pools: a worker
travels to its pool process by pickle (so it must be an importable
module-level function), its scenario must be an immutable value (the
store keys a frozen dataclass; a mutable scenario could drift between
keying and evaluation), and nothing it does may leak across scenarios
through module globals (results must be identical whether a scenario
runs first, last, in-process or in a fresh pool worker).

* ``WP001`` — a registered family's scenario dataclass is not frozen;
* ``WP002`` — a registered family callable (worker, decoder, context
  key) is not importable by its qualified name, so it cannot pickle
  into a process pool;
* ``WP003`` — a registered worker's body uses ``global``/``nonlocal``,
  i.e. mutates state that outlives one scenario evaluation.

These rules are *registry-driven*: they check whatever is registered at
run time, so a new family is covered the moment
:func:`repro.engine.registry.register_family` sees it.  The ``families``
parameter exists for the fixture tests, which check fabricated families
without touching the real registry.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable
from importlib import import_module
from typing import Any

from repro.checks.callgraph import module_name
from repro.checks.model import Hits, registered_families, rule
from repro.checks.source import SourceTree


def _importable(func: Callable) -> bool:
    """Whether ``func`` pickles by reference (module + qualname)."""
    qualname = getattr(func, "__qualname__", "")
    module = getattr(func, "__module__", "")
    if not qualname or not module or "<" in qualname:
        return False  # lambdas and <locals> never pickle
    try:
        target: Any = import_module(module)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError):
        return False
    return target is func


@rule("WP001", "worker-purity", "registered scenario dataclass is not frozen")
def check_frozen_scenarios(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Hits:
    """``WP001`` over ``families`` (default: the live registry)."""
    for family in families if families is not None else registered_families():
        scenario = family.scenario_type
        if not (
            dataclasses.is_dataclass(scenario)
            and scenario.__dataclass_params__.frozen
        ):
            yield *tree.locate(scenario), (
                f"scenario type {scenario.__name__!r} of family "
                f"{family.name!r} must be a frozen dataclass: the "
                "store keys the scenario value, and a mutable one "
                "could drift between keying and evaluation"
            )


@rule("WP002", "worker-purity", "registered family callable does not pickle "
      "(not module top level)")
def check_picklable_callables(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Hits:
    """``WP002`` over ``families`` (default: the live registry)."""
    for family in families if families is not None else registered_families():
        for role in ("worker", "decoder", "context_key"):
            func = getattr(family, role, None)
            if func is not None and not _importable(func):
                yield *tree.locate(func), (
                    f"{role} of family {family.name!r} "
                    f"({getattr(func, '__qualname__', func)!r}) is not "
                    "importable by its qualified name, so it cannot "
                    "pickle into the engine's process pools; define "
                    "it at module top level"
                )


@rule("WP003", "worker-purity", "registered worker mutates module globals")
def check_worker_globals(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Hits:
    """``WP003``: registered worker bodies must not rebind outer state.

    Reads the ``global``/``nonlocal`` facts of the worker's scope and
    of every scope nested in it.
    """
    graph = tree.callgraph()
    for family in families if families is not None else registered_families():
        func = family.worker
        file, _line = tree.locate(func)
        if tree.file(file) is None:
            continue  # defined outside the tree (tests)
        node_id = f"{module_name(file)}:{func.__qualname__}"
        for scope in graph.scopes():
            if scope.node_id != node_id and not scope.node_id.startswith(
                f"{node_id}.<locals>."
            ):
                continue
            for line, _statement, names in scope.rebinds:
                yield file, line, (
                    f"worker {func.__name__!r} of family "
                    f"{family.name!r} rebinds outer state "
                    f"({', '.join(names)}); workers must be pure — "
                    "shared state breaks run-order and pool-placement "
                    "independence"
                )
