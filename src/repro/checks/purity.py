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

import ast
import dataclasses
from collections.abc import Callable, Iterable, Iterator
from importlib import import_module
from typing import Any

from repro.checks.model import Checker, Finding, register_check
from repro.checks.source import SourceTree


def _registered_families() -> list[Any]:
    from repro.engine.registry import family_names, get_family

    return [get_family(name) for name in family_names()]


def _family_callables(family: Any) -> Iterator[tuple[str, Callable]]:
    for role in ("worker", "decoder", "context_key"):
        func = getattr(family, role, None)
        if func is not None:
            yield role, func


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


def check_frozen_scenarios(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Iterator[Finding]:
    """``WP001`` over ``families`` (default: the live registry)."""
    for family in families if families is not None else _registered_families():
        scenario = family.scenario_type
        frozen = (
            dataclasses.is_dataclass(scenario)
            and scenario.__dataclass_params__.frozen
        )
        if not frozen:
            file, line = tree.locate(scenario)
            yield Finding(
                code="WP001",
                file=file,
                line=line,
                severity="error",
                message=(
                    f"scenario type {scenario.__name__!r} of family "
                    f"{family.name!r} must be a frozen dataclass: the "
                    "store keys the scenario value, and a mutable one "
                    "could drift between keying and evaluation"
                ),
            )


def check_picklable_callables(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Iterator[Finding]:
    """``WP002`` over ``families`` (default: the live registry)."""
    for family in families if families is not None else _registered_families():
        for role, func in _family_callables(family):
            if not _importable(func):
                file, line = tree.locate(func)
                yield Finding(
                    code="WP002",
                    file=file,
                    line=line,
                    severity="error",
                    message=(
                        f"{role} of family {family.name!r} "
                        f"({getattr(func, '__qualname__', func)!r}) is not "
                        "importable by its qualified name, so it cannot "
                        "pickle into the engine's process pools; define "
                        "it at module top level"
                    ),
                )


def check_worker_globals(
    tree: SourceTree, families: Iterable[Any] | None = None
) -> Iterator[Finding]:
    """``WP003``: registered worker bodies must not rebind outer state."""
    for family in families if families is not None else _registered_families():
        func = family.worker
        file, line = tree.locate(func)
        covered = tree.file(file)
        if covered is None:
            continue  # defined outside the tree (tests)
        definition = _function_at(covered.tree, func.__name__, line)
        if definition is None:
            continue
        for node in ast.walk(definition):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                names = ", ".join(node.names)
                yield Finding(
                    code="WP003",
                    file=file,
                    line=node.lineno,
                    severity="error",
                    message=(
                        f"worker {func.__name__!r} of family "
                        f"{family.name!r} rebinds outer state "
                        f"({names}); workers must be pure — shared "
                        "state breaks run-order and pool-placement "
                        "independence"
                    ),
                )


def _function_at(
    module: ast.Module, name: str, line: int
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    best = None
    for node in ast.walk(module):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        ):
            if node.lineno == line:
                return node
            best = best or node
    return best


def _register() -> None:
    register_check(
        Checker(
            code="WP001",
            group="worker-purity",
            severity="error",
            summary="registered scenario dataclass is not frozen",
            run=check_frozen_scenarios,
        )
    )
    register_check(
        Checker(
            code="WP002",
            group="worker-purity",
            severity="error",
            summary="registered family callable does not pickle "
            "(not module top level)",
            run=check_picklable_callables,
        )
    )
    register_check(
        Checker(
            code="WP003",
            group="worker-purity",
            severity="error",
            summary="registered worker mutates module globals",
            run=check_worker_globals,
        )
    )


_register()
