"""Determinism checkers (``DET``): no hidden nondeterminism in results.

Everything this reproduction promises about caching and distribution —
content-addressed store keys that two machines agree on, resumed and
sharded streams byte-identical to uninterrupted runs, single-flight
dedup in
``repro.serve`` — is a determinism claim.  These rules flag the source
patterns that silently break it:

* ``DET001`` — module-level ``random.*`` calls (shared, unseeded
  global state; scenario workers must thread an explicit
  ``random.Random(seed)``);
* ``DET002`` — wall-clock/entropy reads (``time.time``,
  ``datetime.now``, ``os.urandom``, ``uuid.uuid4`` …) whose value
  would leak into results or keys;
* ``DET003`` — the builtin ``hash()`` outside ``__hash__``: string
  hashes are randomized per process (``PYTHONHASHSEED``), so a
  ``hash()``-derived value can never feed a store key or wire id;
* ``DET004`` — iterating a set display/comprehension/constructor
  directly: element order varies across processes, so any
  serialization fed from it is unstable (wrap in ``sorted``);
* ``DET005`` — ``==``/``!=`` against a non-integral float literal:
  analysis values are accumulated floats, and exact comparison against
  ``0.1``-style literals is a rounding bug waiting for an input;
* ``DET006`` — the interprocedural upgrade of DET001/DET002: a
  wall-clock, entropy or global-``random`` read reachable from a
  *registered scenario-family worker* through any chain of calls.
  Workers are what the engine fans out over process pools, and the
  registry's contract is that their results depend on the scenario
  alone — the finding anchors on the worker's first hop into the
  offending chain and reports the whole path.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.checks.callgraph import CallSite, format_path, transitive_hits
from repro.checks.model import Checker, Finding, register_check
from repro.checks.source import SourceFile, SourceTree, dotted_name

#: ``random``-module attributes that are fine at module level (the
#: seeded/class entry points a deterministic caller uses).
_RANDOM_OK = frozenset({"Random", "SystemRandom", "getstate", "setstate"})

#: Exact dotted names of wall-clock/entropy reads (DET002).
_CLOCK_ENTROPY = frozenset(
    {
        "time.time",
        "time.time_ns",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
    }
)

#: Dotted-name *suffixes* of naive now/today constructors (DET002);
#: matched on the last two parts so ``datetime.datetime.now`` and a
#: ``from datetime import datetime`` style ``datetime.now`` both hit.
_CLOCK_SUFFIXES = (
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
)


def _calls(file: SourceFile) -> Iterator[tuple[ast.Call, str | None]]:
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Call):
            yield node, dotted_name(node.func)


def _det001(tree: SourceTree) -> Iterator[Finding]:
    for file in tree.files:
        for call, name in _calls(file):
            if name is None or "." not in name:
                continue
            parts = name.split(".")
            hits_module_random = (
                parts[0] == "random" and parts[1] not in _RANDOM_OK
            )
            # numpy's legacy global generator: np.random.rand & co.
            hits_np_random = len(parts) >= 3 and parts[1] == "random"
            if hits_module_random or hits_np_random:
                yield Finding(
                    code="DET001",
                    file=file.rel,
                    line=call.lineno,
                    severity="error",
                    message=(
                        f"module-level randomness {name}() draws from "
                        "shared unseeded state; thread an explicit "
                        "random.Random(seed) through the scenario"
                    ),
                )


def _det002(tree: SourceTree) -> Iterator[Finding]:
    for file in tree.files:
        for call, name in _calls(file):
            if name is None:
                continue
            parts = tuple(name.split("."))
            if name in _CLOCK_ENTROPY or (
                len(parts) >= 2 and parts[-2:] in _CLOCK_SUFFIXES
            ):
                yield Finding(
                    code="DET002",
                    file=file.rel,
                    line=call.lineno,
                    severity="error",
                    message=(
                        f"{name}() reads wall-clock/entropy state; a "
                        "value derived from it can never enter results, "
                        "store keys or wire ids (perf_counter durations "
                        "for reporting are fine — they stay out of "
                        "records)"
                    ),
                )


class _HashVisitor(ast.NodeVisitor):
    """Find builtin ``hash(...)`` calls outside ``__hash__`` bodies."""

    def __init__(self) -> None:
        self.hits: list[int] = []
        self._stack: list[str] = []

    def _visit_function(self, node: ast.AST) -> None:
        self._stack.append(node.name)  # type: ignore[attr-defined]
        self.generic_visit(node)
        self._stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and "__hash__" not in self._stack
        ):
            self.hits.append(node.lineno)
        self.generic_visit(node)


def _det003(tree: SourceTree) -> Iterator[Finding]:
    for file in tree.files:
        visitor = _HashVisitor()
        visitor.visit(file.tree)
        for line in visitor.hits:
            yield Finding(
                code="DET003",
                file=file.rel,
                line=line,
                severity="error",
                message=(
                    "builtin hash() is process-seeded for strings "
                    "(PYTHONHASHSEED); derive identities from "
                    "repro.store.keys.canonical_bytes + hashlib instead"
                ),
            )


def _iterates_unordered(node: ast.AST) -> bool:
    """Whether ``node`` (an iterable position) is an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _det004(tree: SourceTree) -> Iterator[Finding]:
    for file in tree.files:
        spots: list[int] = []
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _iterates_unordered(node.iter):
                    spots.append(node.iter.lineno)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if _iterates_unordered(generator.iter):
                        spots.append(generator.iter.lineno)
        for line in spots:
            yield Finding(
                code="DET004",
                file=file.rel,
                line=line,
                severity="error",
                message=(
                    "iterating a set directly yields an unstable order "
                    "across processes; wrap it in sorted(...) before "
                    "anything ordered (output, serialization) consumes it"
                ),
            )


def _det005(tree: SourceTree) -> Iterator[Finding]:
    for file in tree.files:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            for side in (node.left, *node.comparators):
                if (
                    isinstance(side, ast.Constant)
                    and isinstance(side.value, float)
                    and not side.value.is_integer()
                ):
                    yield Finding(
                        code="DET005",
                        file=file.rel,
                        line=node.lineno,
                        severity="error",
                        message=(
                            f"exact equality against the float literal "
                            f"{side.value!r} on analysis values; compare "
                            "with an explicit tolerance (math.isclose or "
                            "the module's documented epsilon)"
                        ),
                    )
                    break


def entropy_label(site: CallSite) -> str | None:
    """The nondeterministic surface a resolved call site reads, if
    any.

    The union of DET001's and DET002's lexical sets, matched against
    the call graph's canonical external names (``from time import
    time`` still reads ``time.time``).
    """
    name = site.external
    if name is None:
        return None
    parts = name.split(".")
    if name in _CLOCK_ENTROPY:
        return name
    if len(parts) >= 2 and tuple(parts[-2:]) in _CLOCK_SUFFIXES:
        return name
    if (
        len(parts) >= 2
        and parts[0] == "random"
        and parts[1] not in _RANDOM_OK
    ):
        return name
    if len(parts) >= 3 and parts[1] == "random":
        return name
    return None


def _det006(tree: SourceTree) -> Iterator[Finding]:
    """``DET006``: entropy reachable from registered family workers."""
    graph = tree.callgraph()
    covered = {file.rel for file in tree.files}
    for node_id in sorted({node_id for node_id, _site in graph.worker_entries()}):
        info = graph.function(node_id)
        if info.file not in covered:
            continue
        seen: set[tuple[int, str]] = set()
        for first, path, label in transitive_hits(
            graph, node_id, entropy_label
        ):
            if (first.line, label) in seen:
                continue
            seen.add((first.line, label))
            yield Finding(
                code="DET006",
                file=info.file,
                line=first.line,
                severity="error",
                message=(
                    f"scenario-family worker {info.qual} reaches "
                    f"nondeterministic {label}() through "
                    f"{format_path(graph, path, label)}; worker results "
                    "must depend on the scenario alone (thread "
                    "random.Random(seed), never the wall clock)"
                ),
            )


def _register() -> None:
    register_check(
        Checker(
            code="DET001",
            group="determinism",
            severity="error",
            summary="module-level random.* call (shared unseeded state)",
            run=_det001,
        )
    )
    register_check(
        Checker(
            code="DET002",
            group="determinism",
            severity="error",
            summary="wall-clock/entropy read (time.time, datetime.now, "
            "os.urandom, uuid4)",
            run=_det002,
        )
    )
    register_check(
        Checker(
            code="DET003",
            group="determinism",
            severity="error",
            summary="builtin hash() outside __hash__ (PYTHONHASHSEED-"
            "randomized)",
            run=_det003,
        )
    )
    register_check(
        Checker(
            code="DET004",
            group="determinism",
            severity="error",
            summary="direct set iteration (unstable order feeding "
            "ordered consumers)",
            run=_det004,
        )
    )
    register_check(
        Checker(
            code="DET005",
            group="determinism",
            severity="error",
            summary="float == against a non-integral literal on "
            "analysis values",
            run=_det005,
        )
    )
    register_check(
        Checker(
            code="DET006",
            group="determinism",
            severity="error",
            summary="entropy/clock read reachable from a registered "
            "family worker (path reported)",
            run=_det006,
        )
    )


_register()
