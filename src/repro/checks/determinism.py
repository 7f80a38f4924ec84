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

from repro.checks.callgraph import Scope, format_path
from repro.checks.model import Hits, rule
from repro.checks.source import SourceTree
from repro.checks.surfaces import entropy


@rule("DET001", "determinism", "module-level random.* call (shared "
      "unseeded state)")
def _det001(tree: SourceTree) -> Hits:
    for scope in tree.callgraph().scopes():
        for site in scope.sites:
            if entropy(site) == "random":
                yield site.file, site.line, (
                    f"module-level randomness {site.raw}() draws from "
                    "shared unseeded state; thread an explicit "
                    "random.Random(seed) through the scenario"
                )


@rule("DET002", "determinism", "wall-clock/entropy read (time.time, "
      "datetime.now, os.urandom, uuid4)")
def _det002(tree: SourceTree) -> Hits:
    for scope in tree.callgraph().scopes():
        for site in scope.sites:
            if entropy(site) == "clock":
                yield site.file, site.line, (
                    f"{site.raw}() reads wall-clock/entropy state; a "
                    "value derived from it can never enter results, "
                    "store keys or wire ids (perf_counter durations "
                    "for reporting are fine — they stay out of "
                    "records)"
                )


def _inside_dunder_hash(scope: Scope | None) -> bool:
    while scope is not None:
        if scope.kind == "def" and scope.name == "__hash__":
            return True
        scope = scope.enclosing
    return False


@rule("DET003", "determinism", "builtin hash() outside __hash__ "
      "(PYTHONHASHSEED-randomized)")
def _det003(tree: SourceTree) -> Hits:
    for scope in tree.callgraph().scopes():
        if _inside_dunder_hash(scope):
            continue
        for site in scope.sites:
            if site.external == "hash":
                yield site.file, site.line, (
                    "builtin hash() is process-seeded for strings "
                    "(PYTHONHASHSEED); derive identities from "
                    "repro.store.keys.canonical_bytes + hashlib instead"
                )


@rule("DET004", "determinism", "direct set iteration (unstable order "
      "feeding ordered consumers)")
def _det004(tree: SourceTree) -> Hits:
    for scope in tree.callgraph().scopes():
        for line in scope.unordered:
            yield scope.file, line, (
                "iterating a set directly yields an unstable order "
                "across processes; wrap it in sorted(...) before "
                "anything ordered (output, serialization) consumes it"
            )


@rule("DET005", "determinism", "float == against a non-integral literal "
      "on analysis values")
def _det005(tree: SourceTree) -> Hits:
    for scope in tree.callgraph().scopes():
        for line, literal in scope.float_compares:
            yield scope.file, line, (
                f"exact equality against the float literal "
                f"{literal!r} on analysis values; compare "
                "with an explicit tolerance (math.isclose or "
                "the module's documented epsilon)"
            )


@rule("DET006", "determinism", "entropy/clock read reachable from a "
      "registered family worker (path reported)")
def _det006(tree: SourceTree) -> Hits:
    graph = tree.callgraph()
    for node_id in sorted({node_id for node_id, _site in graph.workers}):
        worker = graph.scope(node_id)
        seen: set[tuple[int, str]] = set()
        for path, via, site in graph.walk_sites(node_id):
            if via is None or entropy(site) is None:
                continue
            label = site.external
            if (via.line, label) in seen:
                continue
            seen.add((via.line, label))
            yield worker.file, via.line, (
                f"scenario-family worker {worker.qual} reaches "
                f"nondeterministic {label}() through "
                f"{format_path(graph, path, label)}; worker results "
                "must depend on the scenario alone (thread "
                "random.Random(seed), never the wall clock)"
            )
