"""Per-layer spans recorded from outside the program.

The benchmark never edits ``repro``: a traced run replaces the
functions each layer exports with timing wrappers, on the module
attribute the *caller* resolves.  Callers bind with ``from ... import``,
so patching the defining module alone would miss them; every target
below names the importing module whose global the hot path reads.

Self time: each thread keeps a stack of open spans.  A span's self time
is its duration minus the durations of the spans opened inside it, so
``sched`` excludes the kernel calls ``delay_aware_rta`` makes through
``algorithm1`` and ``store.get`` inside ``emit_from_store`` is not
charged to the engine.  What no span covers is ``engine.other_s``.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any


class Tracer:
    """Accumulates self time and call counts per span name."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Drop all totals.  Also the fork hook: the child of a forked
        process gets fresh locks, so a lock another parent thread held
        at fork time cannot deadlock it."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``; ``on_result`` sees each result."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with self._lock:
                    self.self_s[name] = (
                        self.self_s.get(name, 0.0) + elapsed - nested
                    )
                    self.calls[name] = self.calls.get(name, 0) + 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def snapshot(self) -> dict[str, dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def merge(self, snapshot: dict[str, dict[str, float]]) -> None:
        with self._lock:
            for field in ("self_s", "calls", "counts"):
                mine = getattr(self, field)
                for name, value in snapshot[field].items():
                    mine[name] = mine.get(name, 0) + value


#: (module, attribute, span) for every function the layers export.
FUNCTION_TARGETS = (
    ("repro.api.plan", "plan_scenarios", "plan"),
    ("repro.serve.server", "plan_scenarios", "plan"),
    ("repro.engine.context", "build_context", "context"),
    ("repro.engine.sweeps", "compare_bounds", "kernel"),
    ("repro.sched.crpd_rta", "floating_npr_delay_bound", "kernel"),
    ("repro.engine.sweeps", "delay_aware_rta", "sched"),
    ("repro.engine.cached", "scenario_key", "store.key"),
    ("repro.serve.server", "scenario_key", "store.key"),
)

#: (module, class, method, span) for the store and sink objects.
METHOD_TARGETS = (
    ("repro.store.backend", "ResultStore", "get", "store.get"),
    ("repro.store.backend", "ResultStore", "__contains__", "store.get"),
    ("repro.store.backend", "ResultStore", "put", "store.put"),
    ("repro.store.backend", "ResultStore", "commit", "store.commit"),
    ("repro.engine.sinks", "JsonlSink", "write", "sink"),
    ("repro.serve.server", "_JobSink", "write", "sink"),
)


def _windows(result: Any) -> int:
    """Algorithm 1 windows charged by one kernel result."""
    bound = getattr(result, "algorithm1", result)
    return int(bound.preemptions)


class Patches:
    """Installs the layer wrappers; :meth:`remove` restores originals."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Patches":
        tracer = self.tracer

        def on_kernel(result: Any) -> None:
            tracer.count("kernel.windows", _windows(result))

        def on_lookup(hit: bool) -> None:
            # ``key in store`` is the cache decision of a cached batch;
            # later ``get`` calls re-read rows already known present.
            tracer.count("store.hits" if hit else "store.misses")

        for module_name, attr, span in FUNCTION_TARGETS:
            module = importlib.import_module(module_name)
            hook = on_kernel if span == "kernel" else None
            self._set(
                module, attr, tracer.wrap(span, getattr(module, attr), hook)
            )
        for module_name, cls_name, method, span in METHOD_TARGETS:
            owner = getattr(importlib.import_module(module_name), cls_name)
            hook = on_lookup if method == "__contains__" else None
            self._set(
                owner, method, tracer.wrap(span, owner.__dict__[method], hook)
            )
        # Context lookups are counted, not timed: a lookup that builds
        # is already the ``context`` span.
        sweeps = importlib.import_module("repro.engine.sweeps")
        lookup = sweeps.get_context

        def counted_lookup(*args: Any) -> Any:
            tracer.count("context.lookups")
            return lookup(*args)

        self._set(sweeps, "get_context", counted_lookup)
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install_server_patches(tracer: Tracer, out_dir: Path) -> Patches:
    """Layer patches plus the server's own spans, for a traced server.

    ``AnalysisServer._run_job`` is the per-job root on the pool threads,
    ``_acquire_claims`` the wait on overlapping jobs and ``_run_sharded``
    the fan-out span (fork, wait, merge).  Shard sub-runs execute
    ``_evaluate_shard`` in forked processes, whose totals would die with
    them: the wrapper resets the tracer in the child and writes that
    call's totals to ``out_dir``.
    """
    patches = Patches(tracer).install()
    server = importlib.import_module("repro.serve.server")
    cls = server.AnalysisServer
    for method, span in (
        ("_run_job", "serve.job"),
        ("_acquire_claims", "serve.claims"),
        ("_run_sharded", "serve.fanout"),
    ):
        patches._set(cls, method, tracer.wrap(span, cls.__dict__[method]))
    shard = server._evaluate_shard

    @functools.wraps(shard)
    def traced_shard(spec: dict[str, Any]) -> dict[str, Any]:
        tracer.reset()
        try:
            return tracer.wrap("serve.shard", shard)(spec)
        finally:
            dump(tracer, out_dir / f"shard-{time.time_ns()}-{id(spec)}.json")

    patches._set(server, "_evaluate_shard", traced_shard)
    return patches


def dump(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(tracer.snapshot()))
    tmp.replace(path)


def load_dir(out_dir: Path) -> Tracer:
    """One tracer holding the sum of every dump in ``out_dir``."""
    total = Tracer()
    for path in sorted(out_dir.glob("*.json")):
        total.merge(json.loads(path.read_text()))
    return total
