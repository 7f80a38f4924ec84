"""The one scenario-evaluation pipeline behind every facade workload.

:func:`execute_scenarios` holds the ``--jobs/--store/--resume/--shard``
semantics exactly once: shard slicing, resume validation, store
lifecycle (manifest + shard scope recording), cached-vs-fresh
evaluation and the ``fail_after`` interruption seam, all driven by one
:class:`~repro.api.options.ExecutionOptions`.

Output-byte guarantees are inherited, not re-proven: the store path is
:func:`repro.engine.run_cached_batch` (byte-identical resume/merge) and
the direct path is :func:`repro.engine.run_batch` (bit-identical for
every worker count), so every workload built on this function gets the
same guarantees for free.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.api.options import ExecutionOptions, SinkSpec
from repro.engine.cached import Decoder, run_cached_batch
from repro.engine.engine import run_batch
from repro.engine.sinks import CsvSink, JsonlSink, ResultSink
from repro.utils.checks import require


@dataclass(frozen=True)
class ScenarioRun:
    """Outcome of one :func:`execute_scenarios` call.

    Attributes:
        scenarios: The scenarios actually evaluated (the shard slice,
            when one was requested).
        results: Collected results in scenario order, or ``None`` for
            stream-only (``collect=False``) runs.
        total: ``len(scenarios)``.
        cached: Scenarios served from the store without recomputation.
        computed: Scenarios freshly evaluated this run.
    """

    scenarios: list[Any]
    results: list[Any] | None
    total: int
    cached: int
    computed: int


def effective_results_dir(options: ExecutionOptions) -> Path:
    """The artifact directory an options object selects.

    ``options.results_dir`` wins; otherwise the environment-driven
    default of :func:`repro.experiments.io.results_dir` applies.  The
    directory is created on demand either way.
    """
    if options.results_dir is None:
        from repro.experiments.io import results_dir

        return results_dir()
    root = Path(options.results_dir)
    root.mkdir(parents=True, exist_ok=True)
    return root


def resolve_sinks(
    options: ExecutionOptions, default_name: str | None
) -> tuple[SinkSpec, ...]:
    """The final-output sinks of a run.

    Explicit ``options.sinks`` win; otherwise a single default sink
    ``<results_dir>/<default_name>.<format>`` is used (``None`` means
    the workload has no record output and the result is empty).
    """
    if options.sinks:
        return options.sinks
    if default_name is None:
        return ()
    path = effective_results_dir(options) / f"{default_name}.{options.format}"
    return (SinkSpec(str(path), options.format),)


class TeeSink(ResultSink):
    """Fan one record stream out to several sinks."""

    def __init__(self, sinks: Sequence[ResultSink]) -> None:
        self._sinks = list(sinks)

    def write(self, record: Mapping[str, Any]) -> None:
        for sink in self._sinks:
            sink.write(record)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


def open_sink(specs: Sequence[SinkSpec]) -> ResultSink | None:
    """Open the sink(s) a spec list describes (``None`` for empty)."""
    if not specs:
        return None
    sinks: list[ResultSink] = [
        CsvSink(spec.path)
        if spec.resolved_format == "csv"
        else JsonlSink(spec.path)
        for spec in specs
    ]
    return sinks[0] if len(sinks) == 1 else TeeSink(sinks)


def check_resume(options: ExecutionOptions) -> None:
    """Validate the ``resume``/``store`` combination.

    Raises:
        ValueError: when ``resume`` is set without a store, or with a
            store path that does not exist yet.
    """
    if not options.resume:
        return
    if options.store is None:
        raise ValueError("--resume requires --store")
    if not Path(options.store).exists():
        raise ValueError(
            f"--resume: store {options.store} does not exist"
        )


@contextmanager
def open_store(options: ExecutionOptions):
    """Yield the options' store, opened under the package fingerprint
    and closed afterwards (``None`` for store-less runs)."""
    check_resume(options)
    if options.store is None:
        yield None
        return
    from repro.store import ResultStore, package_fingerprint

    with ResultStore(
        options.store, fingerprint=package_fingerprint("repro")
    ) as store:
        yield store


def execute_scenarios(
    worker: Callable[[Any], Any],
    scenarios: Sequence[Any],
    *,
    options: ExecutionOptions | None = None,
    manifest: Mapping[str, Any] | None = None,
    group_by: Callable[[Any], Hashable] | None = None,
    decode: Decoder | None = None,
    collect: bool = True,
    sink: ResultSink | None = None,
    batch_worker: None = None,
    cancel: Callable[[], bool] | None = None,
) -> ScenarioRun:
    """Evaluate a scenario grid under one set of execution options.

    Args:
        worker: Module-level callable ``scenario -> result`` (a
            family's worker).
        scenarios: The *full* grid; shard slicing happens here.
        options: Execution options (default: inline, store-less).
        manifest: Grid-regeneration parameters, recorded into the
            store so ``repro merge`` can re-emit the final output.
        group_by: Shared-artifact grouping key (a family's
            ``context_key``).
        decode: Record decoder for store-served results, so cached and
            fresh results come back as the same types.
        collect: ``False`` streams to ``sink`` only (constant memory).
        sink: Optional final-output sink, written in scenario order.
        batch_worker: Must be ``None``.  Kept only because the repo
            benchmark (``perfbench/workloads.py``) still passes
            :attr:`ScenarioPlan.batch_worker
            <repro.api.plan.ScenarioPlan.batch_worker>`; every family
            evaluates per scenario.
        cancel: Optional cancellation predicate, forwarded to
            :func:`repro.engine.run_cached_batch` (store-backed runs
            only — a run with nowhere to checkpoint has nothing to
            resume, so cancelling it mid-flight would just lose work).

    Returns:
        The :class:`ScenarioRun` with results and cache statistics.
    """
    require(
        batch_worker is None,
        "batch_worker must be None: every family evaluates per scenario",
    )
    if options is None:
        options = ExecutionOptions()
    pair = options.shard_pair
    sliced = (
        list(scenarios)
        if pair is None
        else list(scenarios[pair[0] - 1 :: pair[1]])
    )

    fail_after = options.fail_after
    on_result: Callable[[int], None] | None = None
    if fail_after is not None:

        def on_result(count: int) -> None:
            if count >= fail_after:
                raise KeyboardInterrupt

    with open_store(options) as store:
        if store is not None:
            if manifest is not None:
                store.set_manifest(dict(manifest))
            store.set_shard(options.shard_scope)
            run = run_cached_batch(
                worker,
                sliced,
                store,
                sink=sink,
                collect=collect,
                decode=decode,
                max_workers=options.jobs,
                chunk_size=options.chunk,
                on_result=on_result,
                group_by=group_by,
                cancel=cancel,
            )
            return ScenarioRun(
                scenarios=sliced,
                results=run.results,
                total=run.total,
                cached=run.cached,
                computed=run.computed,
            )
    results = run_batch(
        worker,
        sliced,
        max_workers=options.jobs,
        chunk_size=options.chunk,
        sink=sink,
        collect=collect,
        group_by=group_by,
    )
    return ScenarioRun(
        scenarios=sliced,
        results=results,
        total=len(sliced),
        cached=0,
        computed=len(sliced),
    )


def manifest_scenarios(manifest: Mapping[str, Any]) -> list[Any]:
    """Rebuild the scenario grid a store manifest describes.

    The inverse of the ``manifest=`` argument above, used by ``repro
    merge`` to re-emit a merged store's final output in the original
    stream order.  A manifest holds its workload's grid parameters
    under a ``kind`` tag; the grid comes from that workload's planner
    (:data:`repro.api.plan.MANIFEST_WORKLOADS`).
    """
    from repro.api.plan import MANIFEST_WORKLOADS, plan_scenarios
    from repro.api.workloads import get_workload

    kind = manifest.get("kind")
    if kind not in MANIFEST_WORKLOADS:
        raise ValueError(
            f"unsupported sweep manifest {dict(manifest)!r}; expected "
            f"kind {', '.join(map(repr, MANIFEST_WORKLOADS))}"
        )
    workload = MANIFEST_WORKLOADS[kind]
    params = {key: value for key, value in manifest.items() if key != "kind"}
    resolved = get_workload(workload).resolve_params(params)
    return plan_scenarios(workload, resolved).scenarios
