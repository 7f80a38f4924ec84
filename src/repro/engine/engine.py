"""The batch-analysis engine core.

:func:`run_batch` (and the class-shaped :class:`BatchEngine`) evaluates a
worker function over many scenarios with:

* **deterministic decomposition** — scenarios are split into contiguous
  index chunks (:func:`repro.engine.chunking.chunk_bounds`) and results
  are re-assembled in scenario order, so the output is a pure function
  of ``(worker, scenarios)`` regardless of worker count, executor kind
  or completion order;
* **a `concurrent.futures` worker pool** — ``ProcessPoolExecutor`` for
  CPU-bound analyses (the default) or ``ThreadPoolExecutor`` where
  fork/pickle overhead is not worth it; ``max_workers`` of ``None``/``1``
  runs inline with zero pool overhead;
* **streaming emission** — completed chunks are flushed to an optional
  :class:`~repro.engine.sinks.ResultSink` *in scenario order* as soon as
  their predecessors have been flushed; with ``collect=False`` results
  are *only* streamed (never accumulated), so sweeps of 10^5+ scenarios
  hold at most the bounded out-of-order chunk buffer in memory.

Workers must be module-level callables (picklable for the process pool)
taking one scenario and returning one result.  Scenarios should carry
their own seeds (see :func:`repro.engine.chunking.derive_seed`) so that
randomised analyses stay reproducible under any parallelism.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import TypeVar

from repro.engine.chunking import (
    chunk_bounds,
    default_chunk_size,
    grouped_chunk_plan,
)
from repro.engine.sinks import ResultSink, as_record
from repro.utils.checks import require

S = TypeVar("S")
R = TypeVar("R")

#: Supported executor kinds.
EXECUTORS = ("process", "thread")

#: Upper bound on chunks enqueued beyond the pool width, limiting both
#: the futures backlog and the out-of-order buffer the ordered flush may
#: have to hold.
_MAX_INFLIGHT_FACTOR = 4


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Tuning knobs for a :class:`BatchEngine`.

    Attributes:
        max_workers: Pool width.  ``None``, ``0`` or ``1`` evaluates
            inline in the calling process (the reference path every
            parallel configuration must reproduce bit-identically).
        chunk_size: Scenarios per chunk; ``None`` picks
            :func:`~repro.engine.chunking.default_chunk_size`.
        executor: ``"process"`` (default; true parallelism for the
            CPU-bound analyses) or ``"thread"``.
    """

    max_workers: int | None = None
    chunk_size: int | None = None
    executor: str = "process"

    def __post_init__(self) -> None:
        require(
            self.executor in EXECUTORS,
            f"executor must be one of {EXECUTORS}, got {self.executor!r}",
        )
        if self.max_workers is not None:
            require(
                self.max_workers >= 0,
                f"max_workers must be >= 0, got {self.max_workers}",
            )
        if self.chunk_size is not None:
            require(
                self.chunk_size > 0,
                f"chunk_size must be > 0, got {self.chunk_size}",
            )

    @property
    def parallel(self) -> bool:
        """Whether a worker pool (rather than the inline path) is used."""
        return self.max_workers is not None and self.max_workers > 1


def resolve_workers(requested: int | None = None) -> int:
    """Effective worker count: ``requested``, else the CPUs this process
    may run on (its affinity mask where the platform has one)."""
    if requested is not None and requested > 0:
        return requested
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class WorkerError(RuntimeError):
    """A worker raised while evaluating one scenario.

    In a 10^5-scenario sweep, "some exception somewhere in the pool" is
    useless — this wrapper pins the failure to its scenario index and
    repr.  It stores only the index and strings (plus the original
    exception as ``__cause__`` on the inline path), so it pickles
    cleanly back across a process-pool boundary, where the original
    traceback cannot survive.

    Attributes:
        index: Index of the failing scenario within the sweep.
        scenario_repr: ``repr`` of the failing scenario (truncated).
        cause_repr: ``repr`` of the original exception.
    """

    def __init__(
        self, index: int, scenario_repr: str, cause_repr: str
    ) -> None:
        super().__init__(
            f"worker failed on scenario {index} "
            f"({scenario_repr}): {cause_repr}"
        )
        self.index = index
        self.scenario_repr = scenario_repr
        self.cause_repr = cause_repr

    def __reduce__(self):
        return (
            type(self),
            (self.index, self.scenario_repr, self.cause_repr),
        )


def _worker_error(
    index: int, scenario: object, exc: BaseException
) -> WorkerError:
    scenario_repr = repr(scenario)
    if len(scenario_repr) > 200:
        scenario_repr = scenario_repr[:197] + "..."
    return WorkerError(index, scenario_repr, repr(exc))


def _run_chunk(
    worker: Callable[[S], R], scenarios: Sequence[S], start: int
) -> list[R]:
    """Evaluate one chunk sequentially (executed inside a pool worker)."""
    results: list[R] = []
    for offset, scenario in enumerate(scenarios):
        try:
            results.append(worker(scenario))
        except WorkerError:
            raise
        except Exception as exc:
            raise _worker_error(start + offset, scenario, exc) from exc
    return results


def _run_chunk_indexed(
    worker: Callable[[S], R],
    scenarios: Sequence[S],
    indices: Sequence[int],
) -> list[R]:
    """Evaluate one (possibly non-contiguous) index chunk sequentially.

    The grouped counterpart of :func:`_run_chunk`: scenario ``k`` of the
    chunk carries original stream index ``indices[k]``, which is what a
    :class:`WorkerError` must pin.
    """
    results: list[R] = []
    for offset, scenario in enumerate(scenarios):
        try:
            results.append(worker(scenario))
        except WorkerError:
            raise
        except Exception as exc:
            raise _worker_error(indices[offset], scenario, exc) from exc
    return results


class BatchEngine:
    """Evaluates scenario batches according to an :class:`EngineConfig`."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config or EngineConfig()

    def map(
        self,
        worker: Callable[[S], R],
        scenarios: Sequence[S],
        sink: ResultSink | None = None,
        collect: bool = True,
        group_by: Callable[[S], Hashable] | None = None,
    ) -> list[R] | None:
        """Evaluate ``worker`` over ``scenarios``; results in input order.

        Args:
            worker: Module-level callable ``scenario -> result``
                (picklable when the process executor is used).
            scenarios: The batch; may be empty.
            sink: Optional streaming sink; receives
                :func:`~repro.engine.sinks.as_record` of every result in
                scenario order, as chunks complete.
            collect: When ``False`` (requires a ``sink``), results are
                *only* streamed and never accumulated — the constant-
                memory mode for 10^5+-scenario sweeps.
            group_by: Optional ``scenario -> hashable key`` naming the
                shared-artifact group (typically a family's
                ``context_key``).  On the pooled path, chunks then
                respect group boundaries
                (:func:`~repro.engine.chunking.grouped_chunk_plan`) so
                each worker process builds every context once; results
                are still emitted in scenario order and are bit-identical
                to the ungrouped decomposition.  The inline path keeps
                plain scenario order — the per-process context memo
                already amortises there — so grouping never changes the
                reference results.  Chunks are planned in stream-front
                order (see
                :func:`~repro.engine.chunking.grouped_chunk_plan`), so
                the ordered flush buffers at most the in-flight chunks
                even when groups interleave.

        Returns:
            One result per scenario, ordered like ``scenarios``; ``None``
            when ``collect`` is ``False``.
        """
        if not collect:
            require(sink is not None, "collect=False requires a sink")
        if not self.config.parallel:
            results: list[R] | None = [] if collect else None
            for index, scenario in enumerate(scenarios):
                try:
                    result = worker(scenario)
                except WorkerError:
                    raise
                except Exception as exc:
                    raise _worker_error(index, scenario, exc) from exc
                if sink is not None:
                    sink.write(as_record(result))
                if results is not None:
                    results.append(result)
            return results
        if group_by is not None:
            return self._map_pooled_grouped(
                worker, scenarios, sink, collect, group_by
            )
        return self._map_pooled(worker, scenarios, sink, collect)

    def _map_pooled(
        self,
        worker: Callable[[S], R],
        scenarios: Sequence[S],
        sink: ResultSink | None,
        collect: bool,
    ) -> list[R] | None:
        workers = resolve_workers(self.config.max_workers)
        chunk_size = self.config.chunk_size or default_chunk_size(
            len(scenarios), workers
        )
        chunks = chunk_bounds(len(scenarios), chunk_size)
        if not chunks:
            return [] if collect else None
        executor_cls: type[Executor] = (
            ProcessPoolExecutor
            if self.config.executor == "process"
            else ThreadPoolExecutor
        )
        done_chunks: dict[int, list[R]] = {}
        ordered: list[R] | None = [] if collect else None
        next_chunk = 0  # next chunk index to flush
        max_inflight = workers * _MAX_INFLIGHT_FACTOR
        with executor_cls(max_workers=workers) as pool:
            pending: dict[Future[list[R]], int] = {}
            submit_cursor = 0
            while submit_cursor < len(chunks) or pending:
                # Gate on pending + done-but-unflushed so a slow early
                # chunk cannot grow the out-of-order buffer unboundedly.
                while (
                    submit_cursor < len(chunks)
                    and len(pending) + len(done_chunks) < max_inflight
                ):
                    start, stop = chunks[submit_cursor]
                    future = pool.submit(
                        _run_chunk, worker, list(scenarios[start:stop]), start
                    )
                    pending[future] = submit_cursor
                    submit_cursor += 1
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    done_chunks[pending.pop(future)] = future.result()
                while next_chunk in done_chunks:
                    chunk_results = done_chunks.pop(next_chunk)
                    if sink is not None:
                        for result in chunk_results:
                            sink.write(as_record(result))
                    if ordered is not None:
                        ordered.extend(chunk_results)
                    next_chunk += 1
        return ordered

    def _map_pooled_grouped(
        self,
        worker: Callable[[S], R],
        scenarios: Sequence[S],
        sink: ResultSink | None,
        collect: bool,
        group_by: Callable[[S], Hashable],
    ) -> list[R] | None:
        """Pooled evaluation over a group-respecting chunk plan.

        Chunks are single-group slices (possibly non-contiguous in the
        stream), so results are scattered back index by index and
        flushed in scenario order.  Submission is gated on the futures
        backlog; because the plan is ordered by smallest contained
        index, the chunk holding the next index to flush is always the
        oldest unfinished one, so the out-of-order buffer never exceeds
        the in-flight window of results.
        """
        workers = resolve_workers(self.config.max_workers)
        chunk_size = self.config.chunk_size or default_chunk_size(
            len(scenarios), workers
        )
        keys = [group_by(scenario) for scenario in scenarios]
        plan = grouped_chunk_plan(keys, chunk_size)
        if not plan:
            return [] if collect else None
        executor_cls: type[Executor] = (
            ProcessPoolExecutor
            if self.config.executor == "process"
            else ThreadPoolExecutor
        )
        buffer: dict[int, R] = {}  # completed, not yet flushed, by index
        ordered: list[R] | None = [] if collect else None
        next_index = 0  # next scenario index to flush
        max_inflight = workers * _MAX_INFLIGHT_FACTOR
        with executor_cls(max_workers=workers) as pool:
            pending: dict[Future[list[R]], int] = {}
            submit_cursor = 0
            while submit_cursor < len(plan) or pending:
                while (
                    submit_cursor < len(plan)
                    and len(pending) < max_inflight
                ):
                    indices = plan[submit_cursor]
                    future = pool.submit(
                        _run_chunk_indexed,
                        worker,
                        [scenarios[i] for i in indices],
                        indices,
                    )
                    pending[future] = submit_cursor
                    submit_cursor += 1
                finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    chunk = plan[pending.pop(future)]
                    for index, result in zip(chunk, future.result()):
                        buffer[index] = result
                while next_index in buffer:
                    result = buffer.pop(next_index)
                    if sink is not None:
                        sink.write(as_record(result))
                    if ordered is not None:
                        ordered.append(result)
                    next_index += 1
        return ordered


def run_batch(
    worker: Callable[[S], R],
    scenarios: Sequence[S],
    *,
    max_workers: int | None = None,
    chunk_size: int | None = None,
    executor: str = "process",
    sink: ResultSink | None = None,
    collect: bool = True,
    group_by: Callable[[S], Hashable] | None = None,
) -> list[R] | None:
    """One-call batch evaluation (the functional face of the engine).

    Args:
        worker: Module-level callable ``scenario -> result``.
        scenarios: The batch; may be empty.
        max_workers: ``None``/``0``/``1`` for the inline reference path,
            ``N > 1`` for a pool of ``N`` workers.
        chunk_size: Scenarios per chunk (default: auto).
        executor: ``"process"`` or ``"thread"``.
        sink: Optional streaming sink (records in scenario order).
        collect: ``False`` (with a ``sink``) streams without
            accumulating — constant memory for arbitrarily large sweeps.
        group_by: Optional shared-artifact grouping key (a family's
            ``context_key``); pooled chunks then respect group
            boundaries so each worker builds every
            :class:`repro.engine.context.AnalysisContext` once.  Purely
            a locality knob: results stay bit-identical and in scenario
            order.

    Returns:
        One result per scenario, in scenario order — identical for every
        ``(max_workers, chunk_size, executor, group_by)`` configuration —
        or ``None`` when ``collect`` is ``False``.
    """
    config = EngineConfig(
        max_workers=max_workers, chunk_size=chunk_size, executor=executor
    )
    return BatchEngine(config).map(
        worker,
        scenarios,
        sink=sink,
        collect=collect,
        group_by=group_by,
    )
