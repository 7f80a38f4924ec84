"""The batch-analysis engine core.

:func:`run_batch` evaluates a worker function over many scenarios with:

* **deterministic decomposition** — scenarios are split into index
  chunks (:func:`repro.engine.chunking.grouped_chunk_plan`; without a
  ``group_by`` key that is contiguous ``chunk_size`` slices) and results
  are re-assembled in scenario order, so the output is a pure function
  of ``(worker, scenarios)`` regardless of worker count, grouping or
  completion order;
* **one process pool** — a ``concurrent.futures.ProcessPoolExecutor``
  for the CPU-bound analyses; ``max_workers`` of ``None``/``1`` runs
  inline with zero pool overhead;
* **streaming emission** — completed results are flushed to an optional
  :class:`~repro.engine.sinks.ResultSink` *in scenario order* as soon as
  their predecessors have been flushed; with ``collect=False`` results
  are *only* streamed (never accumulated), and chunk submission is
  gated on the chunks submitted but not yet flushed, so sweeps of 10^5+
  scenarios hold at most a bounded window of chunks in memory.  A
  store-backed run (:func:`repro.engine.run_cached_batch`) streams
  too, from the store: each record once its row is committed.

Workers must be module-level callables (picklable for the process pool)
taking one scenario and returning one result.  Scenarios should carry
their own seeds (see :func:`repro.engine.chunking.derive_seed`) so that
randomised analyses stay reproducible under any parallelism.
"""

from __future__ import annotations

import heapq
import os
from collections.abc import Callable, Hashable, Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from typing import TypeVar

from repro.engine.chunking import default_chunk_size, grouped_chunk_plan
from repro.engine.sinks import ResultSink, as_record
from repro.utils.checks import require

S = TypeVar("S")
R = TypeVar("R")

#: Chunks per pool worker that may be submitted but not yet flushed,
#: bounding both the futures backlog and the out-of-order buffer the
#: ordered flush may have to hold.
_MAX_INFLIGHT_FACTOR = 4


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


def _run_chunk_indexed(
    worker: Callable[[S], R],
    scenarios: Sequence[S],
    indices: Sequence[int],
) -> list[R]:
    """Evaluate one index chunk sequentially (inside a pool worker).

    Scenario ``k`` of the chunk carries stream index ``indices[k]``,
    which is what a :class:`WorkerError` must pin.
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


def run_batch(
    worker: Callable[[S], R],
    scenarios: Sequence[S],
    *,
    max_workers: int | None = None,
    chunk_size: int | None = None,
    sink: ResultSink | None = None,
    collect: bool = True,
    group_by: Callable[[S], Hashable] | None = None,
) -> list[R] | None:
    """Evaluate ``worker`` over ``scenarios``; results in input order.

    Args:
        worker: Module-level callable ``scenario -> result`` (picklable
            into the process pool).
        scenarios: The batch; may be empty.
        max_workers: ``None``/``0``/``1`` evaluates inline in the
            calling process (the reference path every parallel
            configuration must reproduce bit-identically); ``N > 1``
            uses a pool of ``N`` worker processes.
        chunk_size: Scenarios per chunk; ``None`` picks
            :func:`~repro.engine.chunking.default_chunk_size`.
        sink: Optional streaming sink; receives
            :func:`~repro.engine.sinks.as_record` of every result in
            scenario order, as chunks complete.
        collect: When ``False`` (requires a ``sink``), results are
            *only* streamed and never accumulated — the constant-memory
            mode for 10^5+-scenario sweeps.
        group_by: Optional ``scenario -> hashable key`` naming the
            shared-artifact group (typically a family's
            ``context_key``).  Pooled chunks then never span two groups
            (:func:`~repro.engine.chunking.grouped_chunk_plan`), so each
            worker builds every context
            (:mod:`repro.engine.context`) once.  The
            inline path keeps plain scenario order — the per-process
            context memo already amortises there.  Purely a locality
            knob: results stay bit-identical and in scenario order.

    Returns:
        One result per scenario, in scenario order — identical for every
        ``(max_workers, chunk_size, group_by)`` configuration —
        or ``None`` when ``collect`` is ``False``.

    On the pooled path a chunk is submitted only while fewer than
    ``max_workers × 4`` chunks are submitted but not yet flushed (in
    flight, or finished with results still waiting for an earlier
    index), or when it starts at the next index to flush — always
    admitted, so interleaved groups cannot stall.  A slow chunk
    therefore holds back the submission of later ones instead of
    growing the out-of-order buffer.
    """
    if max_workers is not None:
        require(max_workers >= 0, f"max_workers must be >= 0, got {max_workers}")
    if chunk_size is not None:
        require(chunk_size > 0, f"chunk_size must be > 0, got {chunk_size}")
    if not collect:
        require(sink is not None, "collect=False requires a sink")
    ordered: list[R] | None = [] if collect else None
    if max_workers is None or max_workers <= 1:
        for index, scenario in enumerate(scenarios):
            try:
                result = worker(scenario)
            except WorkerError:
                raise
            except Exception as exc:
                raise _worker_error(index, scenario, exc) from exc
            if sink is not None:
                sink.write(as_record(result))
            if ordered is not None:
                ordered.append(result)
        return ordered

    chunk_size = chunk_size or default_chunk_size(len(scenarios), max_workers)
    if group_by is None:
        keys: list[Hashable] = [None] * len(scenarios)
    else:
        keys = [group_by(scenario) for scenario in scenarios]
    plan = grouped_chunk_plan(keys, chunk_size)
    if not plan:
        return ordered
    buffer: dict[int, R] = {}  # finished, not yet flushed, by index
    held: list[int] = []  # last index of each finished, unflushed chunk
    next_index = 0  # next scenario index to flush
    max_inflight = max_workers * _MAX_INFLIGHT_FACTOR
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        pending: dict[Future[list[R]], int] = {}
        submit_cursor = 0
        while submit_cursor < len(plan) or pending:
            # The plan is ordered by first index, so a chunk holding the
            # next index to flush that is not yet submitted starts with
            # it and is next in the plan; admitting it past a full
            # window is what keeps interleaved groups from stalling.
            while submit_cursor < len(plan) and (
                len(pending) + len(held) < max_inflight
                or plan[submit_cursor][0] == next_index
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
                heapq.heappush(held, chunk[-1])
            while next_index in buffer:
                result = buffer.pop(next_index)
                if sink is not None:
                    sink.write(as_record(result))
                if ordered is not None:
                    ordered.append(result)
                next_index += 1
            while held and held[0] < next_index:
                heapq.heappop(held)
    return ordered
