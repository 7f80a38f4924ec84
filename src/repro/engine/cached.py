"""Store-integrated batch evaluation: skip, checkpoint, resume, merge.

:func:`run_cached_batch` is :func:`repro.engine.run_batch` with a
persistent memory (:class:`repro.store.ResultStore`):

1. every scenario is mapped to its content-addressed key
   (:func:`repro.store.scenario_key` under the store's code
   fingerprint);
2. scenarios whose key is already stored are *skipped* — their records
   are served from disk;
3. the rest are evaluated by the ordinary engine and **checkpointed**
   into the store as they stream out: the store commits every
   ``commit_every`` puts, and the run commits once more when it ends
   — however it ends — so a hard kill keeps all but the last partial
   batch;
4. the sink/return values are emitted **from the store** in scenario
   order, under the keys of step 1, as their rows become committed:
   the leading run of stored scenarios before evaluation starts, every
   further scenario whose row a checkpoint commit made durable right
   after that commit, and the rest after the final commit.

Step 4 is what makes resume exact: fresh results take the same
``record → strict JSON → record`` round trip as cached ones, so an
interrupted-and-resumed sweep emits final output *byte-identical* to an
uninterrupted run — and a set of shard stores merged with
:func:`repro.store.merge_stores` emits byte-identical output to an
unsharded run (:func:`emit_from_store`).  Because a fresh record
reaches the sink only once its row is committed, an interrupted run's
sink holds a prefix of the final output, which the resume rewrites
byte for byte.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, TypeVar

from repro.engine.engine import WorkerError, run_batch
from repro.engine.registry import Decoder
from repro.engine.sinks import ResultSink
from repro.store import ResultStore, scenario_key
from repro.utils.checks import require

S = TypeVar("S")
R = TypeVar("R")

class JobCancelled(RuntimeError):
    """A cached batch stopped because its ``cancel`` predicate fired.

    Raised between records, after the current record was checkpointed,
    so everything computed up to the cancellation is committed to the
    store — a later run of the same scenarios resumes instead of
    recomputing.  This is the cancellation seam :mod:`repro.serve`
    uses to stop a job whose clients have abandoned it.
    """


@dataclass(frozen=True, slots=True)
class CachedRun:
    """Outcome of one :func:`run_cached_batch` call.

    Attributes:
        results: Decoded results in scenario order (``None`` when
            ``collect=False``).
        total: Number of scenarios requested.
        cached: Scenarios served from the store without recomputation.
        computed: Scenarios evaluated (and checkpointed) this run.
    """

    results: list[Any] | None
    total: int
    cached: int
    computed: int


class _CheckpointSink(ResultSink):
    """Puts freshly computed records into the store, in scenario order.

    The engine guarantees record order matches the submitted scenario
    order, so a running cursor pairs each record with its key.  When a
    put commits, ``on_commit`` gets the number of records now durable.
    The optional ``on_result`` hook fires after each checkpointed
    record — progress reporting, and the test seam for simulating a
    mid-sweep kill (raising from the hook leaves a valid, committed
    prefix).
    """

    def __init__(
        self,
        store: ResultStore,
        keys: Sequence[str],
        on_commit: Callable[[int], None],
        on_result: Callable[[int], None] | None = None,
        cancel: Callable[[], bool] | None = None,
    ) -> None:
        self._store = store
        self._keys = keys
        self._cursor = 0
        self._on_commit = on_commit
        self._on_result = on_result
        self._cancel = cancel

    def write(self, record: Mapping[str, Any]) -> None:
        key = self._keys[self._cursor]
        self._cursor += 1
        if self._store.put(key, record):
            self._on_commit(self._cursor)
        if self._on_result is not None:
            self._on_result(self._cursor)
        if self._cancel is not None and self._cancel():
            # After the put: the record that triggered the check is
            # already stored, and the run's closing commit makes it
            # durable, so cancellation never loses work.
            raise JobCancelled(
                f"batch cancelled after {self._cursor} fresh record(s); "
                "completed work is checkpointed"
            )


def emit_from_store(
    store: ResultStore,
    scenarios: Sequence[S],
    sink: ResultSink | None = None,
    collect: bool = True,
) -> list[Any] | None:
    """Stream the stored records of ``scenarios``, in scenario order.

    Every scenario must already be present; a store missing records
    (an unfinished shard, wrong parameters) fails with a count rather
    than emitting a silently truncated result set.

    This entry point hashes each scenario's key itself (the ``merge``
    path, which has no keys yet); :func:`run_cached_batch` emits under
    the keys it already computed for its cache decision instead.

    Args:
        store: The store holding every scenario's record.
        scenarios: Scenario grid defining the emission order.
        sink: Optional sink receiving each record.
        collect: ``False`` streams to the sink only.

    Returns:
        The records in scenario order, or ``None``.
    """
    keys = [scenario_key(s, store.fingerprint) for s in scenarios]
    results: list[Any] | None = [] if collect else None
    _emit_keys(store, keys, sink, None, results)
    return results


def _emit_keys(
    store: ResultStore,
    keys: Sequence[str],
    sink: ResultSink | None,
    decode: Decoder | None,
    results: list[Any] | None,
) -> None:
    """:func:`emit_from_store` over precomputed keys, in their order,
    appending to ``results`` unless it is ``None``."""
    for record in store.records(keys):
        if record is None:
            # Count the damage only on the failure path; the happy path
            # stays one read query per chunk of keys.
            missing = sum(1 for _ in store.missing_indices(keys))
            require(
                False,
                f"store {store.path} is missing {missing} of "
                f"{len(keys)} scenario records — was every shard "
                "computed and merged?",
            )
        if sink is not None:
            sink.write(record)
        if results is not None:
            results.append(record if decode is None else decode(record))


def run_cached_batch(
    worker: Callable[[S], R],
    scenarios: Sequence[S],
    store: ResultStore,
    *,
    sink: ResultSink | None = None,
    collect: bool = True,
    decode: Decoder | None = None,
    max_workers: int | None = None,
    chunk_size: int | None = None,
    on_result: Callable[[int], None] | None = None,
    group_by: Callable[[S], Hashable] | None = None,
    cancel: Callable[[], bool] | None = None,
    keys: Sequence[str] | None = None,
) -> CachedRun:
    """Evaluate ``scenarios``, serving and checkpointing via ``store``.

    Args:
        worker: Module-level callable ``scenario -> result``.
        scenarios: The batch; may be empty.
        store: Persistent result store; its code fingerprint scopes the
            keys (stale stores fail at open time, not here).
        sink: Optional output sink; written *from the store* in
            scenario order, so output bytes do not depend on which
            scenarios were cached.  Each record is written once its row
            is committed: the leading stored scenarios before
            evaluation, the next stretch after each checkpoint commit,
            the rest after the final commit.  A run that raises leaves
            the sink holding a prefix of the full output.
        collect: ``False`` skips accumulating decoded results.
        decode: Optional record decoder (a family's
            :attr:`~repro.engine.registry.ScenarioFamily.decoder`) for
            the returned list; without it records are returned as-is.
        max_workers: Engine pool width for the fresh scenarios.
        chunk_size: Engine chunk size (default: auto).
        on_result: Hook called with the running count after each fresh
            record is checkpointed.
        cancel: Optional predicate polled before evaluation starts and
            after every fresh checkpoint; returning ``True`` raises
            :class:`JobCancelled` with all completed work committed.
        keys: The scenarios' store keys under ``store.fingerprint``,
            when the caller already hashed them (the serve layer claims
            them before the run).  Without it they are computed here.
            Either way each key is hashed once per run: the cache
            decision, the checkpoints and the emission all reuse the
            same list.
        group_by: Optional shared-artifact grouping key, forwarded to
            :func:`repro.engine.run_batch` for the cache-miss subset.
            Store keys stay strictly per-scenario — resume and shard
            semantics are untouched — but the misses are partitioned
            group-wise, so a warm store never forces a context rebuild
            for a group whose remaining scenarios are all cached, and a
            half-warm group is still evaluated against one context.

    Returns:
        A :class:`CachedRun` with results and cache statistics.

    The run issues exactly one :meth:`ResultStore.commit` of its own —
    on success, cancellation, a raising ``on_result`` hook or a worker
    failure alike — so whatever completed is durable, together with
    anything the caller wrote beforehand in the same transaction (the
    store's sweep manifest).  Each emission point reads its stretch of
    records with one query per chunk of keys.
    """
    if keys is None:
        keys = [scenario_key(s, store.fingerprint) for s in scenarios]
    else:
        require(
            len(keys) == len(scenarios),
            f"got {len(keys)} keys for {len(scenarios)} scenarios",
        )
    # The cache decision is one batched membership query per chunk of
    # keys.  A key repeated in the grid is computed once, at its first
    # position.
    pending: dict[str, int] = {}
    for index in store.missing_indices(keys):
        pending.setdefault(keys[index], index)
    missing = list(pending.values())  # ascending, as the indices came
    results: list[Any] | None = [] if collect else None
    emitted = 0

    def emit_until(stop: int) -> None:
        nonlocal emitted
        if stop > emitted:
            _emit_keys(store, keys[emitted:stop], sink, decode, results)
            emitted = stop

    def emit_committed(done: int) -> None:
        # The first ``done`` misses are committed, so is every stored
        # or repeated key before the next miss.
        emit_until(missing[done] if done < len(missing) else len(keys))

    try:
        emit_committed(0)
        if missing:
            if cancel is not None and cancel():
                raise JobCancelled(
                    "batch cancelled before evaluation started"
                )
            run_batch(
                worker,
                [scenarios[i] for i in missing],
                max_workers=max_workers,
                chunk_size=chunk_size,
                sink=_CheckpointSink(
                    store,
                    [keys[i] for i in missing],
                    emit_committed,
                    on_result,
                    cancel,
                ),
                collect=False,
                group_by=group_by,
            )
    except WorkerError as exc:
        # run_batch saw only the uncached subset; re-pin the index
        # to the caller's scenario list so "scenario 60 failed"
        # still means scenario 60 after a resume skipped 0..59.
        raise WorkerError(
            missing[exc.index], exc.scenario_repr, exc.cause_repr
        ) from exc
    finally:
        store.commit()
    emit_until(len(keys))
    return CachedRun(
        results=results,
        total=len(scenarios),
        cached=len(scenarios) - len(missing),
        computed=len(missing),
    )
