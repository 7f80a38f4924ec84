"""Batch-analysis engine (substrate S12): many scenarios, one call.

The experiment layer's sweeps — Figure 5's Q grid, the acceptance
study's utilization × seed matrix, and anything larger — are expressed
as flat scenario lists and evaluated by :func:`run_batch`, the one
entry point: deterministically chunked, optionally fanned out over a
process pool, and streamed to JSONL/CSV sinks in scenario order.  Past
``max_workers × 4`` chunks submitted but not yet flushed, the pool
admits only the chunk that starts at the next index to flush, so a
slow chunk cannot grow the out-of-order buffer; with ``collect=False``
nothing is accumulated, so 10^5+-scenario sweeps run in constant
memory.  The inline path
(``max_workers=None``) is the reference: every parallel configuration
reproduces it bit-identically, because chunking is a pure function of
the input and every randomised scenario carries its own derived seed.

With a :class:`repro.store.ResultStore`, :func:`run_cached_batch`
makes sweeps *incremental*: already-computed scenarios are served from
the content-addressed store, fresh ones are checkpointed as they
stream, and sinks are fed from the store in scenario order as rows are
committed — so interrupted-and-resumed or sharded-and-merged sweeps produce
byte-identical output.  A failing worker surfaces as
:class:`WorkerError`, pinning the scenario index even across the
process-pool boundary.

Scenario shapes are *families* (:mod:`repro.engine.registry`): a
frozen scenario dataclass and a module-level worker returning a frozen
result dataclass (from which :func:`record_decoder` derives the
family's record decoder), registered under a stable name — ``bound``
and ``study`` in :mod:`repro.engine.sweeps`, ``sim`` and ``edf-study``
in :mod:`repro.engine.families`.  The registry is what lets declarative
campaign specs (:mod:`repro.campaign`) reach any workload by name.

Families evaluate against *shared-artifact contexts*
(:mod:`repro.engine.context`): expensive per-task-set / per-function
state — generated task sets, safe-Q vectors, delay maxima, benchmark
delay functions — is built once per key (:class:`TaskSetKey`,
:class:`BenchmarkKey`) through a per-process memo, and
``run_batch(..., group_by=family.context_key)`` shapes pooled chunks so
each worker builds every context exactly once while output order and
results stay bit-identical to the ungrouped path.

Layering: ``engine`` sits above ``core``/``sched``/``sim``/``tasks``
(whose analyses it invokes through the family workers) and below
:mod:`repro.experiments` and :mod:`repro.campaign`, whose public
generators route through it.  See ``docs/architecture.md``.
"""

from repro.engine.cached import (
    CachedRun,
    JobCancelled,
    emit_from_store,
    run_cached_batch,
)
from repro.engine.chunking import (
    default_chunk_size,
    derive_seed,
    grouped_chunk_plan,
)
from repro.engine.context import (
    BenchmarkContext,
    BenchmarkKey,
    TaskSetContext,
    TaskSetKey,
    build_context,
    clear_context_cache,
    get_context,
)
from repro.engine.engine import (
    WorkerError,
    resolve_workers,
    run_batch,
)
from repro.engine.families import (
    EdfStudyResult,
    EdfStudyScenario,
    SimResult,
    SimScenario,
    evaluate_edf_study_scenario,
    evaluate_sim_scenario,
)
from repro.engine.registry import (
    AxisSpec,
    ScenarioFamily,
    family_names,
    get_family,
    record_decoder,
    register_family,
)
from repro.engine.sinks import (
    CsvSink,
    JsonlSink,
    MemorySink,
    ResultSink,
    as_record,
    record_line,
)
from repro.engine.sweeps import (
    BoundResult,
    BoundScenario,
    StudyResult,
    StudyScenario,
    benchmark_function,
    evaluate_bound_scenario,
    evaluate_study_scenario,
    prepared_task_set,
    q_sweep_scenarios,
)

__all__ = [
    "default_chunk_size",
    "derive_seed",
    "grouped_chunk_plan",
    "BenchmarkContext",
    "BenchmarkKey",
    "TaskSetContext",
    "TaskSetKey",
    "build_context",
    "clear_context_cache",
    "get_context",
    "run_batch",
    "resolve_workers",
    "WorkerError",
    "CachedRun",
    "JobCancelled",
    "run_cached_batch",
    "emit_from_store",
    "ResultSink",
    "MemorySink",
    "JsonlSink",
    "CsvSink",
    "as_record",
    "record_line",
    "BoundScenario",
    "BoundResult",
    "StudyScenario",
    "StudyResult",
    "benchmark_function",
    "evaluate_bound_scenario",
    "evaluate_study_scenario",
    "prepared_task_set",
    "q_sweep_scenarios",
    "SimScenario",
    "SimResult",
    "evaluate_sim_scenario",
    "EdfStudyScenario",
    "EdfStudyResult",
    "evaluate_edf_study_scenario",
    "AxisSpec",
    "ScenarioFamily",
    "register_family",
    "get_family",
    "family_names",
    "record_decoder",
]
