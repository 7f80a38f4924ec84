"""Shared-artifact analysis contexts: compute per-task-set state once.

Algorithm 1 and the Eq. 4 recurrence are cheap per ``(f, Q)`` point, but
a sweep grid evaluates *many* points against the *same* expensive shared
inputs: the generated task set, its per-task delay functions, the
Lehoczky blocking tolerances and safe-Q vectors (:mod:`repro.npr`), and
the global delay maxima the event-accounting RTA methods read O(n²)
times.  Re-deriving those per scenario is the dominant waste of a
fig5-shaped grid (hundreds of Q / height points per task set).

This module makes the shared state explicit:

* :class:`ContextKey` — a frozen, hashable identity derived from exactly
  the scenario fields that determine the artifacts (seed, n_tasks,
  utilization, delay shape — *not* the swept ``q``/``q_fraction``);
* :class:`AnalysisContext` — a frozen, picklable bundle of the artifacts
  themselves, built once per key;
* :func:`get_context` — a per-process LRU memo, so engine workers
  evaluating a grouped slice (see
  :func:`repro.engine.chunking.grouped_chunk_plan`) build each context
  exactly once;
* artifact names (:data:`TASK_SET`, :data:`FP_CURVES`, …) that scenario
  families *declare* in the registry
  (:class:`repro.engine.registry.ScenarioFamily`), so the builder only
  computes what a family actually consumes.

Bit-identity is the design constraint: every artifact is produced by the
same public functions the single-shot path calls
(:func:`repro.tasks.generate_task_set`,
:func:`repro.npr.fp_max_npr_lengths`, …), so context-served evaluations
reproduce the context-free ones float for float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.delay_function import PreemptionDelayFunction
from repro.core.floating_npr import WindowIndex, window_index
from repro.npr.assignment import apply_npr_lengths
from repro.npr.qmax_edf import edf_max_npr_lengths
from repro.npr.qmax_fp import fp_blocking_tolerances, fp_max_npr_lengths
from repro.tasks.generation import gaussian_delay_factory, generate_task_set
from repro.tasks.task import TaskSet
from repro.utils.caching import ThreadPinnedLRU
from repro.utils.checks import require

# ----------------------------------------------------------------------
# Artifact vocabulary
# ----------------------------------------------------------------------

#: The generated, priority-ordered base task set (no NPR lengths yet).
TASK_SET = "task-set"
#: Per-task global maxima ``max f_i`` (what Eq. 4 and the Busquets /
#: Petters event accounting read, repeatedly).
DELAY_MAXIMA = "delay-maxima"
#: Lehoczky blocking tolerances ``beta_i`` plus the fixed-priority
#: safe-Q vector derived from them.
FP_CURVES = "fp-curves"
#: The EDF (Bertogna & Baruah slack) safe-Q vector.
EDF_CURVES = "edf-curves"
#: One Figure 4 benchmark delay function (+ its max and Algorithm 1's
#: window index, shared by every Q evaluated against it).
BENCHMARK_FUNCTION = "benchmark-function"

#: Artifacts a task-set-shaped context can carry.
TASKSET_ARTIFACTS = (
    TASK_SET,
    DELAY_MAXIMA,
    FP_CURVES,
    EDF_CURVES,
)
#: Artifacts a benchmark-function context can carry.
BENCHMARK_ARTIFACTS = (BENCHMARK_FUNCTION,)

#: Context kinds (the dispatch tag of :func:`build_context`).
TASKSET_KIND = "taskset"
BENCHMARK_KIND = "benchmark"

#: Distinct contexts kept per process.  Grids interleave only a handful
#: of groups at a time (a q-major fig5 grid cycles through its three
#: functions), so a small memo already guarantees one build per worker.
CONTEXT_CACHE_SIZE = 32


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ContextKey:
    """Identity of one shared-artifact context.

    Attributes:
        kind: :data:`TASKSET_KIND` or :data:`BENCHMARK_KIND`.
        params: The determining fields as sorted ``(name, value)``
            pairs — hashable, picklable, and printable for diagnostics.
    """

    kind: str
    params: tuple[tuple[str, Any], ...]

    def __getitem__(self, name: str) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)


def taskset_context_key(
    n_tasks: int,
    utilization: float,
    seed: int,
    delay_height: float,
) -> ContextKey:
    """Key of the task-set context those fields determine.

    The scheduling policy is deliberately *not* part of the key: the
    context carries the safe-Q vectors for both policies, so fp and EDF
    scenarios over the same generated set share one context.
    """
    return ContextKey(
        kind=TASKSET_KIND,
        params=(
            ("delay_height", delay_height),
            ("n_tasks", n_tasks),
            ("seed", seed),
            ("utilization", utilization),
        ),
    )


def benchmark_context_key(
    function: str, interpretation: str, knots: int
) -> ContextKey:
    """Key of the Figure 4 benchmark-function context."""
    return ContextKey(
        kind=BENCHMARK_KIND,
        params=(
            ("function", function),
            ("interpretation", interpretation),
            ("knots", knots),
        ),
    )


# ----------------------------------------------------------------------
# The context
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisContext:
    """Every artifact shared by the scenarios of one :class:`ContextKey`.

    Frozen and picklable; fields are ``None`` unless the corresponding
    artifact was requested at build time.  Mappings are plain dicts by
    construction — treat them as read-only.

    Attributes:
        key: The identity this context was built for.
        artifacts: The artifact names actually built.
        task_set: Generated, rate-monotonic-prioritised base set
            (:data:`TASK_SET`); NPR lengths are applied per scenario via
            :meth:`prepared_task_set`.
        delay_maxima: ``{task name: max f_i}`` (:data:`DELAY_MAXIMA`).
        beta_fp: Lehoczky blocking tolerances (:data:`FP_CURVES`).
        safe_q_fp: Maximal safe fixed-priority NPR lengths; ``None``
            (with :data:`FP_CURVES` built) when some tolerance is
            negative — the set admits no assignment.
        safe_q_edf: Maximal safe EDF NPR lengths (:data:`EDF_CURVES`);
            ``None`` when the set has negative slack.
        function: The benchmark delay function
            (:data:`BENCHMARK_FUNCTION`).
        function_max: Its precomputed global maximum.
        function_index: Its :func:`~repro.core.floating_npr.window_index`
            (``None`` when its pieces meet only within the contiguity
            tolerance).
    """

    key: ContextKey
    artifacts: tuple[str, ...]
    task_set: TaskSet | None = None
    delay_maxima: dict[str, float] | None = None
    beta_fp: dict[str, float] | None = None
    safe_q_fp: dict[str, float] | None = None
    safe_q_edf: dict[str, float] | None = None
    function: PreemptionDelayFunction | None = None
    function_max: float | None = None
    function_index: WindowIndex | None = None

    def prepared_task_set(
        self, policy: str, q_fraction: float
    ) -> TaskSet | None:
        """The base set with ``fraction``-scaled NPR lengths attached.

        Bit-identical to
        :func:`repro.engine.sweeps.prepared_task_set` on the same
        fields: the safe-Q vector was computed by the same
        ``*_max_npr_lengths`` call, and the scaling is the same
        :func:`repro.npr.assignment.apply_npr_lengths` arithmetic.

        Returns ``None`` when the set admits no NPR assignment (the
        per-set infeasibility the sweep counts as a rejection).

        Raises:
            ValueError: for invalid *parameters* (unknown policy,
                out-of-range fraction) — these must fail loudly.
        """
        if policy not in ("edf", "fp"):
            raise ValueError(f"unknown policy {policy!r}")
        if not 0.0 < q_fraction <= 1.0:
            raise ValueError(f"q_fraction must lie in (0, 1], got {q_fraction}")
        # A missing artifact is a family mis-declaration, never a
        # silent "this set is infeasible".
        needed = FP_CURVES if policy == "fp" else EDF_CURVES
        if TASK_SET not in self.artifacts or needed not in self.artifacts:
            raise ValueError(
                f"context {self.key.kind!r} was built without "
                f"{TASK_SET!r}/{needed!r}; declare them in the family's "
                "artifacts"
            )
        lengths = self.safe_q_fp if policy == "fp" else self.safe_q_edf
        if lengths is None:
            return None
        try:
            return apply_npr_lengths(self.task_set, lengths, q_fraction)
        except ValueError:
            # Some maximal length is 0: no positive NPR at any fraction.
            return None


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _build_taskset_context(
    key: ContextKey, artifacts: tuple[str, ...]
) -> AnalysisContext:
    factory = gaussian_delay_factory(relative_height=key["delay_height"])
    base = generate_task_set(
        key["n_tasks"],
        key["utilization"],
        seed=key["seed"],
        delay_function_factory=factory,
    ).rate_monotonic()

    delay_maxima = None
    if DELAY_MAXIMA in artifacts:
        delay_maxima = {
            task.name: task.delay_function.max_value()
            for task in base
            if task.delay_function is not None
        }

    beta_fp = safe_q_fp = None
    if FP_CURVES in artifacts:
        beta_fp = fp_blocking_tolerances(base)
        if all(beta >= 0 for beta in beta_fp.values()):
            safe_q_fp = fp_max_npr_lengths(base, tolerances=beta_fp)

    safe_q_edf = None
    if EDF_CURVES in artifacts:
        try:
            safe_q_edf = edf_max_npr_lengths(base)
        except ValueError:
            safe_q_edf = None  # negative slack: no assignment exists

    return AnalysisContext(
        key=key,
        artifacts=artifacts,
        task_set=base if TASK_SET in artifacts else None,
        delay_maxima=delay_maxima,
        beta_fp=beta_fp,
        safe_q_fp=safe_q_fp,
        safe_q_edf=safe_q_edf,
    )


def _build_benchmark_context(
    key: ContextKey, artifacts: tuple[str, ...]
) -> AnalysisContext:
    # Late import: the builder for Figure 4 functions lives above this
    # layer (repro.engine.sweeps / repro.experiments).
    from repro.engine.sweeps import benchmark_function

    f = benchmark_function(
        key["function"], key["interpretation"], key["knots"]
    )
    return AnalysisContext(
        key=key,
        artifacts=artifacts,
        function=f,
        function_max=f.max_value(),
        function_index=window_index(f),
    )


def build_context(
    key: ContextKey, artifacts: tuple[str, ...]
) -> AnalysisContext:
    """Build the context of ``key``, computing only ``artifacts``.

    Args:
        key: The context identity.
        artifacts: Artifact names (a family's registry declaration);
            must belong to the key's kind.

    Raises:
        ValueError: for unknown kinds or artifacts of the wrong kind.
    """
    valid = (
        TASKSET_ARTIFACTS if key.kind == TASKSET_KIND else BENCHMARK_ARTIFACTS
    )
    unknown = [name for name in artifacts if name not in valid]
    require(
        not unknown,
        f"unknown artifact(s) {', '.join(unknown)} for context kind "
        f"{key.kind!r}; valid: {', '.join(valid)}",
    )
    if key.kind == TASKSET_KIND:
        return _build_taskset_context(key, artifacts)
    require(
        key.kind == BENCHMARK_KIND,
        f"unknown context kind {key.kind!r}",
    )
    return _build_benchmark_context(key, artifacts)


def _get_context(
    key: ContextKey, artifacts: tuple[str, ...]
) -> AnalysisContext:
    """Per-process memoised :func:`build_context`.

    Workers call this per scenario; with group-respecting chunks
    (:func:`repro.engine.chunking.grouped_chunk_plan`) each worker
    builds each context exactly once and serves its whole slice from
    the memo.  Exposed as :data:`get_context`, a
    :class:`~repro.utils.caching.ThreadPinnedLRU` of
    :data:`CONTEXT_CACHE_SIZE` entries, so a serve slot thread keeps
    its group's context even when other slots evict it.
    """
    return build_context(key, artifacts)


get_context = ThreadPinnedLRU(_get_context, CONTEXT_CACHE_SIZE)


def clear_context_cache() -> None:
    """Drop all memoised contexts (tests, benchmarks, long sweeps)."""
    get_context.cache_clear()
