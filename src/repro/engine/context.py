"""Shared-artifact analysis contexts: build the expensive object once per key.

Algorithm 1 and the Eq. 4 recurrence are cheap per ``(f, Q)`` point, but
a sweep grid evaluates *many* points against the *same* expensive shared
inputs: the generated task set, its per-task delay functions, its safe-Q
vector (:mod:`repro.npr`) and the global delay maxima the
event-accounting RTA methods read O(n²) times; or one Figure 4
benchmark function, its maximum and Algorithm 1's window index.
Re-deriving those per scenario is the dominant waste of a fig5-shaped
grid (hundreds of Q / height points per task set).

The key alone says what a context holds:

* :class:`TaskSetKey` ``(n_tasks, utilization, seed, delay_height,
  policy)`` builds a :class:`TaskSetContext` — the generated set, its
  delay maxima and the safe-Q vector of that one policy;
* :class:`BenchmarkKey` ``(function, interpretation, knots)`` builds a
  :class:`BenchmarkContext` — the function, its ``max f`` and its
  :func:`~repro.core.floating_npr.window_index`.

Keys are frozen and hashable and exclude the swept fields (``q``,
``q_fraction``), so every point of a grid over one set or function
shares one context.  Contexts are frozen and picklable, and every field
is built.  :func:`get_context` is a per-process memo of
:func:`build_context`, so engine workers evaluating a grouped slice (see
:func:`repro.engine.chunking.grouped_chunk_plan`) build each context
exactly once.

Bit-identity is the design constraint: every field is produced by the
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

#: Distinct contexts kept per process.  Grids interleave only a handful
#: of groups at a time (a q-major fig5 grid cycles through its three
#: functions), so a small memo already guarantees one build per worker.
CONTEXT_CACHE_SIZE = 32


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TaskSetKey:
    """Identity of one generated task set and its NPR length policy.

    Attributes:
        n_tasks: Tasks per generated set.
        utilization: Target total utilization.
        seed: Generator seed.
        delay_height: ``max f_i`` as a fraction of each task's WCET.
        policy: ``"fp"`` (Lehoczky blocking tolerances) or ``"edf"``
            (Bertogna & Baruah slack): the safe-Q vector the context
            builds.
    """

    n_tasks: int
    utilization: float
    seed: int
    delay_height: float
    policy: str

    @classmethod
    def of(cls, scenario: Any, policy: str) -> TaskSetKey:
        """The key of a scenario's ``n_tasks``, ``utilization``,
        ``seed`` and ``delay_height`` under ``policy``."""
        return cls(
            scenario.n_tasks,
            scenario.utilization,
            scenario.seed,
            scenario.delay_height,
            policy,
        )


@dataclass(frozen=True, slots=True)
class BenchmarkKey:
    """Identity of one Figure 4 benchmark delay function."""

    function: str
    interpretation: str
    knots: int


# ----------------------------------------------------------------------
# Contexts
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSetContext:
    """What a :class:`TaskSetKey` builds.  Mappings are plain dicts by
    construction — treat them as read-only.

    Attributes:
        key: The identity this context was built for.
        task_set: Generated, rate-monotonic-prioritised base set; NPR
            lengths are applied per scenario via
            :meth:`prepared_task_set`.
        delay_maxima: ``{task name: max f_i}``.
        safe_q: Maximal safe NPR lengths under ``key.policy``; ``None``
            when the set admits no assignment (a negative blocking
            tolerance or negative slack).
    """

    key: TaskSetKey
    task_set: TaskSet
    delay_maxima: dict[str, float]
    safe_q: dict[str, float] | None

    def prepared_task_set(self, q_fraction: float) -> TaskSet | None:
        """The base set with ``q_fraction``-scaled NPR lengths attached.

        Bit-identical to :func:`repro.engine.sweeps.prepared_task_set`
        on the same fields: the safe-Q vector was computed by the same
        ``*_max_npr_lengths`` call, and the scaling is the same
        :func:`repro.npr.assignment.apply_npr_lengths` arithmetic.

        Returns ``None`` when the set admits no NPR assignment (the
        per-set infeasibility the sweep counts as a rejection).

        Raises:
            ValueError: for an out-of-range fraction — it must fail
                loudly.
        """
        if not 0.0 < q_fraction <= 1.0:
            raise ValueError(f"q_fraction must lie in (0, 1], got {q_fraction}")
        if self.safe_q is None:
            return None
        try:
            return apply_npr_lengths(self.task_set, self.safe_q, q_fraction)
        except ValueError:
            # Some maximal length is 0: no positive NPR at any fraction.
            return None


@dataclass(frozen=True)
class BenchmarkContext:
    """What a :class:`BenchmarkKey` builds.

    Attributes:
        key: The identity this context was built for.
        function: The benchmark delay function.
        function_max: Its global maximum.
        function_index: Its :func:`~repro.core.floating_npr.window_index`
            (``None`` when its pieces meet only within the contiguity
            tolerance).
    """

    key: BenchmarkKey
    function: PreemptionDelayFunction
    function_max: float
    function_index: WindowIndex | None


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def _build_taskset_context(key: TaskSetKey) -> TaskSetContext:
    require(key.policy in ("edf", "fp"), f"unknown policy {key.policy!r}")
    factory = gaussian_delay_factory(relative_height=key.delay_height)
    base = generate_task_set(
        key.n_tasks,
        key.utilization,
        seed=key.seed,
        delay_function_factory=factory,
    ).rate_monotonic()
    delay_maxima = {
        task.name: task.delay_function.max_value()
        for task in base
        if task.delay_function is not None
    }
    safe_q = None
    if key.policy == "fp":
        beta = fp_blocking_tolerances(base)
        if all(value >= 0 for value in beta.values()):
            safe_q = fp_max_npr_lengths(base, tolerances=beta)
    else:
        try:
            safe_q = edf_max_npr_lengths(base)
        except ValueError:
            pass  # negative slack: no assignment exists
    return TaskSetContext(key, base, delay_maxima, safe_q)


def _build_benchmark_context(key: BenchmarkKey) -> BenchmarkContext:
    # Late import: the builder for Figure 4 functions lives above this
    # layer (repro.engine.sweeps / repro.experiments).
    from repro.engine.sweeps import benchmark_function

    f = benchmark_function(key.function, key.interpretation, key.knots)
    return BenchmarkContext(key, f, f.max_value(), window_index(f))


def build_context(
    key: TaskSetKey | BenchmarkKey,
) -> TaskSetContext | BenchmarkContext:
    """Build the context ``key`` names (see the module docstring).

    Raises:
        ValueError: for a task-set key with an unknown policy, or a key
            of neither kind.
    """
    if isinstance(key, TaskSetKey):
        return _build_taskset_context(key)
    if isinstance(key, BenchmarkKey):
        return _build_benchmark_context(key)
    raise ValueError(f"unknown context key kind: {key!r}")


def _get_context(
    key: TaskSetKey | BenchmarkKey,
) -> TaskSetContext | BenchmarkContext:
    """Per-process memoised :func:`build_context`.

    Workers call this per scenario; with group-respecting chunks
    (:func:`repro.engine.chunking.grouped_chunk_plan`) each worker
    builds each context exactly once and serves its whole slice from
    the memo.  Exposed as :data:`get_context`, a
    :class:`~repro.utils.caching.ThreadPinnedLRU` of
    :data:`CONTEXT_CACHE_SIZE` entries, so a serve slot thread keeps
    its group's context even when other slots evict it.
    """
    return build_context(key)


get_context = ThreadPinnedLRU(_get_context, CONTEXT_CACHE_SIZE)


def clear_context_cache() -> None:
    """Drop all memoised contexts (tests, benchmarks, long sweeps)."""
    get_context.cache_clear()
