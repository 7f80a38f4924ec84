"""Concrete scenario types and workers for the batch engine.

The two original scenario families cover the paper's evaluation
surface (the simulation-validation and EDF families live in
:mod:`repro.engine.families`; all are registered in
:mod:`repro.engine.registry`):

* :class:`BoundScenario` — one ``(benchmark function, Q)`` point of a
  delay-bound sweep (the Figure 5 shape).
* :class:`StudyScenario` — one randomly generated task set of a
  schedulability acceptance study (the Section VI / EXT-D shape).  The
  scenario carries its own seed, making results independent of which
  worker evaluates it.

Both workers evaluate against a context resolved through the
per-process memo :func:`repro.engine.context.get_context`: the bound
worker's :class:`~repro.engine.context.BenchmarkKey` reuses one built
benchmark function (with its global maximum and window index) across
every Q of a sweep, the study worker's
:class:`~repro.engine.context.TaskSetKey` reuses one generated task
set, its fixed-priority safe-Q vector and its delay maxima across every
``q_fraction``.  The context-served results are bit-identical to
the single-shot recipes (:func:`prepared_task_set` + the ``sched``
tests), which the context tests assert.

Workers are module-level functions (hence picklable) returning frozen
dataclasses, which :func:`repro.engine.sinks.as_record` flattens for the
streaming sinks.  Both workers are *definitionally* equivalent to the
pre-engine single-shot code paths; the engine tests assert bit-identical
results between ``max_workers=1`` and ``N``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bounds import compare_bounds
from repro.core.delay_function import PreemptionDelayFunction
from repro.engine.context import BenchmarkKey, TaskSetKey, get_context
from repro.npr.assignment import assign_npr_lengths
from repro.sched.crpd_rta import delay_aware_rta
from repro.tasks.generation import gaussian_delay_factory, generate_task_set
from repro.tasks.task import TaskSet
from repro.utils.checks import require

# ----------------------------------------------------------------------
# Delay-bound sweeps (Figure 5 shape)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class BoundScenario:
    """One point of a delay-bound sweep.

    Attributes:
        function: Benchmark function name (one of
            :data:`repro.experiments.functions_fig4.FIG4_NAMES`).
        q: The floating-NPR length to analyse.
        interpretation: Benchmark parameter interpretation.
        knots: Piecewise resolution of the benchmark function.
    """

    function: str
    q: float
    interpretation: str = "literal"
    knots: int = 2048


@dataclass(frozen=True, slots=True)
class BoundResult:
    """Bounds for one :class:`BoundScenario`.

    Attributes:
        function: Scenario function name.
        q: Scenario NPR length.
        algorithm1: Algorithm 1's cumulative delay bound.
        state_of_the_art: The Eq. 4 bound.
        converged: Whether Algorithm 1 converged (``False`` means both
            bounds are infinite).
        preemptions: Number of windows Algorithm 1 charged.
    """

    function: str
    q: float
    algorithm1: float
    state_of_the_art: float
    converged: bool
    preemptions: int


def benchmark_function(
    name: str, interpretation: str = "literal", knots: int = 2048
) -> PreemptionDelayFunction:
    """Build one Figure 4 benchmark function.

    Building a 2048-knot benchmark function costs orders of magnitude
    more than one bound evaluation, so it is built once per
    :class:`~repro.engine.context.BenchmarkKey`: the
    :class:`~repro.engine.context.BenchmarkContext` calls this, and the
    context memo (:func:`repro.engine.context.get_context`) is what
    every Q of a sweep reuses.
    """
    from repro.experiments.functions_fig4 import fig4_delay_function

    return fig4_delay_function(name, interpretation, knots)


def bound_context_key(scenario: BoundScenario) -> BenchmarkKey:
    """The context key of one bound scenario: its function."""
    return BenchmarkKey(
        scenario.function, scenario.interpretation, scenario.knots
    )


def evaluate_bound_scenario(scenario: BoundScenario) -> BoundResult:
    """Engine worker: compute Algorithm 1 and Eq. 4 for one scenario.

    The benchmark function, its global maximum and its Algorithm 1
    window index come from the shared
    :class:`~repro.engine.context.BenchmarkContext`, so a whole Q sweep
    against one function builds (and maximises and indexes) it once per
    process.
    """
    context = get_context(bound_context_key(scenario))
    comparison = compare_bounds(
        context.function,
        scenario.q,
        f_max=context.function_max,
        index=context.function_index,
    )
    return BoundResult(
        function=scenario.function,
        q=scenario.q,
        algorithm1=comparison.algorithm1.total_delay,
        state_of_the_art=comparison.state_of_the_art.total_delay,
        converged=comparison.algorithm1.converged,
        preemptions=comparison.algorithm1.preemptions,
    )


def q_sweep_scenarios(
    qs: list[float],
    functions: tuple[str, ...] | None = None,
    interpretation: str = "literal",
    knots: int = 2048,
) -> list[BoundScenario]:
    """Q-major scenario grid: all functions at ``qs[0]``, then ``qs[1]``…

    Args:
        qs: NPR lengths to sweep.
        functions: Benchmark function names (default: all three).
        interpretation: Parameter interpretation.
        knots: Function resolution.
    """
    from repro.experiments.functions_fig4 import FIG4_NAMES

    names = functions if functions is not None else FIG4_NAMES
    require(len(names) > 0, "need at least one function name")
    return [
        BoundScenario(
            function=name, q=q, interpretation=interpretation, knots=knots
        )
        for q in qs
        for name in names
    ]


# ----------------------------------------------------------------------
# Schedulability acceptance studies (Section VI / EXT-D shape)
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class StudyScenario:
    """One generated task set of an acceptance study.

    Attributes:
        utilization: Target total utilization.
        seed: RNG seed for the task-set generator (scenario-owned, so
            results never depend on worker scheduling).
        n_tasks: Tasks per generated set.
        q_fraction: Fraction of the maximal safe NPR length to assign.
        delay_height: ``max f_i`` as a fraction of each task's WCET.
        methods: Delay-aware test methods to run
            (see :data:`repro.sched.METHODS`).
    """

    utilization: float
    seed: int
    n_tasks: int
    q_fraction: float
    delay_height: float
    methods: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class StudyResult:
    """Accept/reject outcome of one :class:`StudyScenario`.

    Attributes:
        utilization: Scenario utilization (the grouping key).
        seed: Scenario seed.
        admitted: Whether the set admitted an NPR assignment at all;
            ``False`` counts as a rejection for every method.
        accepted: Per-method verdicts, aligned with
            ``scenario.methods``.
    """

    utilization: float
    seed: int
    admitted: bool
    accepted: tuple[bool, ...]


def prepared_task_set(
    n_tasks: int,
    utilization: float,
    seed: int,
    q_fraction: float,
    delay_height: float,
    policy: str = "fp",
) -> TaskSet | None:
    """Generate, prioritise and NPR-annotate one task set.

    The single-shot recipe; sweep workers resolve the same set and
    safe-Q vector through :func:`repro.engine.context.get_context`
    instead, so one generated set serves every swept fraction.  Both paths produce
    bit-identical task sets (asserted in the context tests).

    Returns ``None`` when the set admits no NPR assignment (negative
    blocking tolerance / negative EDF slack): every delay-aware test
    counts it as a rejection.

    Args:
        n_tasks: Tasks per set.
        utilization: Target total utilization.
        seed: Generator seed (same seed -> same prepared set).
        q_fraction: Fraction of the maximal safe NPR length to assign.
        delay_height: ``max f_i`` as a fraction of each task's WCET.
        policy: NPR length policy — ``"fp"`` (Yao et al. blocking
            tolerances) or ``"edf"`` (Bertogna & Baruah slack).

    Raises:
        ValueError: for invalid *parameters* (unknown policy,
            out-of-range fraction) — these must fail loudly; only the
            per-task-set infeasibility is converted into ``None``.
    """
    # Validate caller-supplied knobs up front: the except below may
    # only absorb "this particular set admits no assignment", never a
    # typo'd campaign spec (which would silently reject everything).
    require(policy in ("edf", "fp"), f"unknown policy {policy!r}")
    require(
        0.0 < q_fraction <= 1.0,
        f"q_fraction must lie in (0, 1], got {q_fraction}",
    )
    factory = gaussian_delay_factory(relative_height=delay_height)
    tasks = generate_task_set(
        n_tasks,
        utilization,
        seed=seed,
        delay_function_factory=factory,
    ).rate_monotonic()
    try:
        return assign_npr_lengths(tasks, policy=policy, fraction=q_fraction)
    except ValueError:
        return None


def study_context_key(scenario: StudyScenario) -> TaskSetKey:
    """The context key of one study scenario: its generated set under
    the fixed-priority policy.  ``q_fraction`` and ``methods`` are
    excluded, so every fractional assignment of one set shares one
    context."""
    return TaskSetKey.of(scenario, "fp")


def evaluate_study_scenario(scenario: StudyScenario) -> StudyResult:
    """Engine worker: run every test method against one task set.

    The generated set, its fixed-priority safe-Q vector and the
    per-task delay maxima come from the shared
    :class:`~repro.engine.context.TaskSetContext`; only the
    ``q_fraction`` scaling and the Q-dependent Algorithm 1 bound are
    computed per scenario.  Bit-identical to the
    :func:`prepared_task_set` + :func:`repro.sched.delay_aware_rta`
    recipe.
    """
    context = get_context(study_context_key(scenario))
    task_set = context.prepared_task_set(scenario.q_fraction)
    if task_set is None:
        return StudyResult(
            utilization=scenario.utilization,
            seed=scenario.seed,
            admitted=False,
            accepted=tuple(False for _ in scenario.methods),
        )
    return StudyResult(
        utilization=scenario.utilization,
        seed=scenario.seed,
        admitted=True,
        accepted=tuple(
            delay_aware_rta(
                task_set, method, delay_maxima=context.delay_maxima
            ).schedulable
            for method in scenario.methods
        ),
    )
