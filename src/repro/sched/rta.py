"""Response-time analysis for fixed-priority scheduling.

Classic Joseph–Pandya/Audsley recurrence, extended with a blocking term
for floating non-preemptive regions: a job of τ_i can be blocked once by
the longest NPR of any lower-priority task that was already running when
the job arrived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.tasks.task import Task, TaskSet

#: Iteration cap for the fixpoint; reached only near U = 1 pathologies.
_MAX_ITERATIONS = 100_000


@dataclass(frozen=True, slots=True)
class ResponseTimeResult:
    """Per-task response times and the overall verdict.

    Attributes:
        response_times: Mapping task name -> response time (``math.inf``
            when the recurrence exceeds the deadline and is abandoned).
        schedulable: Whether every task meets its deadline.
    """

    response_times: dict[str, float]
    schedulable: bool


def _blocking_terms(ordered: list[Task]) -> list[float]:
    """Per priority position, the longest NPR among strictly
    lower-priority tasks (0 if none set): one reverse suffix-max pass.

    Ties keep the highest-priority holder of the maximum, the element a
    forward ``max`` over the suffix would return.
    """
    terms: list[float] = []
    longest = None
    for task in reversed(ordered):
        terms.append(0.0 if longest is None else longest)
        npr = task.npr_length
        if npr is not None and (longest is None or npr >= longest):
            longest = npr
    terms.reverse()
    return terms


def response_time(
    task: Task,
    higher_priority: list[Task],
    blocking: float = 0.0,
    execution_time: float | None = None,
    hp_execution_times: dict[str, float] | None = None,
    interference_inflation: dict[str, float] | None = None,
) -> float:
    """Fixpoint of ``R = C + B + sum_j ceil(R / T_j) * (C_j + gamma_j)``.

    Args:
        task: The analysed task.
        higher_priority: Tasks that can preempt it.
        blocking: Blocking term ``B`` (e.g. longest lower-priority NPR).
        execution_time: Override for ``C`` (e.g. the delay-inflated
            ``C'``); defaults to ``task.wcet``.
        hp_execution_times: Per-preemptor execution-time overrides.
            When the analysis inflates WCETs for preemption delay, the
            *interference* must use the inflated values too — a
            higher-priority job's own reload work also occupies the
            processor inside this task's window.
        interference_inflation: Optional per-preemptor surcharge
            ``gamma_j`` added to each higher-priority job's cost (the
            Busquets/Petters-style CRPD accounting).

    Returns:
        The response time, or ``math.inf`` when the recurrence diverges
        past the deadline (the caller treats that as a deadline miss).
    """
    c = execution_time if execution_time is not None else task.wcet
    if not c > 0:
        raise ValueError(f"{task.name}: execution time must be > 0")
    hp_times = hp_execution_times or {}
    hp_costs = [
        (hp, hp_times.get(hp.name, hp.wcet)) for hp in higher_priority
    ]
    if (
        not math.isfinite(c)
        or not math.isfinite(blocking)
        or any(not math.isfinite(cost) for _, cost in hp_costs)
    ):
        # A diverged delay bound (C' = inf) can never meet a deadline.
        return math.inf
    gamma = interference_inflation or {}
    preemptors = [
        (hp.period, cost + gamma.get(hp.name, 0.0)) for hp, cost in hp_costs
    ]
    r = c + blocking
    for _ in range(_MAX_ITERATIONS):
        interference = sum(
            math.ceil(r / period) * cost for period, cost in preemptors
        )
        updated = c + blocking + interference
        if updated == r:
            return r
        if updated > task.deadline:
            return math.inf
        r = updated
    return math.inf


def rta_fixed_priority(
    tasks: TaskSet,
    execution_times: dict[str, float] | None = None,
    interference_inflation: (
        dict[str, dict[str, float]] | None
    ) = None,
    include_npr_blocking: bool = True,
) -> ResponseTimeResult:
    """Response-time analysis of a whole fixed-priority task set.

    Args:
        tasks: Task set with priorities assigned.
        execution_times: Optional per-task ``C`` overrides (inflated
            WCETs from the delay analyses).
        interference_inflation: Optional nested mapping
            ``{task: {preemptor: gamma}}``.
        include_npr_blocking: Account for lower-priority NPR blocking.

    Returns:
        A :class:`ResponseTimeResult`.
    """
    ordered = list(tasks.sorted_by_priority())
    execution_times = execution_times or {}
    interference_inflation = interference_inflation or {}
    blocking = (
        _blocking_terms(ordered)
        if include_npr_blocking
        else [0.0] * len(ordered)
    )
    response_times: dict[str, float] = {}
    schedulable = True
    for i, task in enumerate(ordered):
        r = response_time(
            task,
            ordered[:i],
            blocking=blocking[i],
            execution_time=execution_times.get(task.name),
            hp_execution_times=execution_times,
            interference_inflation=interference_inflation.get(task.name),
        )
        response_times[task.name] = r
        if not (r <= task.deadline):
            schedulable = False
    return ResponseTimeResult(
        response_times=response_times, schedulable=schedulable
    )
