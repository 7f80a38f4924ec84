"""Delay-aware schedulability tests (paper, Sections II and VI context).

Four ways to fold preemption delay into fixed-priority RTA, from the
oblivious baseline to the paper's Algorithm 1:

* ``oblivious``   — ignore preemption delay entirely (unsafe; included
  as the optimistic reference).
* ``busquets``    — charge each higher-priority arrival the preempted
  task's *maximum* CRPD (Busquets-Mataix et al. [5]).
* ``petters``     — charge each higher-priority arrival the *damage that
  specific preemptor can cause* (Petters & Färber [1]); needs a damage
  matrix, e.g. from UCB ∩ ECB.
* ``eq4`` / ``algorithm1`` — inflate each ``C_i`` to ``C'_i`` with the
  respective cumulative floating-NPR bound and run plain RTA with NPR
  blocking; ``algorithm1`` is the paper's contribution and dominates
  ``eq4`` by Theorem 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.floating_npr import floating_npr_delay_bound
from repro.core.state_of_the_art import state_of_the_art_delay_bound
from repro.sched.rta import ResponseTimeResult, rta_fixed_priority
from repro.tasks.task import TaskSet
from repro.utils.checks import require

#: The delay-aware test flavours implemented by :func:`delay_aware_rta`.
METHODS = ("oblivious", "busquets", "petters", "eq4", "algorithm1")


@dataclass(frozen=True, slots=True)
class DelayAwareResult:
    """Outcome of one delay-aware schedulability test.

    Attributes:
        method: One of :data:`METHODS`.
        rta: The underlying response-time result.
        inflated_wcets: Per-task execution times used by the test.
    """

    method: str
    rta: ResponseTimeResult
    inflated_wcets: dict[str, float]

    @property
    def schedulable(self) -> bool:
        """Whether the test accepts the task set."""
        return self.rta.schedulable


def _max_delay_of(
    task, delay_maxima: dict[str, float] | None
) -> float:
    """``max f_i`` of one task, served from ``delay_maxima`` when given.

    The fallback computes ``max_value()`` on the spot, so a partial
    mapping is never wrong — only slower.
    """
    if task.delay_function is None:
        return 0.0
    if delay_maxima is not None and task.name in delay_maxima:
        return delay_maxima[task.name]
    return task.delay_function.max_value()


def _inflated_wcets(
    tasks: TaskSet,
    use_algorithm1: bool,
    delay_maxima: dict[str, float] | None = None,
) -> dict[str, float]:
    """``C'_i`` for every task from the chosen cumulative delay bound."""
    result: dict[str, float] = {}
    for task in tasks:
        if task.delay_function is None or task.npr_length is None:
            result[task.name] = task.wcet
            continue
        if use_algorithm1:
            bound = floating_npr_delay_bound(
                task.delay_function, task.npr_length
            )
        else:
            bound = state_of_the_art_delay_bound(
                task.delay_function,
                task.npr_length,
                f_max=(
                    delay_maxima.get(task.name)
                    if delay_maxima is not None
                    else None
                ),
            )
        result[task.name] = bound.inflated_wcet
    return result


def delay_aware_rta(
    tasks: TaskSet,
    method: str,
    damage_matrix: dict[str, dict[str, float]] | None = None,
    delay_maxima: dict[str, float] | None = None,
) -> DelayAwareResult:
    """Run one delay-aware schedulability test.

    Args:
        tasks: Fixed-priority task set (with ``f_i``/``Q_i`` attached for
            the methods that need them).
        method: One of :data:`METHODS`.
        damage_matrix: For ``petters``: ``{task: {preemptor: damage}}``;
            defaults to the Busquets-style maximum when missing.
        delay_maxima: Precomputed ``{task name: max f_i}``.  Every
            method except ``algorithm1`` reads ``f_i`` only through its
            global maximum, and the event-accounting methods read it
            O(n²) times per test — a sweep holding a
            :class:`repro.engine.context.TaskSetContext` computes the
            maxima once per task set and passes them here.  Values must
            equal ``f_i.max_value()`` exactly; missing names fall back
            to computing.

    Returns:
        The test outcome with the execution times it used.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; pick from {METHODS}")

    if method == "oblivious":
        wcets = {t.name: t.wcet for t in tasks}
        rta = rta_fixed_priority(tasks)
        return DelayAwareResult(method=method, rta=rta, inflated_wcets=wcets)

    if method in ("eq4", "algorithm1"):
        wcets = _inflated_wcets(
            tasks,
            use_algorithm1=(method == "algorithm1"),
            delay_maxima=delay_maxima,
        )
        rta = rta_fixed_priority(tasks, execution_times=wcets)
        return DelayAwareResult(method=method, rta=rta, inflated_wcets=wcets)

    # Preemption-event accounting (Busquets / Petters).  Each arrival of
    # a higher-priority task j inside tau_i's window causes at most one
    # preemption, whose victim is tau_i *or any intermediate-priority
    # task* — the charge must cover the worst victim, not only tau_i.
    ordered = list(tasks.sorted_by_priority())

    def max_crpd_of(task) -> float:
        return _max_delay_of(task, delay_maxima)

    inflation: dict[str, dict[str, float]] = {}
    for i, task in enumerate(ordered):
        per_preemptor: dict[str, float] = {}
        for j, hp in enumerate(ordered[:i]):
            victims = ordered[j + 1 : i + 1]  # between hp and tau_i incl.
            if method == "busquets":
                per_preemptor[hp.name] = max(
                    (max_crpd_of(v) for v in victims), default=0.0
                )
            else:  # petters: per-victim damage caused by this preemptor
                worst = 0.0
                for victim in victims:
                    damage = max_crpd_of(victim)
                    if damage_matrix and victim.name in damage_matrix:
                        damage = min(
                            damage_matrix[victim.name].get(hp.name, damage),
                            damage,
                        )
                    worst = max(worst, damage)
                per_preemptor[hp.name] = worst
        inflation[task.name] = per_preemptor
    wcets = {t.name: t.wcet for t in tasks}
    rta = rta_fixed_priority(tasks, interference_inflation=inflation)
    return DelayAwareResult(method=method, rta=rta, inflated_wcets=wcets)


def acceptance_ratio(
    task_sets: list[TaskSet],
    method: str,
    damage_matrix: dict[str, dict[str, float]] | None = None,
) -> float:
    """Fraction of task sets accepted by the given test."""
    require(bool(task_sets), "need at least one task set")
    accepted = sum(
        1
        for ts in task_sets
        if delay_aware_rta(ts, method, damage_matrix).schedulable
    )
    return accepted / len(task_sets)
