"""Maximum floating-NPR lengths under fixed priority (Yao et al. [11]).

The *blocking tolerance* ``beta_i`` of task τ_i is the largest amount of
lower-priority blocking τ_i can absorb while still meeting its deadline.
With the level-i workload ``W_i(t) = C_i + sum_{j<i} ceil(t / T_j) C_j``
and the Lehoczky testing set ``TS_i`` (multiples of higher-priority
periods up to ``D_i``, plus ``D_i`` itself)::

    beta_i = max { t - W_i(t) : t in TS_i, t <= D_i }

An NPR of τ_i blocks exactly the *higher*-priority tasks, so the largest
safe NPR length is::

    Q_i = min { beta_j : j higher priority than i }

(the highest-priority task is unconstrained).
"""

from __future__ import annotations

import math

from repro.tasks.task import TaskSet

#: Relative tolerance for float comparisons at Lehoczky points.  Period
#: multiples are computed as ``k * period``, which can land one ulp away
#: from an exactly-intended boundary (``3 * 0.1 > 0.3``); exact
#: comparisons would then drop a testing point or over-count a release,
#: understating the blocking tolerance ``beta_i``.
_REL_TOL = 1e-9


def _testing_set(tasks: list, i: int) -> list[float]:
    """Lehoczky points for level i: ``k * T_j <= D_i`` plus ``D_i``.

    Membership is tested with a relative tolerance so a multiple that
    float-rounds one ulp above the deadline (``3 * 0.1`` vs ``0.3``) is
    still a testing point; it is clamped to the deadline so no point
    ever exceeds ``D_i``.
    """
    deadline = tasks[i].deadline
    limit = deadline * (1.0 + _REL_TOL)
    points = {deadline}
    for j in range(i):
        period = tasks[j].period
        k = 1
        while (point := k * period) <= limit:
            # min(point, deadline), inlined: the first of equal values.
            points.add(deadline if deadline < point else point)
            k += 1
    return sorted(points)


def _workload(
    wcet: float, higher: list[tuple[float, float]], t: float, shrink: float
) -> float:
    """``W_i(t) = C_i + sum_{j<i} ceil(t / T_j) C_j``, the terms added in
    priority order.

    Each ratio is nudged down by a relative epsilon: at a multiple of
    T_j that float rounding puts one ulp above the integer (2.1 / 0.7 ->
    3.0000000000000004) a plain ceil would charge a spurious job.
    """
    ceil = math.ceil
    for period, cost in higher:
        wcet += ceil((t / period) * shrink) * cost
    return wcet


def fp_blocking_tolerances(tasks: TaskSet) -> dict[str, float]:
    """Blocking tolerance ``beta_i`` of every task.

    Each level scans its testing points from the deadline down and
    stops once ``t - W_min`` cannot beat the best slack found, where
    ``W_min`` is the workload at the smallest testing point.  Every
    term of the workload is non-decreasing in ``t`` in floats (a
    division, a product and a ``ceil``, each rounded monotonically),
    and so is every partial sum, so ``W_i(t') >= W_min`` and
    ``t' - W_i(t') <= t - W_min`` for every point ``t' <= t`` left: the
    early exit returns the bits the full scan returns.

    Args:
        tasks: Task set with priorities assigned (see
            :meth:`~repro.tasks.TaskSet.rate_monotonic`).

    Returns:
        Mapping task name -> ``beta_i``; a negative value means the task
        misses its deadline even without blocking.
    """
    ordered = list(tasks.sorted_by_priority())
    shrink = 1.0 - _REL_TOL
    result: dict[str, float] = {}
    higher: list[tuple[float, float]] = []
    for i, task in enumerate(ordered):
        points = _testing_set(ordered, i)
        wcet = task.wcet
        least = _workload(wcet, higher, points[0], shrink)
        best = -math.inf
        for t in reversed(points):
            if t - least <= best:
                break
            slack = t - _workload(wcet, higher, t, shrink)
            if slack > best:
                best = slack
        result[task.name] = best
        higher.append((task.period, wcet))
    return result


def fp_max_npr_lengths(
    tasks: TaskSet,
    cap_at_wcet: bool = True,
    tolerances: dict[str, float] | None = None,
) -> dict[str, float]:
    """Largest safe floating-NPR length of every task under fixed priority.

    Args:
        tasks: Task set with priorities assigned.
        cap_at_wcet: Also cap each ``Q_i`` at ``C_i``.
        tolerances: Precomputed :func:`fp_blocking_tolerances` of the
            same task set (the expensive part — the Lehoczky testing
            sets); ``None`` computes them here.  The shared-artifact
            context layer (:mod:`repro.engine.context`) computes the
            tolerances once per task set and derives every fractional
            assignment from them.

    Returns:
        Mapping task name -> ``Q_i``.

    Raises:
        ValueError: when some task has negative blocking tolerance (the
            set is unschedulable regardless of NPR lengths).
    """
    ordered = list(tasks.sorted_by_priority())
    if tolerances is None:
        tolerances = fp_blocking_tolerances(tasks)
    for name, beta in tolerances.items():
        if not beta >= 0:
            raise ValueError(
                f"task {name} has negative blocking tolerance ({beta:.3f}): "
                "unschedulable under fixed priority even without blocking"
            )
    result: dict[str, float] = {}
    running_min = math.inf
    for task in ordered:
        q = running_min  # min tolerance over strictly higher priorities
        if cap_at_wcet:
            q = min(q, task.wcet)
        result[task.name] = q
        running_min = min(running_min, tolerances[task.name])
    return result
