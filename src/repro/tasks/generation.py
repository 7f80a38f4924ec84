"""Synthetic task-set generation (UUniFast and friends).

Standard machinery for schedulability studies: UUniFast draws ``n``
utilizations summing exactly to ``U``; periods come from a log-uniform
range (the conventional choice, giving equal weight to each order of
magnitude); deadlines are implicit or constrained.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable

from repro.core.delay_function import PreemptionDelayFunction
from repro.piecewise import gaussian_upper_step
from repro.tasks.task import Task, TaskSet
from repro.utils.checks import require, require_positive


def uunifast(n: int, total_utilization: float, rng: random.Random) -> list[float]:
    """UUniFast: ``n`` utilizations summing to ``total_utilization``.

    Bini & Buttazzo's algorithm draws uniformly from the simplex of
    utilization vectors.

    Args:
        n: Number of tasks (> 0).
        total_utilization: Target sum (> 0).
        rng: Seeded random source.
    """
    require(n > 0, f"n must be > 0, got {n}")
    require_positive(total_utilization, "total_utilization")
    utilizations: list[float] = []
    remaining = total_utilization
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utilizations.append(remaining - next_remaining)
        remaining = next_remaining
    utilizations.append(remaining)
    return utilizations


def uunifast_discard(
    n: int,
    total_utilization: float,
    rng: random.Random,
    cap: float = 1.0,
    max_attempts: int = 10_000,
) -> list[float]:
    """UUniFast rejecting vectors with any per-task utilization above ``cap``.

    Needed when ``total_utilization`` may exceed 1 (multiprocessor-style
    draws) or when heavy single tasks must be excluded.
    """
    for _ in range(max_attempts):
        candidate = uunifast(n, total_utilization, rng)
        if all(u <= cap for u in candidate):
            return candidate
    raise ValueError(
        f"could not draw {n} utilizations summing to {total_utilization} "
        f"with per-task cap {cap} in {max_attempts} attempts"
    )


def log_uniform_period(
    rng: random.Random, low: float = 10.0, high: float = 1000.0
) -> float:
    """A period drawn log-uniformly from ``[low, high]``."""
    require(0 < low < high, f"need 0 < low < high, got [{low}, {high}]")
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def generate_task_set(
    n: int,
    total_utilization: float,
    seed: int,
    period_range: tuple[float, float] = (10.0, 1000.0),
    deadline_style: str = "implicit",
    delay_function_factory: (
        Callable[[Task, random.Random], PreemptionDelayFunction] | None
    ) = None,
) -> TaskSet:
    """Generate a complete sporadic task set.

    Args:
        n: Number of tasks.
        total_utilization: Target total utilization.
        seed: RNG seed (same seed -> same task set).
        period_range: Log-uniform period range.
        deadline_style: ``"implicit"`` (D = T) or ``"constrained"``
            (D drawn uniformly from [C, T]).
        delay_function_factory: Optional callback attaching an ``f_i`` to
            each task.

    Returns:
        The generated :class:`~repro.tasks.TaskSet`.
    """
    require(
        deadline_style in ("implicit", "constrained"),
        f"unknown deadline_style {deadline_style!r}",
    )
    rng = random.Random(seed)
    utilizations = uunifast_discard(n, total_utilization, rng)
    tasks: list[Task] = []
    for i, u in enumerate(utilizations):
        period = log_uniform_period(rng, *period_range)
        wcet = max(u * period, 1e-6)
        if deadline_style == "implicit":
            deadline = period
        else:
            deadline = rng.uniform(wcet, period)
        task = Task(
            name=f"tau{i + 1}",
            wcet=wcet,
            period=period,
            deadline=deadline,
        )
        if delay_function_factory is not None:
            task = task.with_delay_function(delay_function_factory(task, rng))
        tasks.append(task)
    return TaskSet(tasks)


def gaussian_delay_factory(
    peak_fraction: float = 0.5,
    relative_width: float = 0.1,
    relative_height: float = 0.05,
    knots: int = 256,
) -> Callable[[Task, random.Random], PreemptionDelayFunction]:
    """Factory producing bell-shaped ``f_i`` scaled to each task.

    The peak sits at ``peak_fraction * C_i`` (jittered), has standard
    deviation ``relative_width * C_i`` and height
    ``relative_height * C_i`` — mirroring the paper's synthetic
    benchmark functions, but per-task.
    """
    require(0.0 < peak_fraction < 1.0, "peak_fraction must lie in (0, 1)")
    require_positive(relative_width, "relative_width")
    require_positive(relative_height, "relative_height")

    def factory(task: Task, rng: random.Random) -> PreemptionDelayFunction:
        c = task.wcet
        mu = c * min(max(rng.gauss(peak_fraction, 0.1), 0.05), 0.95)
        sigma = relative_width * c
        return PreemptionDelayFunction(
            gaussian_upper_step(
                mu, sigma**2, relative_height * c, lo=0.0, hi=c, knots=knots
            )
        )

    return factory
