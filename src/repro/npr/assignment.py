"""Assigning floating-NPR lengths to whole task sets.

:func:`assign_npr_lengths` is the one-call recipe (derive the maximal
safe lengths, scale, attach); :func:`apply_npr_lengths` is the scaling
step alone, for callers that already hold a safe-Q vector — a
:class:`repro.engine.context.TaskSetContext` computes the vector once
per task set and applies it at every swept fraction.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.npr.qmax_edf import edf_max_npr_lengths
from repro.npr.qmax_fp import fp_max_npr_lengths
from repro.tasks.task import TaskSet


def apply_npr_lengths(
    tasks: TaskSet,
    lengths: Mapping[str, float],
    fraction: float = 1.0,
) -> TaskSet:
    """Attach ``fraction``-scaled NPR lengths to a task set.

    Args:
        tasks: The task set to annotate.
        lengths: Maximal safe NPR length per task name (e.g. from
            :func:`repro.npr.fp_max_npr_lengths` /
            :func:`repro.npr.edf_max_npr_lengths`).
        fraction: Scale factor in ``(0, 1]`` applied to each length.

    Returns:
        A new :class:`~repro.tasks.TaskSet` with ``npr_length`` set.

    Raises:
        ValueError: for out-of-range fractions or lengths that scale to
            a non-positive NPR (the set admits no assignment).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    scaled = {}
    for name, q in lengths.items():
        value = q * fraction
        if not value > 0:
            raise ValueError(f"task {name} admits no positive NPR length (Q_max = {q})")
        scaled[name] = value
    return tasks.map(lambda t: t.with_npr_length(scaled[t.name]))


def assign_npr_lengths(
    tasks: TaskSet,
    policy: str = "edf",
    fraction: float = 1.0,
) -> TaskSet:
    """A copy of the task set with ``Q_i`` set on every task.

    Args:
        tasks: The task set (fixed-priority policy requires priorities).
        policy: ``"edf"`` (Bertogna & Baruah slack method) or ``"fp"``
            (Yao et al. blocking tolerances).
        fraction: Scale factor in ``(0, 1]`` applied to the maximal safe
            lengths — shorter NPRs trade preemption-collation for lower
            per-window delay exposure, which is exactly the trade-off the
            paper's Figure 5 sweeps.

    Returns:
        A new :class:`~repro.tasks.TaskSet` with ``npr_length`` set.

    Raises:
        ValueError: for unknown policies, out-of-range fractions, or
            task sets admitting no positive NPR length.
    """
    if policy not in ("edf", "fp"):
        raise ValueError(f"unknown policy {policy!r}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    if policy == "edf":
        lengths = edf_max_npr_lengths(tasks)
    else:
        lengths = fp_max_npr_lengths(tasks)
    return apply_npr_lengths(tasks, lengths, fraction)
