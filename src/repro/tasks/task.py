"""Sporadic task model (paper, Section III).

A task τ_i is characterised by its WCET ``C_i``, minimum inter-arrival
time ``T_i``, relative deadline ``D_i``, floating-NPR length ``Q_i`` and —
the paper's key addition — a preemption-delay function ``f_i`` over its
progression axis ``[0, C_i]``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

from repro.core.delay_function import PreemptionDelayFunction
from repro.utils.checks import require, require_positive


@dataclass(frozen=True)
class Task:
    """One sporadic task.

    Attributes:
        name: Unique identifier.
        wcet: Worst-case execution time ``C_i`` (> 0), *excluding*
            preemption delay.
        period: Minimum inter-arrival time ``T_i`` (> 0).
        deadline: Relative deadline ``D_i`` (> 0); defaults to the period
            (implicit deadlines).
        npr_length: Floating non-preemptive region length ``Q_i``
            (``None`` until assigned, e.g. by :mod:`repro.npr`).
        delay_function: ``f_i``; ``None`` for delay-oblivious analyses.
        priority: Fixed priority (smaller = more important); ``None``
            under EDF.
    """

    name: str
    wcet: float
    period: float
    deadline: float | None = None
    npr_length: float | None = None
    delay_function: PreemptionDelayFunction | None = None
    priority: int | None = None

    def __post_init__(self) -> None:
        require(bool(self.name), "task needs a non-empty name")
        require_positive(self.wcet, "wcet", owner=self.name)
        require_positive(self.period, "period", owner=self.name)
        if self.deadline is None:
            object.__setattr__(self, "deadline", self.period)
        require_positive(self.deadline, "deadline", owner=self.name)
        if self.npr_length is not None:
            require_positive(self.npr_length, "npr_length", owner=self.name)
        if self.delay_function is not None:
            self._check_delay_function(self.delay_function)

    def _check_delay_function(self, f: PreemptionDelayFunction) -> None:
        if not abs(f.wcet - self.wcet) < 1e-9:
            raise ValueError(
                f"{self.name}: delay function domain "
                f"[0, {f.wcet}] must match wcet {self.wcet}"
            )

    def _with(self, name: str, value: object) -> "Task":
        """A copy with one field changed, the caller having validated it.

        ``dataclasses.replace`` would run ``__post_init__`` again over
        every field; the unchanged ones were validated when ``self`` was
        built and a frozen task cannot change them since.
        """
        task = object.__new__(type(self))
        fields = task.__dict__
        fields.update(self.__dict__)
        fields[name] = value
        return task

    @property
    def utilization(self) -> float:
        """``C_i / T_i``."""
        return self.wcet / self.period

    @property
    def density(self) -> float:
        """``C_i / min(D_i, T_i)``."""
        return self.wcet / min(self.deadline, self.period)

    def with_npr_length(self, q: float) -> "Task":
        """A copy with the floating-NPR length set."""
        if q is not None:
            require_positive(q, "npr_length", owner=self.name)
        return self._with("npr_length", q)

    def with_delay_function(self, f: PreemptionDelayFunction) -> "Task":
        """A copy with the preemption-delay function attached."""
        if f is not None:
            self._check_delay_function(f)
        return self._with("delay_function", f)

    def with_priority(self, priority: int) -> "Task":
        """A copy with a fixed priority assigned."""
        return self._with("priority", priority)

    def with_wcet(self, wcet: float) -> "Task":
        """A copy with a different WCET (drops a mismatched ``f_i``)."""
        f = self.delay_function
        if f is not None and abs(f.wcet - wcet) >= 1e-9:
            f = None
        return replace(self, wcet=wcet, delay_function=f)


class TaskSet:
    """An ordered collection of tasks with unique names."""

    __slots__ = ("_tasks",)

    def __init__(self, tasks: Iterable[Task]):
        items = tuple(tasks)
        require(len(items) > 0, "a task set needs at least one task")
        names = [t.name for t in items]
        require(len(set(names)) == len(names), f"duplicate task names in {names}")
        self._tasks = items

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def __repr__(self) -> str:
        return (
            f"TaskSet({len(self._tasks)} tasks, U={self.utilization:.3f})"
        )

    def task(self, name: str) -> Task:
        """The task called ``name``."""
        for t in self._tasks:
            if t.name == name:
                return t
        raise ValueError(f"no task named {name!r}")

    @property
    def utilization(self) -> float:
        """Total utilization ``sum C_i / T_i``."""
        return sum(t.utilization for t in self._tasks)

    # ------------------------------------------------------------------
    # Orderings and priority assignments
    # ------------------------------------------------------------------
    def sorted_by_deadline(self) -> "TaskSet":
        """Tasks ordered by relative deadline (EDF analyses expect this)."""
        return TaskSet(sorted(self._tasks, key=lambda t: (t.deadline, t.name)))

    def sorted_by_priority(self) -> "TaskSet":
        """Tasks ordered by fixed priority (highest first).

        Raises:
            ValueError: when some task has no priority.
        """
        require(
            all(t.priority is not None for t in self._tasks),
            "all tasks need priorities; use rate_monotonic()/deadline_monotonic()",
        )
        return TaskSet(sorted(self._tasks, key=lambda t: (t.priority, t.name)))

    def rate_monotonic(self) -> "TaskSet":
        """Assign rate-monotonic priorities (shorter period = higher)."""
        ordered = sorted(self._tasks, key=lambda t: (t.period, t.name))
        return TaskSet(
            t.with_priority(i + 1) for i, t in enumerate(ordered)
        )

    def deadline_monotonic(self) -> "TaskSet":
        """Assign deadline-monotonic priorities (shorter deadline = higher)."""
        ordered = sorted(self._tasks, key=lambda t: (t.deadline, t.name))
        return TaskSet(
            t.with_priority(i + 1) for i, t in enumerate(ordered)
        )

    def map(self, fn) -> "TaskSet":
        """A new task set with ``fn`` applied to every task."""
        return TaskSet(fn(t) for t in self._tasks)
