"""The preemption-delay function ``f_i`` of a task (paper, Sections III–IV).

``f_i(t)`` upper-bounds the delay a task pays if it is preempted when its
*progression* — useful work executed so far, excluding previously paid
preemption delay — equals ``t``.  The function is only meaningful on
``[0, C_i]`` where ``C_i`` is the task's worst-case execution time, must be
non-negative, and is only valid for the *first* preemption at each point
(the cumulative analyses of :mod:`repro.core.floating_npr` and
:mod:`repro.core.state_of_the_art` account for repeated preemptions).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.piecewise import PiecewiseFunction, constant, from_points, step
from repro.utils.checks import require, require_positive


class PreemptionDelayFunction:
    """A validated wrapper around a piecewise ``f_i`` on ``[0, C]``.

    Args:
        function: The underlying piecewise function.  Its domain must start
            at 0 and it must be non-negative everywhere.

    Attributes:
        function: The wrapped :class:`~repro.piecewise.PiecewiseFunction`.
    """

    __slots__ = ("function",)

    def __init__(self, function: PiecewiseFunction):
        if function.domain_start != 0:
            raise ValueError(
                f"f_i must be defined from progression 0, domain is {function.domain}"
            )
        require(function.is_non_negative(), "f_i must be non-negative everywhere")
        self.function = function

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_constant(cls, value: float, wcet: float) -> "PreemptionDelayFunction":
        """Constant delay ``value`` over ``[0, wcet]``."""
        require_positive(wcet, "wcet")
        return cls(constant(value, 0.0, wcet))

    @classmethod
    def from_points(
        cls, xs: Sequence[float], ys: Sequence[float]
    ) -> "PreemptionDelayFunction":
        """Continuous piecewise-linear ``f_i`` through the given points."""
        return cls(from_points(xs, ys))

    @classmethod
    def from_step(
        cls, bounds: Sequence[float], values: Sequence[float]
    ) -> "PreemptionDelayFunction":
        """Piecewise-constant ``f_i`` (e.g. one plateau per basic block)."""
        return cls(step(bounds, values))

    @classmethod
    def from_callable_upper(
        cls,
        fn: Callable[[float], float],
        wcet: float,
        knots: int = 2048,
        oversample: int = 8,
    ) -> "PreemptionDelayFunction":
        """Safe piecewise-constant upper bound of a closed-form delay curve."""
        from repro.piecewise import upper_step_from_callable

        require_positive(wcet, "wcet")
        return cls(upper_step_from_callable(fn, 0.0, wcet, knots, oversample))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def wcet(self) -> float:
        """The task's WCET ``C_i`` — the right end of the domain of ``f_i``."""
        return self.function.domain_end

    def value(self, progression: float) -> float:
        """Delay bound for a (first) preemption at ``progression``."""
        return self.function.value(progression)

    def __call__(self, progression: float) -> float:
        return self.value(progression)

    def max_value(self) -> float:
        """The global maximum of ``f_i`` (what Eq. 4 exclusively relies on)."""
        return self.function.max_value()

    def max_on(self, lo: float, hi: float) -> tuple[float, float]:
        """Maximum and leftmost argmax of ``f_i`` on ``[lo, hi] ∩ [0, C]``."""
        lo = max(lo, 0.0)
        hi = min(hi, self.wcet)
        return self.function.max_on(lo, hi)

    def first_meeting_with_descending_line(
        self, lo: float, hi: float, c: float
    ) -> float | None:
        """The paper's ``p∩`` on ``[lo, hi]`` for the line ``D(x) = c - x``."""
        lo = max(lo, 0.0)
        hi = min(hi, self.wcet)
        return self.function.first_meeting_with_descending_line(lo, hi, c)

    def __repr__(self) -> str:
        return (
            f"PreemptionDelayFunction(C={self.wcet:g}, "
            f"max={self.max_value():g}, {len(self.function)} pieces)"
        )
